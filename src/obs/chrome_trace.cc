#include "obs/chrome_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "obs/trace_recorder.h"

namespace aptserve::obs {

namespace {

// chrome://tracing wants small non-negative tids; instance tracks use their
// ids directly and the reserved negative tracks map above any plausible
// fleet size.
int64_t TrackTid(int32_t track) {
  if (track >= 0) return track;
  return 10000 - static_cast<int64_t>(track);  // router=10001, controller=10002
}

std::string TrackName(int32_t track) {
  if (track == kRouterTrack) return "router";
  if (track == kControllerTrack) return "controller";
  if (track <= kCellTrackBase) {
    return "cell " + std::to_string(kCellTrackBase - track);
  }
  if (track < 0) return "track" + std::to_string(track);
  return "instance " + std::to_string(track);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void AppendArgs(const TraceEvent& e, std::string* out) {
  *out += "\"args\":{\"req\":" + std::to_string(e.id);
  const double args[3] = {e.a0, e.a1, e.a2};
  for (int32_t slot = 0; slot < 3; ++slot) {
    const char* label = TraceOpArgName(e.op, slot);
    if (label == nullptr) continue;
    *out += ",\"";
    *out += label;
    *out += "\":";
    *out += JsonNumber(args[slot]);
  }
  *out += '}';
}

void AppendCommon(const TraceEvent& e, const char* ph, const char* cat,
                  std::string* out) {
  *out += "{\"name\":\"";
  *out += TraceOpName(e.op);
  *out += "\",\"cat\":\"";
  *out += cat;
  *out += "\",\"ph\":\"";
  *out += ph;
  *out += "\",\"ts\":";
  *out += JsonNumber(e.ts * 1e6);
  *out += ",\"pid\":1,\"tid\":";
  *out += std::to_string(TrackTid(e.track));
}

}  // namespace

StatusOr<ChromeTraceStats> CheckTraceEvents(
    const std::vector<TraceEvent>& events) {
  ChromeTraceStats stats;
  std::set<int32_t> tracks;
  struct FlowHalves {
    int64_t begins = 0;
    int64_t ends = 0;
    double begin_ts = 0.0;
    double end_ts = 0.0;
  };
  std::map<uint64_t, FlowHalves> flows;

  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const auto error = [&](const std::string& what) {
      return Status::InvalidArgument("trace event " + std::to_string(i) +
                                     " (" + TraceOpName(e.op) + "): " + what);
    };
    for (const double v : {e.ts, e.dur, e.a0, e.a1, e.a2}) {
      if (!std::isfinite(v)) return error("non-finite ts, dur or arg");
    }
    tracks.insert(e.track);
    ++stats.events;
    switch (e.kind) {
      case EventKind::kSpan:
        if (e.dur < 0) return error("negative span duration");
        if (e.op == TraceOp::kQueueWait) ++stats.queue_wait_spans;
        continue;
      case EventKind::kInstant:
        break;
      case EventKind::kFlowBegin: {
        FlowHalves& half = flows[e.flow];
        ++half.begins;
        half.begin_ts = e.ts;
        ++stats.flow_begins;
        ++stats.events;  // the "s" half next to the instant
        break;
      }
      case EventKind::kFlowEnd: {
        FlowHalves& half = flows[e.flow];
        ++half.ends;
        half.end_ts = e.ts;
        ++stats.flow_ends;
        ++stats.events;  // the "f" half next to the instant
        break;
      }
    }
    // Every non-span kind renders an instant.
    if (e.op == TraceOp::kScale) ++stats.scale_events;
    if (e.op == TraceOp::kQueueWait) {
      return error("queue_wait must be a span, not an instant");
    }
  }
  stats.tracks = static_cast<int64_t>(tracks.size());

  for (const auto& [id, half] : flows) {
    if (half.begins != 1 || half.ends != 1) {
      return Status::InvalidArgument(
          "flow id " + std::to_string(id) + " has " +
          std::to_string(half.begins) + " begins and " +
          std::to_string(half.ends) + " ends (want exactly 1 of each)");
    }
    if (half.end_ts < half.begin_ts) {
      return Status::InvalidArgument("flow id " + std::to_string(id) +
                                     " ends before it begins");
    }
    ++stats.matched_flows;
  }
  return stats;
}

void ExportChromeTrace(std::vector<TraceEvent> events, std::ostream& out) {
  // Stable per-track timestamp order: equal stamps keep emission order, and
  // per-track monotonicity becomes a construction property (queue-wait
  // spans legitimately *start* in the past relative to their emit point).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.ts < b.ts;
                   });

  std::set<int32_t> tracks;
  for (const TraceEvent& e : events) tracks.insert(e.track);

  // Events render into `buf`, which drains to `out` in chunks, so the
  // document is never held whole.
  constexpr size_t kChunkBytes = size_t{1} << 16;
  std::string buf = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (buf.size() >= kChunkBytes) {
      out << buf;
      buf.clear();
    }
    if (!first) buf += ",\n";
    first = false;
  };

  sep();
  buf +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"aptserve\"}}";
  for (const int32_t track : tracks) {
    sep();
    buf += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(TrackTid(track)) + ",\"args\":{\"name\":\"" +
           TrackName(track) + "\"}}";
  }

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kSpan:
        sep();
        AppendCommon(e, "X", "lifecycle", &buf);
        buf += ",\"dur\":" + JsonNumber(e.dur * 1e6) + ",";
        AppendArgs(e, &buf);
        buf += '}';
        break;
      case EventKind::kInstant:
        sep();
        AppendCommon(e, "i", "lifecycle", &buf);
        buf += ",\"s\":\"t\",";
        AppendArgs(e, &buf);
        buf += '}';
        break;
      case EventKind::kFlowBegin:
        // A visible instant plus the flow-start half of the arrow.
        sep();
        AppendCommon(e, "i", "lifecycle", &buf);
        buf += ",\"s\":\"t\",";
        AppendArgs(e, &buf);
        buf += '}';
        sep();
        AppendCommon(e, "s", "flow", &buf);
        buf += ",\"id\":" + std::to_string(e.flow) + '}';
        break;
      case EventKind::kFlowEnd:
        sep();
        AppendCommon(e, "i", "lifecycle", &buf);
        buf += ",\"s\":\"t\",";
        AppendArgs(e, &buf);
        buf += '}';
        sep();
        AppendCommon(e, "f", "flow", &buf);
        buf += ",\"bp\":\"e\",\"id\":" + std::to_string(e.flow) + '}';
        break;
    }
  }
  buf += "],\"displayTimeUnit\":\"ms\"}\n";
  out << buf;
}

}  // namespace aptserve::obs
