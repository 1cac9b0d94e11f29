#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.h"
#include "obs/trace_recorder.h"

namespace aptserve::obs {

namespace {

// ---- Export ----------------------------------------------------------------

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

std::string ExportChromeTrace(std::vector<TraceEvent> events) {
  // Stable per-track timestamp order: equal stamps keep emission order, and
  // per-track monotonicity becomes a construction property (queue-wait
  // spans legitimately *start* in the past relative to their emit point).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.ts < b.ts;
                   });

  std::map<int32_t, bool> tracks;
  for (const TraceEvent& e : events) tracks[e.track] = true;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  sep();
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"aptserve\"}}";
  for (const auto& [track, unused] : tracks) {
    (void)unused;
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(TrackTid(track)) + ",\"args\":{\"name\":\"" +
           TrackName(track) + "\"}}";
  }

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kSpan:
        sep();
        AppendCommon(e, "X", "lifecycle", &out);
        out += ",\"dur\":" + JsonNumber(e.dur * 1e6) + ",";
        AppendArgs(e, &out);
        out += '}';
        break;
      case EventKind::kInstant:
        sep();
        AppendCommon(e, "i", "lifecycle", &out);
        out += ",\"s\":\"t\",";
        AppendArgs(e, &out);
        out += '}';
        break;
      case EventKind::kFlowBegin:
        // A visible instant plus the flow-start half of the arrow.
        sep();
        AppendCommon(e, "i", "lifecycle", &out);
        out += ",\"s\":\"t\",";
        AppendArgs(e, &out);
        out += '}';
        sep();
        AppendCommon(e, "s", "flow", &out);
        out += ",\"id\":" + std::to_string(e.flow) + '}';
        break;
      case EventKind::kFlowEnd:
        sep();
        AppendCommon(e, "i", "lifecycle", &out);
        out += ",\"s\":\"t\",";
        AppendArgs(e, &out);
        out += '}';
        sep();
        AppendCommon(e, "f", "flow", &out);
        out += ",\"bp\":\"e\",\"id\":" + std::to_string(e.flow) + '}';
        break;
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

// ---- Validation ------------------------------------------------------------

StatusOr<ChromeTraceStats> ValidateChromeTrace(const std::string& text) {
  auto root_or = json::ParseJson(text);
  APT_RETURN_NOT_OK(root_or.status());
  const json::JsonValue& root = *root_or;
  if (!root.is_object()) {
    return Status::InvalidArgument("trace root is not an object");
  }
  const json::JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("missing traceEvents array");
  }

  ChromeTraceStats stats;
  std::map<std::pair<int64_t, int64_t>, double> last_ts;  // (pid,tid) -> ts
  struct FlowHalves {
    int64_t begins = 0;
    int64_t ends = 0;
    double begin_ts = 0.0;
    double end_ts = 0.0;
  };
  std::map<int64_t, FlowHalves> flows;

  int64_t index = -1;
  for (const json::JsonValue& e : events->items()) {
    ++index;
    const std::string at = "traceEvents[" + std::to_string(index) + "]";
    if (!e.is_object()) {
      return Status::InvalidArgument(at + " is not an object");
    }
    const json::JsonValue* ph = e.Find("ph");
    const json::JsonValue* name = e.Find("name");
    const json::JsonValue* pid = e.Find("pid");
    const json::JsonValue* tid = e.Find("tid");
    if (ph == nullptr || !ph->is_string() || ph->string_value().empty()) {
      return Status::InvalidArgument(at + ": missing ph");
    }
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(at + ": missing name");
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      return Status::InvalidArgument(at + ": missing pid/tid");
    }
    const std::string& phase = ph->string_value();
    const std::string& event_name = name->string_value();
    if (phase == "M") continue;  // metadata: no timestamp contract

    const json::JsonValue* ts_value = e.Find("ts");
    if (ts_value == nullptr || !ts_value->is_number()) {
      return Status::InvalidArgument(at + ": missing ts");
    }
    const double ts = ts_value->number_value();
    ++stats.events;

    const std::pair<int64_t, int64_t> track{
        static_cast<int64_t>(pid->number_value()),
        static_cast<int64_t>(tid->number_value())};
    auto [it, inserted] = last_ts.emplace(track, ts);
    if (inserted) ++stats.tracks;
    if (!inserted) {
      if (ts < it->second) {
        return Status::InvalidArgument(
            at + ": non-monotonic ts on track tid=" +
            std::to_string(track.second) + " (" + std::to_string(ts) +
            " after " + std::to_string(it->second) + ")");
      }
      it->second = ts;
    }

    if (phase == "X") {
      const json::JsonValue* dur = e.Find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number_value() < 0) {
        return Status::InvalidArgument(at + ": complete event without dur");
      }
      if (event_name == "queue_wait") ++stats.queue_wait_spans;
    } else if (phase == "s" || phase == "f") {
      const json::JsonValue* id = e.Find("id");
      if (id == nullptr || !id->is_number()) {
        return Status::InvalidArgument(at + ": flow event without id");
      }
      FlowHalves& half = flows[static_cast<int64_t>(id->number_value())];
      if (phase == "s") {
        ++half.begins;
        half.begin_ts = ts;
        ++stats.flow_begins;
      } else {
        ++half.ends;
        half.end_ts = ts;
        ++stats.flow_ends;
      }
    } else if (phase == "i") {
      if (event_name == "scale") ++stats.scale_events;
      if (event_name == "queue_wait") {
        return Status::InvalidArgument(
            at + ": queue_wait must be a span (X), not an instant — the "
                 "paired-instant encoding was retired");
      }
    }
  }

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

}  // namespace aptserve::obs
