#include "obs/chrome_trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

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

// ---- Minimal JSON parser ---------------------------------------------------
// Self-contained recursive-descent parser for the validator: the repo takes
// no third-party JSON dependency, and the subset the exporter emits
// (objects, arrays, strings with simple escapes, numbers, bools, null) is
// small enough to parse exactly.

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool Is(Type t) const { return type == t; }
  const JsonValue* Find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue v;
    APT_RETURN_NOT_OK(ParseValue(&v));
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      APT_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue v;
      APT_RETURN_NOT_OK(ParseValue(&v));
      out->obj.emplace(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue v;
      APT_RETURN_NOT_OK(ParseValue(&v));
      out->arr.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            // The exporter never emits \u escapes; accept and keep them
            // opaque so foreign traces still validate structurally.
            if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
            *out += '?';
            pos_ += 4;
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  Status ParseKeyword(JsonValue* out) {
    auto match = [&](const char* kw) {
      const size_t n = std::string(kw).size();
      if (text_.compare(pos_, n, kw) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->b = true;
      return Status::OK();
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->b = false;
      return Status::OK();
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    return Fail("bad keyword");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    char* end = nullptr;
    const std::string tok = text_.substr(start, pos_ - start);
    out->num = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') return Fail("bad number: " + tok);
    out->type = JsonValue::Type::kNumber;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

// ---- Validation ------------------------------------------------------------

StatusOr<ChromeTraceStats> ValidateChromeTrace(const std::string& json) {
  JsonParser parser(json);
  auto root_or = parser.Parse();
  APT_RETURN_NOT_OK(root_or.status());
  const JsonValue& root = *root_or;
  if (!root.Is(JsonValue::Type::kObject)) {
    return Status::InvalidArgument("trace root is not an object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->Is(JsonValue::Type::kArray)) {
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
  for (const JsonValue& e : events->arr) {
    ++index;
    const std::string at = "traceEvents[" + std::to_string(index) + "]";
    if (!e.Is(JsonValue::Type::kObject)) {
      return Status::InvalidArgument(at + " is not an object");
    }
    const JsonValue* ph = e.Find("ph");
    const JsonValue* name = e.Find("name");
    const JsonValue* pid = e.Find("pid");
    const JsonValue* tid = e.Find("tid");
    if (ph == nullptr || !ph->Is(JsonValue::Type::kString) ||
        ph->str.empty()) {
      return Status::InvalidArgument(at + ": missing ph");
    }
    if (name == nullptr || !name->Is(JsonValue::Type::kString)) {
      return Status::InvalidArgument(at + ": missing name");
    }
    if (pid == nullptr || !pid->Is(JsonValue::Type::kNumber) ||
        tid == nullptr || !tid->Is(JsonValue::Type::kNumber)) {
      return Status::InvalidArgument(at + ": missing pid/tid");
    }
    if (ph->str == "M") continue;  // metadata: no timestamp contract

    const JsonValue* ts = e.Find("ts");
    if (ts == nullptr || !ts->Is(JsonValue::Type::kNumber)) {
      return Status::InvalidArgument(at + ": missing ts");
    }
    ++stats.events;

    const std::pair<int64_t, int64_t> track{
        static_cast<int64_t>(pid->num), static_cast<int64_t>(tid->num)};
    auto [it, inserted] = last_ts.emplace(track, ts->num);
    if (inserted) ++stats.tracks;
    if (!inserted) {
      if (ts->num < it->second) {
        return Status::InvalidArgument(
            at + ": non-monotonic ts on track tid=" +
            std::to_string(track.second) + " (" + std::to_string(ts->num) +
            " after " + std::to_string(it->second) + ")");
      }
      it->second = ts->num;
    }

    if (ph->str == "X") {
      const JsonValue* dur = e.Find("dur");
      if (dur == nullptr || !dur->Is(JsonValue::Type::kNumber) ||
          dur->num < 0) {
        return Status::InvalidArgument(at + ": complete event without dur");
      }
      if (name->str == "queue_wait") ++stats.queue_wait_spans;
    } else if (ph->str == "s" || ph->str == "f") {
      const JsonValue* id = e.Find("id");
      if (id == nullptr || !id->Is(JsonValue::Type::kNumber)) {
        return Status::InvalidArgument(at + ": flow event without id");
      }
      FlowHalves& half = flows[static_cast<int64_t>(id->num)];
      if (ph->str == "s") {
        ++half.begins;
        half.begin_ts = ts->num;
        ++stats.flow_begins;
      } else {
        ++half.ends;
        half.end_ts = ts->num;
        ++stats.flow_ends;
      }
    } else if (ph->str == "i") {
      if (name->str == "scale") ++stats.scale_events;
      if (name->str == "queue_wait") {
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
