// Machine-readable results for the bench programs: one BENCH_<name>.json
// per program. The paper's figures and tables that are serving runs on the
// cost model are sweep configs (bench/experiments/*.json) instead.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "runtime/runtime_config.h"

namespace aptserve {
namespace bench {

// Benches add entries by hand. At process exit the collected rows are
// written as JSON to $APTSERVE_BENCH_JSON_DIR (default: the working
// directory) as BENCH_<name>.json, <name> defaulting to the executable
// name. The config ends with the host's stamp (the default runtime's
// threads, ISA and vector width, and the hardware thread count), so a
// snapshot says where it was measured. Schema:
//   { "bench": "...",
//     "config": {k: v, ..., "runtime": "...", "hardware_concurrency": n},
//     "entries": [ {k: v, ...}, ... ] }

/// One JSON object rendered as an ordered list of pre-encoded key/value
/// pairs (numbers raw, strings quoted).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      // JSON has no NaN/Inf literal; null keeps the file parseable.
      fields_.emplace_back(key, "null");
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonObject& Bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + json::EscapeJsonString(value) + "\"");
    return *this;
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      // Keys pass through the same escaper as string values: sweep-driven
      // benches stamp arbitrary ablation names into config keys, and one
      // quote in a key must not make the whole snapshot unparseable.
      out += "\"" + json::EscapeJsonString(fields_[i].first) + "\": " +
             fields_[i].second;
    }
    out += "}";
    return out;
  }
  bool empty() const { return fields_.empty(); }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Process-wide result sink; flushed to BENCH_<name>.json at exit.
class BenchJson {
 public:
  static BenchJson& Instance() {
    static BenchJson instance;
    return instance;
  }

  /// Overrides the file stem (default: the executable name).
  void SetName(const std::string& name) { name_ = name; }
  JsonObject& config() { return config_; }
  void AddEntry(JsonObject entry) { entries_.push_back(std::move(entry)); }

  void Write() {
    if (entries_.empty() || written_) return;
    const char* dir = std::getenv("APTSERVE_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir ? dir : ".") + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) return;  // result emission must never fail a bench
    JsonObject config = config_;
    config.Str("runtime", RuntimeConfig{}.Describe())
        .Int("hardware_concurrency", std::thread::hardware_concurrency());
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"config\": "
        << config.Render() << ",\n  \"entries\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out << (i > 0 ? ",\n    " : "\n    ") << entries_[i].Render();
    }
    out << "\n  ]\n}\n";
    written_ = true;
    std::fprintf(stderr, "[bench_json] wrote %s (%zu entries)\n",
                 path.c_str(), entries_.size());
  }

  ~BenchJson() { Write(); }

 private:
  BenchJson() : name_(ExecutableName()) {}

  static std::string ExecutableName() {
    // argv[0] from /proc (not truncated like /proc/self/comm).
    std::ifstream cmdline("/proc/self/cmdline");
    std::string argv0;
    if (cmdline && std::getline(cmdline, argv0, '\0') && !argv0.empty()) {
      const size_t slash = argv0.find_last_of('/');
      return slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
    }
    return "bench";
  }

  std::string name_;
  JsonObject config_;
  std::vector<JsonObject> entries_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace aptserve
