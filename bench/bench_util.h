// Shared harness for the per-figure/table reproduction benches: a
// single-run wrapper over the sweep's scheduler factory and machine-readable
// JSON result emission (one BENCH_<name>.json per bench). The paper's
// rate-grid figures are sweep configs (bench/experiments/paper_*.json).
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "bench/sweep/runner.h"
#include "common/json.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace bench {

// ---- Machine-readable results ---------------------------------------------
// Every RunOnce/RunOnceFull call is recorded automatically; benches with
// custom drivers add entries by hand. At process exit the collected rows
// are written as JSON to $APTSERVE_BENCH_JSON_DIR (default: the working
// directory) as BENCH_<name>.json, <name> defaulting to the executable
// name. Schema:
//   { "bench": "...", "config": {k: v, ...},
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
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"config\": "
        << config_.Render() << ",\n  \"entries\": [";
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

/// Records one simulated run (offered load, config, attainment and latency
/// percentiles) into the bench's JSON sink.
inline void RecordReport(const std::string& scheduler, double rate, double cv,
                         int32_t num_requests, const std::string& profile,
                         const std::string& model, double slo_ttft_s,
                         double slo_tbt_p99_s, const SloReport& r) {
  JsonObject e;
  e.Str("scheduler", scheduler)
      .Num("rate_per_sec", rate)
      .Num("cv", cv)
      .Int("num_requests", num_requests)
      .Str("profile", profile)
      .Str("model", model)
      .Num("slo_ttft_s", slo_ttft_s)
      .Num("slo_tbt_p99_s", slo_tbt_p99_s)
      .Num("slo_attainment", r.slo_attainment)
      .Num("ttft_attainment", r.ttft_attainment)
      .Num("tbt_attainment", r.tbt_attainment)
      .Num("mean_ttft_s", r.mean_ttft)
      .Num("p99_ttft_s", r.p99_ttft)
      .Num("total_serving_time_s", r.total_serving_time)
      .Num("requests_per_sec",
           r.total_serving_time > 0 ? num_requests / r.total_serving_time
                                    : 0.0)
      .Int("iterations", r.iterations)
      .Num("mean_batch_size", r.mean_batch_size)
      .Num("batch_limit_time_ratio", r.batch_limit_time_ratio)
      .Int("preemptions", r.preemptions)
      .Int("conversions", r.conversions);
  BenchJson::Instance().AddEntry(std::move(e));
}

struct RunSpec {
  DatasetProfile profile = DatasetProfile::ShareGpt();
  ModelSpec model = ModelSpec::Opt13B();
  double rate = 1.0;
  double cv = 1.0;
  int32_t num_requests = 500;
  uint64_t seed = 2025;
  SloSpec slo{1.0, 1.0};
  int32_t max_total_len = 2048;
};

/// Full simulation result (for benches that need more than the report):
/// one ServingLoop over a default-configured CostModelBackend.
inline ServingLoopResult RunOnceFull(const RunSpec& spec,
                                     const std::string& scheduler) {
  TraceConfig tc;
  tc.profile = spec.profile;
  tc.num_requests = spec.num_requests;
  tc.rate_per_sec = spec.rate;
  tc.cv = spec.cv;
  tc.seed = spec.seed;
  tc.max_total_len = spec.max_total_len;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    std::abort();
  }
  CostModel cm(spec.model, ClusterSpec::ForModel(spec.model));
  auto result = [&]() -> StatusOr<ServingLoopResult> {
    APT_ASSIGN_OR_RETURN(auto sched,
                         sweep::MakeSchedulerByName(scheduler, spec.slo));
    APT_ASSIGN_OR_RETURN(auto backend, CostModelBackend::Create(cm, {}));
    return ServingLoop(backend.get(), ServingLoopConfig{})
        .Run(*trace, sched.get(), spec.slo);
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "sim(%s): %s\n", scheduler.c_str(),
                 result.status().ToString().c_str());
    std::abort();
  }
  RecordReport(scheduler, spec.rate, spec.cv, spec.num_requests,
               spec.profile.name, spec.model.name, spec.slo.ttft_s,
               spec.slo.tbt_p99_s, result->report);
  return std::move(*result);
}

inline SloReport RunOnce(const RunSpec& spec, const std::string& scheduler) {
  return RunOnceFull(spec, scheduler).report;
}

}  // namespace bench
}  // namespace aptserve
