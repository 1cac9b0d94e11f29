#include "bench/sweep/config.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "bench/sweep/runner.h"
#include "serve/router.h"
#include "sim/model_spec.h"
#include "workload/length_sampler.h"

namespace aptserve {
namespace sweep {

namespace {

// The matrix axes accept the human-readable names the bench binaries
// already use; validate them here so a typo fails at parse time, before
// any cell has run. Scheduler names come from the runner's factory, the
// one table of them.
bool IsKnownScheduler(const std::string& name) {
  return MakeSchedulerByName(name, SloSpec{1.0, 1.0}).ok();
}

bool IsKnownRouterPolicy(const std::string& name) {
  static const std::set<std::string> kNames = {
      "round-robin", "least-loaded", "power-of-two",
      "least-outstanding-work", "prefix-affinity"};
  return kNames.count(name) > 0;
}

bool IsKnownAdmissionMode(const std::string& name) {
  static const std::set<std::string> kNames = {"none", "reject",
                                               "deprioritize"};
  return kNames.count(name) > 0;
}

Status UnknownKey(const char* where, const std::string& key) {
  return Status::InvalidArgument(std::string("sweep config: unknown key \"") +
                                 key + "\" in " + where);
}

Status ExpectType(const char* where, const std::string& key, bool ok,
                  const char* want) {
  if (ok) return Status::OK();
  return Status::InvalidArgument(std::string("sweep config: ") + where + "." +
                                 key + " must be " + want);
}

// Applies one key of an override/base object onto `params`; strict about
// both key names and value types.
Status ApplyParamKey(const char* where, const std::string& key,
                     const json::JsonValue& v, CellParams* params) {
  const auto str = [&](std::string* out) -> Status {
    APT_RETURN_NOT_OK(ExpectType(where, key, v.is_string(), "a string"));
    *out = v.string_value();
    return Status::OK();
  };
  const auto num = [&](double* out) -> Status {
    APT_RETURN_NOT_OK(ExpectType(where, key, v.is_number(), "a number"));
    *out = v.number_value();
    return Status::OK();
  };
  const auto boolean = [&](bool* out) -> Status {
    APT_RETURN_NOT_OK(ExpectType(where, key, v.is_bool(), "a boolean"));
    *out = v.bool_value();
    return Status::OK();
  };
  const auto i32 = [&](int32_t* out) -> Status {
    APT_RETURN_NOT_OK(ExpectType(where, key, v.is_number(), "a number"));
    const double d = v.number_value();
    if (d != std::floor(d)) {
      return Status::InvalidArgument(std::string("sweep config: ") + where +
                                     "." + key + " must be an integer");
    }
    *out = static_cast<int32_t>(d);
    return Status::OK();
  };

  if (key == "workload") return str(&params->workload);
  if (key == "profile") return str(&params->profile);
  if (key == "model") return str(&params->model);
  if (key == "num_requests") return i32(&params->num_requests);
  if (key == "cv") return num(&params->cv);
  if (key == "max_total_len") return i32(&params->max_total_len);
  if (key == "slo_ttft_s") return num(&params->slo_ttft_s);
  if (key == "slo_tbt_p99_s") return num(&params->slo_tbt_p99_s);
  if (key == "n_instances") return i32(&params->n_instances);
  if (key == "num_cells") return i32(&params->num_cells);
  if (key == "elastic") return boolean(&params->elastic);
  if (key == "n_gpus") return i32(&params->n_gpus);
  if (key == "cache_encoding") return str(&params->cache_encoding);
  if (key == "block_size") return i32(&params->block_size);
  if (key == "pool_blocks") return i32(&params->pool_blocks);
  if (key == "admission_slack") return num(&params->admission_slack);
  if (key == "fan_out") return i32(&params->fan_out);
  if (key == "turns_per_conversation")
    return i32(&params->turns_per_conversation);
  if (key == "tokens_per_turn") return i32(&params->tokens_per_turn);
  if (key == "system_prompt_len") return i32(&params->system_prompt_len);
  if (key == "output_len_mean") return i32(&params->output_len_mean);
  if (key == "think_time_s") return num(&params->think_time_s);
  if (key == "preemption_mode") return str(&params->preemption_mode);
  if (key == "violation_decay") return num(&params->violation_decay);
  if (key == "prediction_quantile") return num(&params->prediction_quantile);
  return UnknownKey(where, key);
}

Status ValidateParams(const CellParams& p) {
  if (p.workload != "poisson" && p.workload != "shared-prefix" &&
      p.workload != "diurnal") {
    return Status::InvalidArgument(
        "sweep config: workload must be \"poisson\", \"shared-prefix\" or "
        "\"diurnal\", got \"" +
        p.workload + "\"");
  }
  APT_RETURN_NOT_OK(DatasetProfile::ByName(p.profile).status());
  APT_RETURN_NOT_OK(ModelSpec::ByName(p.model).status());
  if (p.n_instances < 1) {
    return Status::InvalidArgument("sweep config: n_instances must be >= 1");
  }
  // FleetController checks this with APT_CHECK, which would abort every
  // cell in flight; reject it while parsing instead.
  if (p.num_cells < 1 || p.num_cells > p.n_instances) {
    return Status::InvalidArgument(
        "sweep config: num_cells must be in [1, n_instances]");
  }
  // An elastic fleet starts at one instance, which cannot populate more
  // than one cell: the same FleetController APT_CHECK.
  if (p.elastic && p.num_cells != 1) {
    return Status::InvalidArgument(
        "sweep config: an elastic fleet needs num_cells 1");
  }
  if (p.n_gpus < 0) {
    return Status::InvalidArgument("sweep config: n_gpus must be >= 0");
  }
  APT_RETURN_NOT_OK(CacheEncodingByName(p.cache_encoding).status());
  if (p.num_requests < 1) {
    return Status::InvalidArgument("sweep config: num_requests must be >= 1");
  }
  if (p.block_size < 1) {
    return Status::InvalidArgument("sweep config: block_size must be >= 1");
  }
  if (p.preemption_mode != "recompute" && p.preemption_mode != "swap") {
    return Status::InvalidArgument(
        "sweep config: preemption_mode must be \"recompute\" or \"swap\", "
        "got \"" +
        p.preemption_mode + "\"");
  }
  if (!(p.violation_decay >= 0 && p.violation_decay <= 1)) {
    return Status::InvalidArgument(
        "sweep config: violation_decay must be in [0, 1]");
  }
  if (!(p.prediction_quantile >= 0 && p.prediction_quantile < 1)) {
    return Status::InvalidArgument(
        "sweep config: prediction_quantile must be in [0, 1)");
  }
  return Status::OK();
}

template <typename T, typename Fn>
Status ParseAxis(const json::JsonValue& matrix, const char* key,
                 std::vector<T>* out, Fn element) {
  const json::JsonValue* axis = matrix.Find(key);
  if (axis == nullptr) return Status::OK();  // keep the default
  if (!axis->is_array() || axis->items().empty()) {
    return Status::InvalidArgument(std::string("sweep config: matrix.") + key +
                                   " must be a non-empty array");
  }
  out->clear();
  for (const json::JsonValue& item : axis->items()) {
    T value{};
    APT_RETURN_NOT_OK(element(item, &value));
    out->push_back(value);
  }
  return Status::OK();
}

Status ParseMatrix(const json::JsonValue& m, SweepMatrix* matrix) {
  for (const auto& [key, value] : m.members()) {
    if (key != "schedulers" && key != "router_policies" &&
        key != "admission" && key != "prefix_sharing" && key != "seeds" &&
        key != "rates") {
      return UnknownKey("matrix", key);
    }
    (void)value;
  }
  const auto name_in = [](bool (*known)(const std::string&),
                          const char* what) {
    return [known, what](const json::JsonValue& v, std::string* out) {
      if (!v.is_string() || !known(v.string_value())) {
        return Status::InvalidArgument(
            std::string("sweep config: unknown ") + what + " \"" +
            (v.is_string() ? v.string_value() : v.Dump()) + "\"");
      }
      *out = v.string_value();
      return Status::OK();
    };
  };
  APT_RETURN_NOT_OK(ParseAxis(m, "schedulers", &matrix->schedulers,
                              name_in(IsKnownScheduler, "scheduler")));
  APT_RETURN_NOT_OK(ParseAxis(m, "router_policies", &matrix->router_policies,
                              name_in(IsKnownRouterPolicy, "router policy")));
  APT_RETURN_NOT_OK(ParseAxis(m, "admission", &matrix->admission,
                              name_in(IsKnownAdmissionMode, "admission mode")));
  APT_RETURN_NOT_OK(ParseAxis(
      m, "prefix_sharing", &matrix->prefix_sharing,
      [](const json::JsonValue& v, bool* out) {
        if (!v.is_bool()) {
          return Status::InvalidArgument(
              "sweep config: matrix.prefix_sharing entries must be booleans");
        }
        *out = v.bool_value();
        return Status::OK();
      }));
  APT_RETURN_NOT_OK(ParseAxis(
      m, "seeds", &matrix->seeds, [](const json::JsonValue& v, uint64_t* out) {
        if (!v.is_number() || v.number_value() < 0 ||
            v.number_value() != std::floor(v.number_value())) {
          return Status::InvalidArgument(
              "sweep config: matrix.seeds entries must be non-negative "
              "integers");
        }
        *out = static_cast<uint64_t>(v.number_value());
        return Status::OK();
      }));
  APT_RETURN_NOT_OK(ParseAxis(
      m, "rates", &matrix->rates, [](const json::JsonValue& v, double* out) {
        if (!v.is_number() || v.number_value() <= 0) {
          return Status::InvalidArgument(
              "sweep config: matrix.rates entries must be positive numbers");
        }
        *out = v.number_value();
        return Status::OK();
      }));
  return Status::OK();
}

// %g rendering of a rate for the run id ("1.5" / "0.25" / "12").
std::string RateSlug(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

}  // namespace

json::JsonValue CellParams::ToJson() const {
  json::JsonValue o = json::JsonValue::Object();
  o.Set("workload", json::JsonValue::String(workload));
  o.Set("profile", json::JsonValue::String(profile));
  o.Set("model", json::JsonValue::String(model));
  o.Set("num_requests", json::JsonValue::Int(num_requests));
  o.Set("cv", json::JsonValue::Number(cv));
  o.Set("max_total_len", json::JsonValue::Int(max_total_len));
  o.Set("slo_ttft_s", json::JsonValue::Number(slo_ttft_s));
  o.Set("slo_tbt_p99_s", json::JsonValue::Number(slo_tbt_p99_s));
  o.Set("n_instances", json::JsonValue::Int(n_instances));
  o.Set("num_cells", json::JsonValue::Int(num_cells));
  o.Set("elastic", json::JsonValue::Bool(elastic));
  o.Set("n_gpus", json::JsonValue::Int(n_gpus));
  o.Set("cache_encoding", json::JsonValue::String(cache_encoding));
  o.Set("block_size", json::JsonValue::Int(block_size));
  o.Set("pool_blocks", json::JsonValue::Int(pool_blocks));
  o.Set("admission_slack", json::JsonValue::Number(admission_slack));
  o.Set("fan_out", json::JsonValue::Int(fan_out));
  o.Set("turns_per_conversation", json::JsonValue::Int(turns_per_conversation));
  o.Set("tokens_per_turn", json::JsonValue::Int(tokens_per_turn));
  o.Set("system_prompt_len", json::JsonValue::Int(system_prompt_len));
  o.Set("output_len_mean", json::JsonValue::Int(output_len_mean));
  o.Set("think_time_s", json::JsonValue::Number(think_time_s));
  o.Set("preemption_mode", json::JsonValue::String(preemption_mode));
  o.Set("violation_decay", json::JsonValue::Number(violation_decay));
  o.Set("prediction_quantile", json::JsonValue::Number(prediction_quantile));
  return o;
}

json::JsonValue RunCell::Key() const {
  json::JsonValue o = json::JsonValue::Object();
  o.Set("ablation", json::JsonValue::String(ablation));
  o.Set("scheduler", json::JsonValue::String(scheduler));
  o.Set("router_policy", json::JsonValue::String(router_policy));
  o.Set("admission", json::JsonValue::String(admission));
  o.Set("prefix_sharing", json::JsonValue::Bool(prefix_sharing));
  o.Set("rate", json::JsonValue::Number(rate));
  o.Set("seed", json::JsonValue::Int(static_cast<int64_t>(seed)));
  o.Set("params", params.ToJson());
  return o;
}

std::string SanitizeSlug(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out.push_back(keep ? c : '_');
  }
  if (out.empty()) out = "_";
  return out;
}

StatusOr<CellParams> ApplyOverrides(const CellParams& base,
                                    const json::JsonValue& overrides) {
  if (!overrides.is_object()) {
    return Status::InvalidArgument(
        "sweep config: ablation overrides must be an object");
  }
  CellParams params = base;
  for (const auto& [key, value] : overrides.members()) {
    APT_RETURN_NOT_OK(ApplyParamKey("overrides", key, value, &params));
  }
  APT_RETURN_NOT_OK(ValidateParams(params));
  return params;
}

StatusOr<SweepConfig> ParseSweepConfig(const json::JsonValue& root) {
  if (!root.is_object()) {
    return Status::InvalidArgument("sweep config: document must be an object");
  }
  SweepConfig config;
  for (const auto& [key, value] : root.members()) {
    if (key == "name") {
      APT_RETURN_NOT_OK(ExpectType("config", key, value.is_string(),
                                   "a string"));
      config.name = value.string_value();
    } else if (key == "out_root") {
      APT_RETURN_NOT_OK(ExpectType("config", key, value.is_string(),
                                   "a string"));
      config.out_root = value.string_value();
    } else if (key == "jobs") {
      APT_RETURN_NOT_OK(ExpectType("config", key, value.is_number(),
                                   "a number"));
      config.jobs = static_cast<int32_t>(value.number_value());
    } else if (key == "base") {
      APT_RETURN_NOT_OK(ExpectType("config", key, value.is_object(),
                                   "an object"));
      for (const auto& [pkey, pvalue] : value.members()) {
        APT_RETURN_NOT_OK(ApplyParamKey("base", pkey, pvalue, &config.base));
      }
    } else if (key == "matrix") {
      APT_RETURN_NOT_OK(ExpectType("config", key, value.is_object(),
                                   "an object"));
      APT_RETURN_NOT_OK(ParseMatrix(value, &config.matrix));
    } else if (key == "ablations") {
      APT_RETURN_NOT_OK(ExpectType("config", key, value.is_array(),
                                   "an array"));
      for (const json::JsonValue& entry : value.items()) {
        if (!entry.is_object()) {
          return Status::InvalidArgument(
              "sweep config: ablations entries must be objects");
        }
        Ablation ablation;
        ablation.overrides = json::JsonValue::Object();
        for (const auto& [akey, avalue] : entry.members()) {
          if (akey == "name") {
            APT_RETURN_NOT_OK(ExpectType("ablation", akey, avalue.is_string(),
                                         "a string"));
            ablation.name = avalue.string_value();
          } else if (akey == "overrides") {
            APT_RETURN_NOT_OK(ExpectType("ablation", akey, avalue.is_object(),
                                         "an object"));
            ablation.overrides = avalue;
          } else {
            return UnknownKey("ablation", akey);
          }
        }
        if (ablation.name.empty()) {
          return Status::InvalidArgument(
              "sweep config: every ablation needs a non-empty name");
        }
        config.ablations.push_back(std::move(ablation));
      }
    } else {
      return UnknownKey("config", key);
    }
  }
  if (config.name.empty() || config.out_root.empty()) {
    return Status::InvalidArgument(
        "sweep config: name and out_root must be non-empty");
  }
  if (config.jobs < 1) {
    return Status::InvalidArgument("sweep config: jobs must be >= 1");
  }
  APT_RETURN_NOT_OK(ValidateParams(config.base));
  if (config.ablations.empty()) {
    Ablation baseline;
    baseline.name = "baseline";
    baseline.overrides = json::JsonValue::Object();
    config.ablations.push_back(std::move(baseline));
  }
  // Every ablation must resolve cleanly against the base before any cell
  // runs (ApplyOverrides revalidates, so a bad override fails here).
  for (const Ablation& ablation : config.ablations) {
    APT_RETURN_NOT_OK(
        ApplyOverrides(config.base, ablation.overrides).status());
  }
  return config;
}

StatusOr<SweepConfig> LoadSweepConfigFile(const std::string& path) {
  APT_ASSIGN_OR_RETURN(json::JsonValue root, json::ParseJsonFile(path));
  auto config = ParseSweepConfig(root);
  if (!config.ok()) {
    return Status(config.status().code(),
                  path + ": " + config.status().message());
  }
  return config;
}

StatusOr<std::vector<RunCell>> ExpandMatrix(const SweepConfig& config) {
  // Programmatically-built configs may leave ablations empty; behave like
  // the parser and expand a single no-override baseline.
  std::vector<Ablation> ablations = config.ablations;
  if (ablations.empty()) {
    Ablation baseline;
    baseline.name = "baseline";
    baseline.overrides = json::JsonValue::Object();
    ablations.push_back(std::move(baseline));
  }
  std::vector<RunCell> cells;
  std::set<std::string> seen_ids;
  for (const Ablation& ablation : ablations) {
    APT_ASSIGN_OR_RETURN(CellParams params,
                         ApplyOverrides(config.base, ablation.overrides));
    for (const std::string& scheduler : config.matrix.schedulers) {
      for (const std::string& policy : config.matrix.router_policies) {
        for (const std::string& admission : config.matrix.admission) {
          for (const bool sharing : config.matrix.prefix_sharing) {
            for (const double rate : config.matrix.rates) {
              for (const uint64_t seed : config.matrix.seeds) {
                RunCell cell;
                cell.ablation = ablation.name;
                cell.scheduler = scheduler;
                cell.router_policy = policy;
                cell.admission = admission;
                cell.prefix_sharing = sharing;
                cell.rate = rate;
                cell.seed = seed;
                cell.params = params;
                cell.run_id = SanitizeSlug(
                    ablation.name + "__" + scheduler + "__" + policy +
                    "__adm-" + admission + "__px-" + (sharing ? "on" : "off") +
                    "__r" + RateSlug(rate) + "__s" + std::to_string(seed));
                if (!seen_ids.insert(cell.run_id).second) {
                  return Status::InvalidArgument(
                      "sweep config: duplicate run id \"" + cell.run_id +
                      "\" (ablation names must be unique after "
                      "sanitization)");
                }
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace sweep
}  // namespace aptserve
