#include "bench/sweep/collect.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "bench/sweep/fs_util.h"
#include "sim/report_writer.h"

namespace aptserve {
namespace sweep {

namespace {

// CSV cell rendering matching report_writer's conventions: %.10g numbers,
// raw strings (run ids and axis names are sanitized slugs, never quoted).
void Number(std::ostream* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  *out << buf;
}

}  // namespace

StatusOr<std::vector<CollectedRun>> CollectRuns(const std::string& exp_dir) {
  const std::string runs_dir = exp_dir + "/runs";
  APT_ASSIGN_OR_RETURN(std::vector<std::string> names, ListSubdirs(runs_dir));
  std::vector<CollectedRun> runs;
  runs.reserve(names.size());
  for (const std::string& name : names) {
    const std::string run_dir = runs_dir + "/" + name;
    auto meta = json::ParseJsonFile(run_dir + "/meta.json");
    auto result = json::ParseJsonFile(run_dir + "/result.json");
    const json::JsonValue* cell = meta.ok() ? meta->Find("cell") : nullptr;
    if (!meta.ok() || !result.ok() || cell == nullptr) {
      std::fprintf(stderr, "[collect] skipping %s (incomplete run)\n",
                   run_dir.c_str());
      continue;
    }
    CollectedRun run;
    run.run_id = name;
    run.cell = *cell;
    run.result = std::move(*result);
    runs.push_back(std::move(run));
  }
  return runs;
}

const char* RunsCsvHeader() {
  return "run_id,ablation,scheduler,router_policy,admission,prefix_sharing,"
         "workload,profile,model,n_instances,num_cells,rate,seed,requests,"
         "slo_attainment,ttft_attainment,tbt_attainment,goodput_rps,"
         "mean_ttft_s,p99_ttft_s,total_serving_time_s,iterations,"
         "mean_batch_size,batch_limit_time_ratio,preemptions,conversions,"
         "rejected,deprioritized,"
         "prefill_tokens_computed,prefill_tokens_skipped,prefix_hits,"
         "prefix_matched_tokens,tokens_generated,route_probe_count,"
         "ttft_p50_s,max_ttft_s,p99_tbt_p50_s,p99_tbt_p99_s,"
         "ttft_violation_run_max,pool_blocks,peak_blocks,swap_ins,"
         "instance_seconds,peak_instances,cold_starts,scale_events,"
         "migrations,migrations_with_cache,migration_deduped_tokens,"
         "migration_copied_tokens,migration_bytes,migration_seconds";
}

void WriteRunsCsv(const std::vector<CollectedRun>& runs, std::ostream* out) {
  *out << RunsCsvHeader() << "\n";
  for (const CollectedRun& run : runs) {
    const json::JsonValue& cell = run.cell;
    const json::JsonValue& result = run.result;
    const json::JsonValue params =
        cell.Find("params") != nullptr ? *cell.Find("params")
                                       : json::JsonValue::Object();
    *out << run.run_id << ',' << cell.GetString("ablation", "") << ','
         << cell.GetString("scheduler", "") << ','
         << cell.GetString("router_policy", "") << ','
         << cell.GetString("admission", "") << ','
         << (cell.GetBool("prefix_sharing", false) ? 1 : 0) << ','
         << params.GetString("workload", "") << ','
         << params.GetString("profile", "") << ','
         << params.GetString("model", "") << ','
         << params.GetInt("n_instances", 0) << ','
         << params.GetInt("num_cells", 1) << ',';
    Number(out, cell.GetNumber("rate", 0.0));
    *out << ',' << cell.GetInt("seed", 0) << ','
         << result.GetInt("requests", 0) << ',';
    Number(out, result.GetNumber("slo_attainment", 0.0));
    *out << ',';
    Number(out, result.GetNumber("ttft_attainment", 0.0));
    *out << ',';
    Number(out, result.GetNumber("tbt_attainment", 0.0));
    *out << ',';
    Number(out, result.GetNumber("goodput_rps", 0.0));
    *out << ',';
    Number(out, result.GetNumber("mean_ttft_s", 0.0));
    *out << ',';
    Number(out, result.GetNumber("p99_ttft_s", 0.0));
    *out << ',';
    Number(out, result.GetNumber("total_serving_time_s", 0.0));
    *out << ',' << result.GetInt("iterations", 0) << ',';
    Number(out, result.GetNumber("mean_batch_size", 0.0));
    *out << ',';
    Number(out, result.GetNumber("batch_limit_time_ratio", 0.0));
    *out << ',' << result.GetInt("preemptions", 0) << ','
         << result.GetInt("conversions", 0) << ','
         << result.GetInt("rejected", 0) << ','
         << result.GetInt("deprioritized", 0) << ','
         << result.GetInt("prefill_tokens_computed", 0) << ','
         << result.GetInt("prefill_tokens_skipped", 0) << ','
         << result.GetInt("prefix_hits", 0) << ','
         << result.GetInt("prefix_matched_tokens", 0) << ','
         << result.GetInt("tokens_generated", 0) << ','
         << result.GetInt("route_probe_count", 0);
    for (const char* key :
         {"ttft_p50_s", "max_ttft_s", "p99_tbt_p50_s", "p99_tbt_p99_s"}) {
      *out << ',';
      Number(out, result.GetNumber(key, 0.0));
    }
    *out << ',' << result.GetInt("ttft_violation_run_max", 0) << ','
         << result.GetInt("pool_blocks", 0) << ','
         << result.GetInt("peak_blocks", 0) << ','
         << result.GetInt("swap_ins", 0) << ',';
    Number(out, result.GetNumber("instance_seconds", 0.0));
    for (const char* key :
         {"peak_instances", "cold_starts", "scale_events", "migrations",
          "migrations_with_cache", "migration_deduped_tokens",
          "migration_copied_tokens"}) {
      *out << ',' << result.GetInt(key, 0);
    }
    for (const char* key : {"migration_bytes", "migration_seconds"}) {
      *out << ',';
      Number(out, result.GetNumber(key, 0.0));
    }
    *out << "\n";
  }
}

double HighestPassingRate(const std::vector<double>& rates,
                          const std::function<bool(double)>& passes) {
  double best = 0.0;
  for (double rate : rates) {
    if (passes(rate)) best = std::max(best, rate);
  }
  return best;
}

void WriteEffectiveCsv(const std::vector<CollectedRun>& runs,
                       std::ostream* out) {
  // (ablation, scheduler, router_policy, admission, prefix_sharing, seed)
  // -> rate -> slo_attainment.
  using SeriesKey = std::tuple<std::string, std::string, std::string,
                               std::string, bool, int64_t>;
  std::map<SeriesKey, std::map<double, double>> series;
  for (const CollectedRun& run : runs) {
    const json::JsonValue& cell = run.cell;
    const SeriesKey key{cell.GetString("ablation", ""),
                        cell.GetString("scheduler", ""),
                        cell.GetString("router_policy", ""),
                        cell.GetString("admission", ""),
                        cell.GetBool("prefix_sharing", false),
                        cell.GetInt("seed", 0)};
    series[key][cell.GetNumber("rate", 0.0)] =
        run.result.GetNumber("slo_attainment", 0.0);
  }
  *out << "ablation,scheduler,router_policy,admission,prefix_sharing,seed,"
          "effective_rate_90,effective_rate_60\n";
  for (const auto& [key, attainment] : series) {
    std::vector<double> rates;
    for (const auto& [rate, slo] : attainment) rates.push_back(rate);
    *out << std::get<0>(key) << ',' << std::get<1>(key) << ','
         << std::get<2>(key) << ',' << std::get<3>(key) << ','
         << (std::get<4>(key) ? 1 : 0) << ',' << std::get<5>(key);
    // The paper's fixed attainment thresholds.
    for (const double threshold : {0.9, 0.6}) {
      *out << ',';
      Number(out, HighestPassingRate(rates, [&](double rate) {
               return attainment.at(rate) >= threshold;
             }));
    }
    *out << "\n";
  }
}

StatusOr<std::vector<CollectedRun>> CollectAndWriteCsv(
    const std::string& exp_dir) {
  APT_ASSIGN_OR_RETURN(std::vector<CollectedRun> runs, CollectRuns(exp_dir));
  const std::string aggregate = exp_dir + "/aggregate";
  APT_RETURN_NOT_OK(MakeDirs(aggregate));
  APT_RETURN_NOT_OK(WriteFile(aggregate + "/runs.csv",
                              [&runs](std::ostream* out) {
                                WriteRunsCsv(runs, out);
                              }));
  APT_RETURN_NOT_OK(WriteFile(aggregate + "/effective.csv",
                              [&runs](std::ostream* out) {
                                WriteEffectiveCsv(runs, out);
                              }));
  return runs;
}

}  // namespace sweep
}  // namespace aptserve
