#include "bench/sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "baselines/fcfs_scheduler.h"
#include "baselines/random_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "bench/sweep/fs_util.h"
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "runtime/runtime_config.h"
#include "runtime/thread_pool.h"
#include "serve/cost_model_backend.h"
#include "serve/router.h"
#include "sim/cluster_spec.h"
#include "sim/cost_model.h"
#include "sim/model_spec.h"
#include "sim/report_writer.h"
#include "workload/arrival.h"
#include "workload/length_sampler.h"
#include "workload/shared_prefix.h"
#include "workload/trace.h"

namespace aptserve {
namespace sweep {

namespace {

StatusOr<RoutePolicy> ParseRoutePolicy(const std::string& name) {
  if (name == "round-robin") return RoutePolicy::kRoundRobin;
  if (name == "least-loaded") return RoutePolicy::kLeastLoaded;
  if (name == "power-of-two") return RoutePolicy::kPowerOfTwo;
  if (name == "least-outstanding-work")
    return RoutePolicy::kLeastOutstandingWork;
  if (name == "prefix-affinity") return RoutePolicy::kPrefixAffinity;
  return Status::InvalidArgument("unknown router policy: " + name);
}

StatusOr<AdmissionMode> ParseAdmissionMode(const std::string& name) {
  if (name == "none") return AdmissionMode::kNone;
  if (name == "reject") return AdmissionMode::kReject;
  if (name == "deprioritize") return AdmissionMode::kDeprioritize;
  return Status::InvalidArgument("unknown admission mode: " + name);
}

// Events kept per trace shard (one shard per instance) before the ring
// overwrites the oldest: enough for every event of a committed config. A
// cell whose trace overflows a shard fails rather than write a truncated
// trace.
constexpr size_t kTraceShardCapacity = size_t{1} << 18;

SloSpec CellSlo(const CellParams& params) {
  return SloSpec{params.slo_ttft_s, params.slo_tbt_p99_s};
}

/// Diurnal arrivals, then each request's input and output length, all
/// from one Rng(seed); lengths are capped like BuildTrace's.
StatusOr<std::vector<Request>> BuildDiurnalTrace(const RunCell& cell,
                                                 const DatasetProfile& lengths) {
  Rng rng(cell.seed);
  // A 600 s day peaking at the cell's rate with a trough at an eighth of
  // it, plus one flash crowd on the evening shoulder.
  DiurnalProfile day;
  day.base_rate = cell.rate / 8;
  day.peak_rate = cell.rate;
  day.period_s = 600.0;
  FlashCrowd crowd;
  crowd.start_s = 380.0;
  crowd.duration_s = 40.0;
  crowd.multiplier = 1.6;
  const int32_t n = cell.params.num_requests;
  const int32_t max_len = cell.params.max_total_len;
  APT_ASSIGN_OR_RETURN(std::vector<TimePoint> arrivals,
                       DiurnalArrivals(day, {crowd}, cell.params.cv, n, &rng));
  std::vector<Request> trace;
  trace.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival = arrivals[i];
    r.prompt_len = std::min(lengths.input.Sample(&rng), max_len - 1);
    r.output_len = std::max(
        1, std::min(lengths.output.Sample(&rng), max_len - r.prompt_len));
    trace.push_back(r);
  }
  return trace;
}

StatusOr<std::vector<Request>> BuildCellTrace(const RunCell& cell) {
  if (cell.params.workload != "shared-prefix") {
    APT_ASSIGN_OR_RETURN(DatasetProfile profile,
                         DatasetProfile::ByName(cell.params.profile));
    if (cell.params.workload == "diurnal") {
      return BuildDiurnalTrace(cell, profile);
    }
    TraceConfig tc;
    tc.profile = profile;
    tc.num_requests = cell.params.num_requests;
    tc.rate_per_sec = cell.rate;
    tc.cv = cell.params.cv;
    tc.seed = cell.seed;
    tc.max_total_len = cell.params.max_total_len;
    return BuildTrace(tc);
  }
  // shared-prefix: the rate axis is conversation starts per second.
  SharedPrefixConfig sp;
  sp.system_prompt_len = cell.params.system_prompt_len;
  sp.num_conversations = cell.params.fan_out;
  sp.turns_per_conversation = cell.params.turns_per_conversation;
  sp.tokens_per_turn = cell.params.tokens_per_turn;
  sp.output_len_mean = cell.params.output_len_mean;
  sp.think_time_s = cell.params.think_time_s;
  sp.conversation_stagger_s = 1.0 / cell.rate;
  sp.seed = cell.seed;
  return BuildSharedPrefixTrace(sp);
}

json::JsonValue CdfJson(const SampleSet& samples, size_t max_points) {
  json::JsonValue arr = json::JsonValue::Array();
  for (const auto& [value, fraction] : samples.Cdf(max_points)) {
    json::JsonValue point = json::JsonValue::Array();
    point.Append(json::JsonValue::Number(value));
    point.Append(json::JsonValue::Number(fraction));
    arr.Append(std::move(point));
  }
  return arr;
}

/// Fig. 4's convoy: the longest run of consecutive TTFT misses in request
/// id (arrival) order.
int64_t LongestTtftViolationRun(
    const std::unordered_map<RequestId, RequestRecord>& records,
    const SloSpec& slo) {
  std::vector<const RequestRecord*> rows;
  rows.reserve(records.size());
  for (const auto& [id, rec] : records) rows.push_back(&rec);
  std::sort(rows.begin(), rows.end(),
            [](const RequestRecord* a, const RequestRecord* b) {
              return a->spec.id < b->spec.id;
            });
  int64_t longest = 0, current = 0;
  for (const RequestRecord* rec : rows) {
    current = rec->MeetsTtft(slo) ? 0 : current + 1;
    longest = std::max(longest, current);
  }
  return longest;
}

json::JsonValue ResultJson(const RunCell& cell, const CellRun& run) {
  const MultiInstanceResult& r = run.fleet;
  const SloReport& c = r.combined;
  json::JsonValue o = json::JsonValue::Object();
  o.Set("requests", json::JsonValue::Int(run.requests));
  o.Set("slo_attainment", json::JsonValue::Number(c.slo_attainment));
  o.Set("ttft_attainment", json::JsonValue::Number(c.ttft_attainment));
  o.Set("tbt_attainment", json::JsonValue::Number(c.tbt_attainment));
  o.Set("goodput_rps", json::JsonValue::Number(c.goodput_rps));
  o.Set("mean_ttft_s", json::JsonValue::Number(c.mean_ttft));
  o.Set("p99_ttft_s", json::JsonValue::Number(c.p99_ttft));
  o.Set("jain_fairness_ttft", json::JsonValue::Number(c.jain_fairness_ttft));
  o.Set("total_serving_time_s",
        json::JsonValue::Number(c.total_serving_time));
  o.Set("iterations", json::JsonValue::Int(c.iterations));
  o.Set("mean_batch_size", json::JsonValue::Number(c.mean_batch_size));
  o.Set("batch_limit_time_ratio",
        json::JsonValue::Number(c.batch_limit_time_ratio));
  o.Set("preemptions", json::JsonValue::Int(c.preemptions));
  o.Set("conversions", json::JsonValue::Int(c.conversions));
  o.Set("rejected", json::JsonValue::Int(r.rejected_requests));
  o.Set("deprioritized", json::JsonValue::Int(r.deprioritized_requests));
  o.Set("prefill_tokens_computed",
        json::JsonValue::Int(r.prefill_tokens_computed));
  o.Set("prefill_tokens_skipped",
        json::JsonValue::Int(r.prefill_tokens_skipped));
  o.Set("prefix_hits", json::JsonValue::Int(r.prefix.hits));
  o.Set("prefix_matched_tokens",
        json::JsonValue::Int(r.prefix.matched_tokens));
  o.Set("tokens_generated", json::JsonValue::Int(r.tokens_generated));
  // Routing decision-cost accounting (deterministic counters; the
  // route_probe_count column in runs.csv is the regression watchdog).
  o.Set("route_probe_count",
        json::JsonValue::Int(r.route_cost.instance_probes +
                             r.route_cost.mirror_nodes_walked +
                             r.route_cost.cell_probes));
  o.Set("route_decisions", json::JsonValue::Int(r.route_cost.decisions));
  o.Set("route_mirror_nodes_peak",
        json::JsonValue::Int(r.route_cost.mirror_node_peak));
  o.Set("route_mirror_evictions",
        json::JsonValue::Int(r.route_cost.mirror_evictions));
  json::JsonValue per_instance = json::JsonValue::Array();
  for (const int32_t n : r.requests_per_instance) {
    per_instance.Append(json::JsonValue::Int(n));
  }
  o.Set("requests_per_instance", std::move(per_instance));
  // Latency distribution summaries (Figs. 4 and 10).
  o.Set("ttft_p50_s", json::JsonValue::Number(c.ttfts.Quantile(0.5)));
  o.Set("max_ttft_s", json::JsonValue::Number(c.ttfts.Max()));
  o.Set("p99_tbt_p50_s", json::JsonValue::Number(c.p99_tbts.Quantile(0.5)));
  o.Set("p99_tbt_p99_s", json::JsonValue::Number(c.p99_tbts.P99()));
  o.Set("ttft_violation_run_max",
        json::JsonValue::Int(
            LongestTtftViolationRun(run.records, CellSlo(cell.params))));
  o.Set("pool_blocks", json::JsonValue::Int(run.pool_blocks));
  o.Set("peak_blocks", json::JsonValue::Int(run.peak_blocks));
  o.Set("swap_ins", json::JsonValue::Int(run.swap_ins));
  const FleetMetrics& fm = run.fleet_metrics;
  o.Set("instance_seconds", json::JsonValue::Number(fm.instance_seconds));
  o.Set("peak_instances", json::JsonValue::Int(fm.peak_instances));
  o.Set("cold_starts", json::JsonValue::Int(fm.cold_starts));
  o.Set("scale_events", json::JsonValue::Int(
                            static_cast<int64_t>(fm.scale_events.size())));
  o.Set("migrations", json::JsonValue::Int(fm.migrations));
  o.Set("migrations_with_cache",
        json::JsonValue::Int(fm.migrations_with_cache));
  o.Set("migration_deduped_tokens",
        json::JsonValue::Int(fm.migration_deduped_tokens));
  o.Set("migration_copied_tokens",
        json::JsonValue::Int(fm.migration_copied_tokens));
  o.Set("migration_bytes", json::JsonValue::Number(fm.migration_bytes));
  o.Set("migration_seconds", json::JsonValue::Number(fm.migration_seconds));
  // Bounded-size CDF for the report's TTFT plot (seconds, cum. fraction).
  o.Set("ttft_cdf", CdfJson(c.ttfts, 64));
  return o;
}

json::JsonValue MetaJson(const RunCell& cell) {
  json::JsonValue env = json::JsonValue::Object();
  env.Set("runtime", json::JsonValue::String(RuntimeConfig{}.Describe()));
  env.Set("harness_version", json::JsonValue::Int(1));
  json::JsonValue meta = json::JsonValue::Object();
  meta.Set("cell", cell.Key());
  meta.Set("environment", std::move(env));
  return meta;
}

/// True iff the cell already ran to completion with exactly this resolved
/// config: meta.json's "cell" subtree equals Key() (order-insensitive
/// object equality) and result.json parses. The environment stamp is
/// deliberately excluded — rerunning on another host must not invalidate
/// finished cells.
bool CellIsCurrent(const RunCell& cell, const std::string& run_dir) {
  auto meta = json::ParseJsonFile(run_dir + "/meta.json");
  if (!meta.ok()) return false;
  const json::JsonValue* recorded = meta->Find("cell");
  if (recorded == nullptr || !(*recorded == cell.Key())) return false;
  return json::ParseJsonFile(run_dir + "/result.json").ok();
}

Status WriteJsonFile(const std::string& path, const json::JsonValue& value) {
  return WriteFile(path, [&value](std::ostream* out) {
    *out << value.Dump(2) << "\n";
  });
}

/// --trace: trace.json, written only once the recorder kept every event
/// and CheckTraceEvents accepts them, and metrics.prom.
Status WriteCellTrace(obs::TraceRecorder* recorder, const CellRun& run,
                      const std::string& run_dir) {
  if (const uint64_t dropped = recorder->TotalDropped(); dropped > 0) {
    return Status::FailedPrecondition(
        "trace ring overflow: " + std::to_string(dropped) + " of " +
        std::to_string(recorder->TotalEmitted()) +
        " events dropped (a shard keeps " +
        std::to_string(kTraceShardCapacity) + ")");
  }
  std::vector<obs::TraceEvent> events = recorder->Flush();
  APT_RETURN_NOT_OK(obs::CheckTraceEvents(events).status());
  APT_RETURN_NOT_OK(
      WriteFile(run_dir + "/trace.json", [&events](std::ostream* out) {
        obs::ExportChromeTrace(std::move(events), *out);
      }));
  return WriteFile(run_dir + "/metrics.prom", [&run](std::ostream* out) {
    *out << run.metrics_prom;
  });
}

}  // namespace

StatusOr<std::unique_ptr<Scheduler>> MakeSchedulerByName(
    const std::string& kind, const SloSpec& slo, double violation_decay,
    double prediction_quantile) {
  if (kind == "vLLM") return std::unique_ptr<Scheduler>(
      std::make_unique<FcfsScheduler>());
  if (kind == "Random")
    return std::unique_ptr<Scheduler>(std::make_unique<RandomScheduler>());
  if (kind == "Sarathi")
    return std::unique_ptr<Scheduler>(std::make_unique<SarathiScheduler>());
  if (kind == "FastGen") {
    return std::unique_ptr<Scheduler>(
        std::make_unique<SarathiScheduler>(SarathiConfig::FastGen()));
  }
  if (kind == "FCFS-hybrid") {
    FcfsConfig c;
    c.allow_hidden_fallback = true;
    return std::unique_ptr<Scheduler>(std::make_unique<FcfsScheduler>(c));
  }
  if (kind == "Apt" || kind == "Apt-KVonly") {
    AptConfig c;
    c.slo = slo;
    c.violation_decay = violation_decay;
    c.prediction_quantile = prediction_quantile;
    c.enable_hidden = kind == "Apt";
    return std::unique_ptr<Scheduler>(std::make_unique<AptScheduler>(c));
  }
  if (kind == "Apt-S") {
    AptSarathiConfig c;
    c.slo = slo;
    c.violation_decay = violation_decay;
    return std::unique_ptr<Scheduler>(
        std::make_unique<AptSarathiScheduler>(c));
  }
  return Status::InvalidArgument("unknown scheduler kind: " + kind);
}

StatusOr<CacheEncodingPolicy> CacheEncodingByName(const std::string& name) {
  CacheEncodingPolicy policy;
  if (name == "fp32") return policy;
  if (name == "int8-transit") {
    policy.quantize_migration_payload = true;
    return policy;
  }
  if (name == "all-int8") {
    policy.kv = BlockEncoding::kInt8;
    policy.hidden = BlockEncoding::kInt8;
    return policy;
  }
  return Status::InvalidArgument("unknown cache encoding: " + name);
}

StatusOr<CellRun> ExecuteCell(const RunCell& cell,
                              obs::TraceRecorder* trace_recorder) {
  APT_ASSIGN_OR_RETURN(std::vector<Request> trace, BuildCellTrace(cell));
  APT_ASSIGN_OR_RETURN(ModelSpec model, ModelSpec::ByName(cell.params.model));
  ClusterSpec cluster = ClusterSpec::ForModel(model);
  if (cell.params.n_gpus > 0) cluster.n_gpus = cell.params.n_gpus;
  const CostModel cost_model(model, cluster);
  const SloSpec slo = CellSlo(cell.params);

  FleetConfig fc;
  fc.router.n_instances = cell.params.n_instances;
  APT_ASSIGN_OR_RETURN(fc.router.policy, ParseRoutePolicy(cell.router_policy));
  APT_ASSIGN_OR_RETURN(fc.router.admission,
                       ParseAdmissionMode(cell.admission));
  fc.router.admission_slack = cell.params.admission_slack;
  fc.router.block_size = cell.params.block_size;
  fc.router.default_slo = slo;
  fc.loop.preemption_mode = cell.params.preemption_mode == "swap"
                                ? PreemptionMode::kSwap
                                : PreemptionMode::kRecompute;
  // Each cell runs its fleet serially: sweep-level parallelism comes from
  // running many cells at once, and nested pools would oversubscribe.
  fc.runtime.num_threads = 1;
  fc.cells.num_cells = cell.params.num_cells;
  if (cell.params.elastic) {
    // The one elastic policy: start at one instance, grow quickly on
    // queue depth, utilization or the SLO guard, shrink slowly, and
    // migrate queued requests off draining and hot instances.
    fc.router.n_instances = 1;
    fc.min_instances = 1;
    fc.max_instances = cell.params.n_instances;
    fc.tick_interval_s = 2.0;
    fc.instance_warmup_s = 5.0;
    fc.scale_up_cooldown_s = 4.0;
    fc.scale_down_cooldown_s = 45.0;
    fc.scaling = {ScalingRule::QueueDepth(/*high=*/1.0, /*low=*/0.1),
                  ScalingRule::TargetUtilization(/*high=*/0.75, /*low=*/0.30),
                  ScalingRule::SloAttainmentGuard(/*floor=*/0.97,
                                                  /*window_s=*/40.0)};
    fc.enable_migration = true;
    fc.migration_imbalance_threshold = 4.0;
    fc.max_migrations_per_tick = 16;
  }
  obs::MetricsRegistry metrics;
  fc.metrics = &metrics;
  fc.trace = trace_recorder;

  // Validate the scheduler name once up front; the per-instance factory
  // then can't fail (SchedulerFactory has no error channel).
  const std::string kind = cell.scheduler;
  const double decay = cell.params.violation_decay;
  const double quantile = cell.params.prediction_quantile;
  APT_RETURN_NOT_OK(
      MakeSchedulerByName(kind, slo, decay, quantile).status());
  SchedulerFactory make_scheduler = [kind, slo, decay, quantile]() {
    return MakeSchedulerByName(kind, slo, decay, quantile).value();
  };

  CostModelBackend::Options backend_options;
  backend_options.block_size = cell.params.block_size;
  backend_options.pool_blocks_override = cell.params.pool_blocks;
  backend_options.enable_prefix_sharing = cell.prefix_sharing;
  APT_ASSIGN_OR_RETURN(backend_options.cache_encoding,
                       CacheEncodingByName(cell.params.cache_encoding));
  BackendFactory make_backend =
      [&cost_model, backend_options](
          int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cost_model, backend_options));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };

  CellRun run;
  run.requests = static_cast<int64_t>(trace.size());
  APT_ASSIGN_OR_RETURN(run.pool_blocks, CostModelBackend::DerivePoolBlocks(
                                            cost_model, backend_options));
  APT_ASSIGN_OR_RETURN(
      FleetResult result,
      FleetController(fc, &cost_model)
          .Run(trace, make_scheduler, make_backend, slo));
  run.fleet = std::move(result.serve);
  run.fleet_metrics = std::move(result.fleet);
  for (size_t i = 0; i < run.fleet.records_per_instance.size(); ++i) {
    run.records.merge(run.fleet.records_per_instance[i]);
    const std::string label = "instance=\"" + std::to_string(i) + "\"";
    run.peak_blocks = std::max(
        run.peak_blocks,
        static_cast<int32_t>(
            metrics.GetGauge("aptserve_pool_blocks_peak", label)->value()));
    run.swap_ins +=
        metrics.GetCounter("aptserve_swap_ins_total", label)->value();
  }
  if (trace_recorder != nullptr) run.metrics_prom = metrics.ExportPrometheus();
  return run;
}

StatusOr<SweepRunResult> RunSweep(const SweepConfig& config,
                                  const SweepOptions& options) {
  SweepConfig effective = config;
  if (!options.out_root_override.empty()) {
    effective.out_root = options.out_root_override;
  }
  if (options.jobs_override > 0) effective.jobs = options.jobs_override;
  if (options.trace && options.resume) {
    return Status::InvalidArgument(
        "sweep: --trace cannot be combined with --resume");
  }

  APT_ASSIGN_OR_RETURN(std::vector<RunCell> cells, ExpandMatrix(effective));

  SweepRunResult summary;
  summary.exp_dir = effective.ExperimentDir();
  summary.planned = static_cast<int64_t>(cells.size());
  summary.outcomes.resize(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    summary.outcomes[i].run_id = cells[i].run_id;
  }

  if (options.dry_run) {
    std::printf("sweep %s: %zu cells -> %s\n", effective.name.c_str(),
                cells.size(), summary.exp_dir.c_str());
    for (const RunCell& cell : cells) {
      std::printf("  %s\n", cell.run_id.c_str());
    }
    std::printf("sweep: executed 0 skipped 0 failed 0 of %zu cells (dry run)\n",
                cells.size());
    return summary;
  }

  const std::string runs_dir = summary.exp_dir + "/runs";
  APT_RETURN_NOT_OK(MakeDirs(runs_dir));

  std::mutex io_mutex;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> executed{0}, skipped{0}, failed{0};

  const auto run_cell = [&](int64_t index) {
    CellOutcome& outcome = summary.outcomes[static_cast<size_t>(index)];
    if (stop.load(std::memory_order_relaxed)) return;  // fail-fast: kNotRun
    const RunCell& cell = cells[static_cast<size_t>(index)];
    const std::string run_dir = runs_dir + "/" + cell.run_id;

    if (options.resume && CellIsCurrent(cell, run_dir)) {
      outcome.state = CellOutcome::State::kSkipped;
      skipped.fetch_add(1, std::memory_order_relaxed);
      if (options.verbose) {
        std::lock_guard<std::mutex> lock(io_mutex);
        std::fprintf(stderr, "[sweep] skip %s (up to date)\n",
                     cell.run_id.c_str());
      }
      return;
    }

    const auto started = std::chrono::steady_clock::now();
    Status status = MakeDirs(run_dir);
    if (status.ok()) {
      // meta.json first: a cell that dies mid-run leaves meta without
      // result, which CellIsCurrent treats as stale.
      status = WriteJsonFile(run_dir + "/meta.json", MetaJson(cell));
    }
    if (status.ok()) {
      // result.json last: it marks the cell complete for --resume.
      std::unique_ptr<obs::TraceRecorder> recorder;
      if (options.trace) {
        recorder = std::make_unique<obs::TraceRecorder>(kTraceShardCapacity);
      }
      auto run = ExecuteCell(cell, recorder.get());
      status = run.status();
      if (status.ok()) {
        status = WriteFile(run_dir + "/requests.csv", [&](std::ostream* out) {
          WriteRequestRecordsCsv(run->records, CellSlo(cell.params), out);
        });
      }
      if (status.ok() && recorder != nullptr) {
        status = WriteCellTrace(recorder.get(), *run, run_dir);
      }
      if (status.ok()) {
        status =
            WriteJsonFile(run_dir + "/result.json", ResultJson(cell, *run));
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();

    if (status.ok()) {
      outcome.state = CellOutcome::State::kRan;
      executed.fetch_add(1, std::memory_order_relaxed);
    } else {
      outcome.state = CellOutcome::State::kFailed;
      outcome.error = status.ToString();
      failed.fetch_add(1, std::memory_order_relaxed);
      if (options.fail_fast) stop.store(true, std::memory_order_relaxed);
    }
    if (options.verbose || !status.ok()) {
      std::lock_guard<std::mutex> lock(io_mutex);
      std::fprintf(stderr, "[sweep] %s %s (%.2fs)%s%s\n",
                   status.ok() ? "ran " : "FAIL", cell.run_id.c_str(), elapsed,
                   status.ok() ? "" : ": ",
                   status.ok() ? "" : status.ToString().c_str());
    }
  };

  RuntimeConfig pool_config;
  pool_config.num_threads = effective.jobs;
  // Cells have wildly different durations; dynamic chunk claiming keeps
  // every job slot busy (run order is not part of any result).
  pool_config.deterministic = false;
  runtime::ThreadPool pool(pool_config);
  pool.ParallelForEach(0, static_cast<int64_t>(cells.size()), /*grain=*/1,
                       [&](int64_t i) { run_cell(i); });

  summary.executed = executed.load();
  summary.skipped = skipped.load();
  summary.failed = failed.load();
  std::printf("sweep: executed %lld skipped %lld failed %lld of %zu cells\n",
              static_cast<long long>(summary.executed),
              static_cast<long long>(summary.skipped),
              static_cast<long long>(summary.failed), cells.size());
  return summary;
}

}  // namespace sweep
}  // namespace aptserve
