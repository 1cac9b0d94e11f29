// Fleet elasticity under diurnal traffic: a static fleet sized for peak
// load versus the event-driven FleetController scaling between
// min_instances and the same peak size (cold-start warmup included), with
// live request migration draining instances on the way down.
//
// The readout is the operator's bill versus the users' experience:
// instance-seconds consumed, SLO attainment, and goodput. Gates (enforced,
// exit 1): the elastic fleet must use >=20% fewer instance-seconds than the
// peak-sized static fleet at equal-or-better SLO attainment.
//
// Results land in BENCH_bench_fleet_elasticity.json (committed snapshot
// under bench/results/).
// Set APTSERVE_TRACE_JSON=<path> to run the elastic fleet with the
// request-lifecycle tracer attached: the run writes a Chrome trace_event
// JSON there (chrome://tracing / Perfetto loadable), a Prometheus text
// snapshot next to it (<path>.prom), and gates (exit 1) on the validator:
// well-formed JSON, monotonic per-track timestamps, every migration flow
// arrow matched, and at least one scale event present.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/sarathi_scheduler.h"
#include "bench/bench_util.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "workload/arrival.h"
#include "workload/length_sampler.h"

using namespace aptserve;

namespace {

constexpr int32_t kPeakInstances = 4;
constexpr double kTickS = 2.0;
constexpr double kWarmupS = 5.0;

/// Diurnal day: trough ~1 rps (one OPT-13B instance is comfortable), peak
/// ~8 rps (needs the whole 4-instance fleet at the paper's ~2.6 rps knee),
/// plus one flash crowd on the evening shoulder.
StatusOr<std::vector<Request>> BuildDiurnalTrace(int32_t n, uint64_t seed) {
  Rng rng(seed);
  DiurnalProfile profile;
  profile.base_rate = 1.0;
  profile.peak_rate = 8.0;
  profile.period_s = 600.0;
  FlashCrowd crowd;
  crowd.start_s = 380.0;
  crowd.duration_s = 40.0;
  crowd.multiplier = 1.6;
  APT_ASSIGN_OR_RETURN(std::vector<TimePoint> arrivals,
                       DiurnalArrivals(profile, {crowd}, /*cv=*/1.0, n, &rng));
  const DatasetProfile lengths = DatasetProfile::ShareGpt();
  std::vector<Request> trace;
  trace.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival = arrivals[i];
    r.prompt_len = std::min(lengths.input.Sample(&rng), 2047);
    r.output_len =
        std::max(1, std::min(lengths.output.Sample(&rng), 2048 - r.prompt_len));
    trace.push_back(r);
  }
  return trace;
}

struct RunRow {
  const char* label;
  FleetResult result;
};

}  // namespace

int main() {
  const SloSpec slo{5.0, 5.0};
  const ModelSpec model = ModelSpec::Opt13B();
  const CostModel cm(model, ClusterSpec::ForModel(model));
  // Chunked prefill (Sarathi) keeps mid-pass requests in the waiting
  // queue, so drain migrations genuinely carry partial cache state.
  const auto make_scheduler = [] {
    return std::make_unique<SarathiScheduler>(SarathiConfig{});
  };
  const auto make_backend =
      [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    APT_ASSIGN_OR_RETURN(
        std::unique_ptr<CostModelBackend> backend,
        CostModelBackend::Create(cm, CostModelBackend::Options{}));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };

  auto trace_or = BuildDiurnalTrace(/*n=*/2500, /*seed=*/2026);
  if (!trace_or.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<Request>& trace = *trace_or;

  bench::BenchJson::Instance().SetName("bench_fleet_elasticity");
  bench::BenchJson::Instance()
      .config()
      .Int("requests", static_cast<int64_t>(trace.size()))
      .Num("diurnal_base_rps", 1.0)
      .Num("diurnal_peak_rps", 8.0)
      .Num("period_s", 600.0)
      .Int("peak_instances", kPeakInstances)
      .Num("tick_interval_s", kTickS)
      .Num("instance_warmup_s", kWarmupS)
      .Num("slo_ttft_s", slo.ttft_s);

  const char* trace_path = std::getenv("APTSERVE_TRACE_JSON");
  obs::TraceRecorder trace_recorder(/*shard_capacity=*/size_t{1} << 18);
  obs::MetricsRegistry metrics;

  std::vector<RunRow> rows;
  {
    // Static fleet sized for peak: the capacity an operator must hold all
    // day to survive the evening.
    FleetConfig cfg;
    cfg.router.n_instances = kPeakInstances;
    cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
    FleetController controller(cfg, &cm);
    auto r = controller.Run(trace, make_scheduler, make_backend, slo);
    if (!r.ok()) {
      std::fprintf(stderr, "static: %s\n", r.status().ToString().c_str());
      return 1;
    }
    rows.push_back({"static-peak", std::move(*r)});
  }
  {
    // Elastic fleet: starts at the trough size, grows on queue depth and
    // the SLO guard, drains (migrating queued requests away) when quiet.
    FleetConfig cfg;
    cfg.router.n_instances = 1;
    cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
    cfg.min_instances = 1;
    cfg.max_instances = kPeakInstances;
    cfg.tick_interval_s = kTickS;
    cfg.instance_warmup_s = kWarmupS;
    cfg.scale_up_cooldown_s = 4.0;
    cfg.scale_down_cooldown_s = 45.0;
    cfg.scaling = {ScalingRule::QueueDepth(/*high=*/1.0, /*low=*/0.1),
                   ScalingRule::TargetUtilization(/*high=*/0.75, /*low=*/0.30),
                   ScalingRule::SloAttainmentGuard(/*floor=*/0.97,
                                                   /*window_s=*/40.0)};
    cfg.enable_migration = true;
    cfg.migration_imbalance_threshold = 4.0;
    cfg.max_migrations_per_tick = 16;
    if (trace_path != nullptr) {
      cfg.trace = &trace_recorder;
      cfg.metrics = &metrics;
    }
    FleetController controller(cfg, &cm);
    auto r = controller.Run(trace, make_scheduler, make_backend, slo);
    if (!r.ok()) {
      std::fprintf(stderr, "elastic: %s\n", r.status().ToString().c_str());
      return 1;
    }
    rows.push_back({"elastic", std::move(*r)});
  }

  std::printf("=== Fleet elasticity: diurnal ShareGPT day on OPT-13B "
              "instances ===\n");
  std::printf("%12s %9s %9s %12s %8s %8s %7s %7s %7s\n", "fleet", "SLO(%)",
              "goodput", "inst-sec", "peak-N", "colds", "migr", "w/cache",
              "dedup%");
  for (const RunRow& row : rows) {
    const SloReport& rep = row.result.serve.combined;
    const FleetMetrics& fm = row.result.fleet;
    const int64_t moved_tokens =
        fm.migration_deduped_tokens + fm.migration_copied_tokens;
    std::printf("%12s %9.2f %9.3f %12.1f %8d %8d %7lld %7lld %7.1f\n",
                row.label, 100 * rep.slo_attainment, rep.goodput_rps,
                fm.instance_seconds, fm.peak_instances, fm.cold_starts,
                static_cast<long long>(fm.migrations),
                static_cast<long long>(fm.migrations_with_cache),
                moved_tokens > 0
                    ? 100.0 * fm.migration_deduped_tokens / moved_tokens
                    : 0.0);

    bench::JsonObject e;
    e.Str("fleet", row.label)
        .Num("slo_attainment", rep.slo_attainment)
        .Num("goodput_rps", rep.goodput_rps)
        .Num("instance_seconds", fm.instance_seconds)
        .Int("peak_instances", fm.peak_instances)
        .Int("cold_starts", fm.cold_starts)
        .Int("scale_events", static_cast<int64_t>(fm.scale_events.size()))
        .Int("migrations", fm.migrations)
        .Int("migrations_with_cache", fm.migrations_with_cache)
        .Int("migration_deduped_tokens", fm.migration_deduped_tokens)
        .Int("migration_copied_tokens", fm.migration_copied_tokens)
        .Num("migration_bytes", fm.migration_bytes)
        .Num("migration_seconds", fm.migration_seconds)
        .Num("total_serving_time", rep.total_serving_time)
        .Num("mean_ttft_s", rep.mean_ttft)
        .Int("rejected", row.result.serve.rejected_requests);
    bench::BenchJson::Instance().AddEntry(std::move(e));
  }

  const SloReport& s = rows[0].result.serve.combined;
  const SloReport& e = rows[1].result.serve.combined;
  const double static_is = rows[0].result.fleet.instance_seconds;
  const double elastic_is = rows[1].result.fleet.instance_seconds;
  const double saving = 1.0 - elastic_is / static_is;
  std::printf("\nElastic fleet: %.1f%% fewer instance-seconds, SLO "
              "attainment %+.2f points vs static-for-peak.\n", 100 * saving,
              100 * (e.slo_attainment - s.slo_attainment));

  bool ok = true;
  if (saving < 0.20) {
    std::fprintf(stderr, "GATE FAILED: instance-second saving %.1f%% < 20%%\n",
                 100 * saving);
    ok = false;
  }
  if (e.slo_attainment + 1e-9 < s.slo_attainment) {
    std::fprintf(stderr,
                 "GATE FAILED: elastic attainment %.4f below static %.4f\n",
                 e.slo_attainment, s.slo_attainment);
    ok = false;
  }

  if (trace_path != nullptr) {
    Status wrote = obs::WriteChromeTrace(trace_recorder.Flush(), trace_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "trace write: %s\n", wrote.ToString().c_str());
      return 1;
    }
    std::ifstream in(trace_path);
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    auto stats = obs::ValidateChromeTrace(json);
    if (!stats.ok()) {
      std::fprintf(stderr, "GATE FAILED: trace validation: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("\nTrace: %lld events on %lld tracks, %lld migration flow "
                "arrows (%lld matched), %lld scale events -> %s\n",
                static_cast<long long>(stats->events),
                static_cast<long long>(stats->tracks),
                static_cast<long long>(stats->flow_begins),
                static_cast<long long>(stats->matched_flows),
                static_cast<long long>(stats->scale_events), trace_path);
    if (stats->matched_flows < 1) {
      std::fprintf(stderr,
                   "GATE FAILED: expected >=1 matched migration flow arrow\n");
      ok = false;
    }
    if (stats->scale_events < 1) {
      std::fprintf(stderr, "GATE FAILED: expected >=1 scale event\n");
      ok = false;
    }
    const std::string prom_path = std::string(trace_path) + ".prom";
    std::ofstream prom(prom_path);
    prom << metrics.ExportPrometheus();
    if (!prom) {
      std::fprintf(stderr, "prom write failed: %s\n", prom_path.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
