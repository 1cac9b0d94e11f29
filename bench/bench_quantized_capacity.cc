// Int8-quantized cache tiers at equal pool bytes: how many requests the
// unified pool admits under each encoding policy, and what live migration
// costs on the interconnect once payloads travel as int8 codes.
//
// Two probes:
//   1. Admission: a fixed ShareGPT-length request stream is admitted into
//      an identical BlockPool under fp32 / int8-hidden / all-int8 policies
//      until the first OutOfMemory. Same bytes, ~4x the tokens per int8
//      block, so the quantized tiers must admit strictly more requests.
//   2. Fleet migration: the bench_fleet_elasticity diurnal workload on an
//      elastic fleet with live migration, under fp32, int8-transit (fp32
//      tiers, quantized payloads on the wire — same migration pattern as
//      fp32) and all-int8 policies. The readout is post-dedupe migration
//      bytes per copied token (the CostModel's interconnect input) and SLO
//      attainment. All-int8 typically stops migrating altogether: the 4x
//      capacity headroom removes the imbalance that triggers it.
//
// Gates (enforced, exit 1): all-int8 admits >= 2x the fp32 requests;
// int8-transit shrinks migration bytes per copied token >= 1.8x (the
// analytic cache baseline is fp16, so int8 codes halve the wire bytes; 4x
// holds only against the engine's fp32 blocks); no quantized policy
// regresses SLO attainment.
//
// Results land in BENCH_bench_quantized_capacity.json (committed snapshot
// under bench/results/).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/sarathi_scheduler.h"
#include "bench/bench_util.h"
#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "workload/arrival.h"
#include "workload/length_sampler.h"

using namespace aptserve;

namespace {

CacheEncodingPolicy MakePolicy(const std::string& name) {
  CacheEncodingPolicy p;
  if (name == "int8-hidden") {
    p.hidden = BlockEncoding::kInt8;
  } else if (name == "all-int8") {
    p.kv = BlockEncoding::kInt8;
    p.hidden = BlockEncoding::kInt8;
  } else if (name == "int8-transit") {
    // Fp32 tiers, int8 on the wire only: same admission capacity (and so
    // the same migration pattern) as fp32, isolating the transport delta.
    p.quantize_migration_payload = true;
  }
  return p;
}

struct AdmissionResult {
  int32_t admitted = 0;
  int64_t tokens = 0;
  double utilization = 0.0;
};

/// Admits the same request stream (alternating KV / hidden, ShareGPT
/// prompt lengths) until the pool rejects one.
AdmissionResult AdmitUntilFull(const std::string& policy,
                               const std::vector<int32_t>& lengths) {
  BlockPool pool(/*num_blocks=*/1024, /*block_size=*/16);
  HybridCacheAssigner assigner(&pool);
  assigner.SetEncodingPolicy(MakePolicy(policy));
  AdmissionResult r;
  for (size_t i = 0; i < lengths.size(); ++i) {
    const CacheType type =
        i % 2 == 0 ? CacheType::kKV : CacheType::kHidden;
    if (!assigner.CreateFilled(static_cast<RequestId>(i), type, lengths[i])
             .ok()) {
      break;
    }
    ++r.admitted;
    r.tokens += lengths[i];
  }
  r.utilization = pool.utilization();
  return r;
}

/// The bench_fleet_elasticity diurnal day, reused verbatim so the
/// migration-bytes delta is measured on the same traffic shape.
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

struct FleetRow {
  std::string policy;
  FleetResult result;
};

StatusOr<FleetResult> RunElasticFleet(const CostModel& cm,
                                      const std::vector<Request>& trace,
                                      const SloSpec& slo,
                                      const CacheEncodingPolicy& encoding) {
  const auto make_scheduler = [] {
    return std::make_unique<SarathiScheduler>(SarathiConfig{});
  };
  const auto make_backend =
      [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options opts;
    opts.cache_encoding = encoding;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, opts));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
  FleetConfig cfg;
  cfg.router.n_instances = 1;
  cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
  cfg.min_instances = 1;
  cfg.max_instances = 4;
  cfg.tick_interval_s = 2.0;
  cfg.instance_warmup_s = 5.0;
  cfg.scale_up_cooldown_s = 4.0;
  cfg.scale_down_cooldown_s = 45.0;
  cfg.scaling = {ScalingRule::QueueDepth(/*high=*/1.0, /*low=*/0.1),
                 ScalingRule::TargetUtilization(/*high=*/0.75, /*low=*/0.30),
                 ScalingRule::SloAttainmentGuard(/*floor=*/0.97,
                                                 /*window_s=*/40.0)};
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 4.0;
  cfg.max_migrations_per_tick = 16;
  FleetController controller(cfg, &cm);
  return controller.Run(trace, make_scheduler, make_backend, slo);
}

}  // namespace

int main() {
  bench::BenchJson::Instance().SetName("bench_quantized_capacity");
  bench::BenchJson::Instance()
      .config()
      .Int("admission_pool_blocks", 1024)
      .Int("admission_block_size", 16)
      .Int("fleet_requests", 1500)
      .Str("fleet_scheduler", "Sarathi");

  // ---- Probe 1: admission at equal pool bytes -----------------------------
  Rng rng(77);
  const DatasetProfile lengths = DatasetProfile::ShareGpt();
  std::vector<int32_t> prompt_lens(4096);
  for (int32_t& n : prompt_lens) {
    n = std::max(1, std::min(lengths.input.Sample(&rng), 2047));
  }

  std::printf("=== Admission at equal pool bytes (1024 blocks x 16) ===\n");
  std::printf("%14s %10s %12s %12s\n", "policy", "admitted", "tokens",
              "pool-util");
  AdmissionResult fp32_adm;
  AdmissionResult int8_adm;
  for (const char* policy : {"fp32", "int8-hidden", "all-int8"}) {
    const AdmissionResult r = AdmitUntilFull(policy, prompt_lens);
    std::printf("%14s %10d %12lld %12.3f\n", policy, r.admitted,
                static_cast<long long>(r.tokens), r.utilization);
    bench::JsonObject e;
    e.Str("probe", "admission")
        .Str("policy", policy)
        .Int("admitted_requests", r.admitted)
        .Int("admitted_tokens", r.tokens)
        .Num("pool_utilization", r.utilization);
    bench::BenchJson::Instance().AddEntry(std::move(e));
    if (std::string(policy) == "fp32") fp32_adm = r;
    if (std::string(policy) == "all-int8") int8_adm = r;
  }

  // ---- Probe 2: migration bytes on the diurnal fleet ----------------------
  const SloSpec slo{5.0, 5.0};
  const ModelSpec model = ModelSpec::Opt13B();
  const CostModel cm(model, ClusterSpec::ForModel(model));
  auto trace_or = BuildDiurnalTrace(/*n=*/1500, /*seed=*/2026);
  if (!trace_or.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace_or.status().ToString().c_str());
    return 1;
  }

  std::printf("\n=== Elastic fleet with live migration (diurnal day) ===\n");
  std::printf("%10s %9s %9s %7s %10s %14s %12s\n", "policy", "SLO(%)",
              "goodput", "migr", "copied-tok", "migr-bytes", "bytes/token");
  std::vector<FleetRow> rows;
  for (const char* policy : {"fp32", "int8-transit", "all-int8"}) {
    auto r = RunElasticFleet(cm, *trace_or, slo, MakePolicy(policy));
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", policy, r.status().ToString().c_str());
      return 1;
    }
    const SloReport& rep = r->serve.combined;
    const FleetMetrics& fm = r->fleet;
    const double bytes_per_token =
        fm.migration_copied_tokens > 0
            ? fm.migration_bytes / fm.migration_copied_tokens
            : 0.0;
    std::printf("%10s %9.2f %9.3f %7lld %10lld %14.3g %12.1f\n", policy,
                100 * rep.slo_attainment, rep.goodput_rps,
                static_cast<long long>(fm.migrations),
                static_cast<long long>(fm.migration_copied_tokens),
                fm.migration_bytes, bytes_per_token);
    bench::JsonObject e;
    e.Str("probe", "fleet-migration")
        .Str("policy", policy)
        .Num("slo_attainment", rep.slo_attainment)
        .Num("goodput_rps", rep.goodput_rps)
        .Int("migrations", fm.migrations)
        .Int("migrations_with_cache", fm.migrations_with_cache)
        .Int("migration_deduped_tokens", fm.migration_deduped_tokens)
        .Int("migration_copied_tokens", fm.migration_copied_tokens)
        .Num("migration_bytes", fm.migration_bytes)
        .Num("migration_bytes_per_copied_token", bytes_per_token)
        .Num("migration_seconds", fm.migration_seconds)
        .Num("instance_seconds", fm.instance_seconds);
    bench::BenchJson::Instance().AddEntry(std::move(e));
    rows.push_back({policy, std::move(*r)});
  }

  // ---- Gates --------------------------------------------------------------
  bool ok = true;
  if (int8_adm.admitted < 2 * fp32_adm.admitted) {
    std::fprintf(stderr,
                 "GATE FAILED: all-int8 admitted %d < 2x fp32's %d\n",
                 int8_adm.admitted, fp32_adm.admitted);
    ok = false;
  }
  // Transport delta: int8-transit keeps fp32 capacity, so it migrates the
  // same traffic; only the wire encoding differs. The analytic baseline is
  // fp16 cache bytes (ModelSpec::bytes_per_value), so int8 codes halve the
  // per-token transport (the 4x figure is vs the engine's fp32 blocks).
  const FleetMetrics& fp32_fm = rows[0].result.fleet;
  const FleetMetrics& transit_fm = rows[1].result.fleet;
  const double fp32_bpt = fp32_fm.migration_copied_tokens > 0
                              ? fp32_fm.migration_bytes /
                                    fp32_fm.migration_copied_tokens
                              : 0.0;
  const double transit_bpt = transit_fm.migration_copied_tokens > 0
                                 ? transit_fm.migration_bytes /
                                       transit_fm.migration_copied_tokens
                                 : 0.0;
  if (fp32_fm.migration_copied_tokens == 0 ||
      transit_fm.migration_copied_tokens == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: migration probe moved no cache (fp32 %lld, "
                 "int8-transit %lld copied tokens)\n",
                 static_cast<long long>(fp32_fm.migration_copied_tokens),
                 static_cast<long long>(transit_fm.migration_copied_tokens));
    ok = false;
  } else if (transit_bpt * 1.8 > fp32_bpt) {
    std::fprintf(stderr,
                 "GATE FAILED: int8-transit migration bytes/token %.1f not "
                 ">=1.8x below fp32's %.1f\n",
                 transit_bpt, fp32_bpt);
    ok = false;
  }
  const double fp32_slo = rows[0].result.serve.combined.slo_attainment;
  for (size_t i = 1; i < rows.size(); ++i) {
    const double slo_i = rows[i].result.serve.combined.slo_attainment;
    if (slo_i + 1e-9 < fp32_slo) {
      std::fprintf(stderr,
                   "GATE FAILED: %s SLO attainment %.4f below fp32's %.4f\n",
                   rows[i].policy.c_str(), slo_i, fp32_slo);
      ok = false;
    }
  }
  const double int8_slo = rows[2].result.serve.combined.slo_attainment;
  std::printf("\nAll-int8: %.1fx admissions at equal pool bytes, SLO %+.2f "
              "points; int8 transport moves %.1fx fewer bytes per copied "
              "token.\n",
              fp32_adm.admitted > 0
                  ? static_cast<double>(int8_adm.admitted) / fp32_adm.admitted
                  : 0.0,
              100 * (int8_slo - fp32_slo),
              transit_bpt > 0 ? fp32_bpt / transit_bpt : 0.0);
  return ok ? 0 : 1;
}
