// Async wall-clock serving vs the epoch-barrier fleet: the same trace, the
// same two real-engine instances, served (a) by the virtual-time
// MultiInstanceRunner (every instance stepped to completion behind the
// merge barrier) and (b) by the continuously-batching async mode (worker
// threads, bounded arrival queues, mid-step injection, real-time replay).
// Token streams are asserted bit-identical between the modes — the
// determinism contract enforced exactly where the speed is measured — and
// the snapshot records wall TTFT/TBT/e2e percentiles, sustained
// throughput, per-instance arrival-queue high-water marks and shed
// counts, a live-shedding row (shed_queue_depth=1 under a tight batch
// cap), and an epoch-barrier comparison row.
//
// Results land in BENCH_bench_async_serving.json. Like
// bench_parallel_scaling, the snapshot stamps hardware_concurrency and
// "multicore": wall-clock latency percentiles on a <4-core container have
// workers time-sharing one core and must not be read as serving capacity.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "serve/async_serving.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "sim/report_writer.h"

using namespace aptserve;

namespace {

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int32_t kInstances = 2;
constexpr int32_t kRequests = 48;
constexpr double kArrivalSpacing = 0.02;  // virtual seconds

std::vector<Request> BenchTrace() {
  Rng rng(77);
  std::vector<Request> trace;
  trace.reserve(kRequests);
  for (int32_t i = 0; i < kRequests; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(8, 24));
    r.output_len = static_cast<int32_t>(rng.UniformInt(4, 12));
    r.arrival = kArrivalSpacing * i;
    trace.push_back(r);
  }
  return trace;
}

/// `uniform_weights` gives every instance the same weight seed — required
/// for the shedding row, where a request may finish on a different
/// instance than the one the virtual reference ran it on.
BackendFactory EngineFactory(std::vector<TokenMap>* sinks,
                             bool uniform_weights = false) {
  return [sinks, uniform_weights](
             int32_t i) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions options;
    options.virtual_timing = true;
    options.finished_sink = &(*sinks)[static_cast<size_t>(i)];
    return std::unique_ptr<ExecutionBackend>(std::make_unique<InferenceBackend>(
        ModelConfig::Tiny(), /*weight_seed=*/uniform_weights ? 9 : 9 + i,
        /*num_blocks=*/192,
        /*block_size=*/8, SamplingParams::TopK(8, 0.9), options));
  };
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

MultiInstanceRunner MakeRunner(int32_t max_batch_size = INT32_MAX) {
  RouterConfig rc;
  rc.n_instances = kInstances;
  rc.policy = RoutePolicy::kRoundRobin;
  ServingLoopConfig loop;
  loop.max_batch_size = max_batch_size;
  return MultiInstanceRunner(Router(rc), loop);
}

TokenMap Flatten(std::vector<TokenMap> sinks) {
  TokenMap all;
  for (TokenMap& m : sinks) {
    for (auto& [id, toks] : m) all[id] = std::move(toks);
  }
  return all;
}

/// The determinism contract, enforced where the speed is measured: every
/// finished token stream must match the virtual reference bit-for-bit.
bool TokensMatch(const TokenMap& want, const TokenMap& got,
                 const char* label) {
  if (want.size() != got.size()) {
    std::fprintf(stderr, "FATAL: %s: %zu vs %zu finished requests\n", label,
                 want.size(), got.size());
    return false;
  }
  for (const auto& [id, toks] : want) {
    auto it = got.find(id);
    if (it == got.end() || it->second != toks) {
      std::fprintf(stderr,
                   "FATAL: %s: token stream diverged from the virtual "
                   "reference at request %d\n",
                   label, static_cast<int32_t>(id));
      return false;
    }
  }
  return true;
}

/// Per-instance backpressure/shed witnesses into a JSON row
/// (arrival_queue_high_water_i0, sheds_i0, ...).
void AddPerInstanceWitnesses(const AsyncServingResult& live,
                             bench::JsonObject* e) {
  for (size_t i = 0; i < live.arrival_queue_high_water_per_instance.size();
       ++i) {
    e->Int("arrival_queue_high_water_i" + std::to_string(i),
           static_cast<int64_t>(live.arrival_queue_high_water_per_instance[i]));
  }
  for (size_t i = 0; i < live.sheds_per_instance.size(); ++i) {
    e->Int("sheds_i" + std::to_string(i), live.sheds_per_instance[i]);
  }
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool multicore = hw >= 4;
  if (!multicore) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=%u < 4 — the async fleet's "
                 "worker threads time-share cores here, so wall latency "
                 "percentiles understate real serving capacity; the JSON "
                 "snapshot records \"multicore\": false.\n",
                 hw);
  }

  bench::BenchJson::Instance().SetName("bench_async_serving");
  bench::BenchJson::Instance()
      .config()
      .Int("hardware_concurrency", hw)
      .Bool("multicore", multicore)
      .Int("instances", kInstances)
      .Int("requests", kRequests)
      .Num("arrival_spacing_s", kArrivalSpacing);

  const auto trace = BenchTrace();
  const SloSpec slo{5.0, 5.0};

  // ---- Epoch-barrier reference: virtual-time fleet ------------------------
  std::vector<TokenMap> virt_sinks(kInstances);
  MultiInstanceRunner runner = MakeRunner();
  double t0 = NowSeconds();
  auto virt = runner.Run(trace, Fcfs(), EngineFactory(&virt_sinks), slo);
  const double virt_wall = NowSeconds() - t0;
  if (!virt.ok()) {
    std::fprintf(stderr, "virtual run: %s\n", virt.status().ToString().c_str());
    return 1;
  }

  // ---- Async wall-clock mode ----------------------------------------------
  for (const double speedup : {100.0, 400.0}) {
    AsyncServingConfig async;
    async.replay_speedup = speedup;
    async.max_wall_seconds = 120.0;
    std::vector<TokenMap> async_sinks(kInstances);
    MultiInstanceRunner arunner = MakeRunner();
    t0 = NowSeconds();
    auto live = arunner.RunAsync(trace, Fcfs(), EngineFactory(&async_sinks),
                                 slo, async);
    const double async_wall = NowSeconds() - t0;
    if (!live.ok()) {
      std::fprintf(stderr, "async run: %s\n", live.status().ToString().c_str());
      return 1;
    }

    if (!TokensMatch(Flatten(virt_sinks), Flatten(std::move(async_sinks)),
                     "async")) {
      return 1;
    }

    const WallLatencyReport& wall = live->wall;
    std::printf(
        "=== Async serving @ replay_speedup=%.0f (hw=%u%s) ===\n"
        "  requests=%lld tokens=%lld wall=%.3fs sustained=%.0f tok/s\n"
        "  TTFT  p50=%.4fs p95=%.4fs p99=%.4fs\n"
        "  TBT   p50=%.4fs p95=%.4fs p99=%.4fs\n"
        "  e2e   p50=%.4fs p95=%.4fs p99=%.4fs\n"
        "  shed_migrations=%lld queue_high_water=%zu\n"
        "  epoch-barrier reference: wall=%.3fs (batch-everything virtual "
        "run)\n"
        "  token streams: bit-identical to the virtual reference\n",
        speedup, hw, multicore ? "" : ", single-core: do not read as capacity",
        static_cast<long long>(wall.requests),
        static_cast<long long>(wall.tokens), live->wall_duration_s,
        wall.throughput_tok_s, wall.ttft.P50(), wall.ttft.P95(),
        wall.ttft.P99(), wall.tbt.P50(), wall.tbt.P95(), wall.tbt.P99(),
        wall.e2e.P50(), wall.e2e.P95(), wall.e2e.P99(),
        static_cast<long long>(live->shed_migrations),
        live->arrival_queue_high_water, virt_wall);

    std::ostringstream csv;
    WriteWallLatencyCsv({{"async", wall}}, &csv);
    std::printf("%s\n", csv.str().c_str());

    bench::JsonObject e;
    e.Str("mode", "async")
        .Num("replay_speedup", speedup)
        .Int("requests", wall.requests)
        .Int("tokens", wall.tokens)
        .Num("wall_seconds", async_wall)
        .Num("serving_wall_seconds", live->wall_duration_s)
        .Num("sustained_tok_per_s", wall.throughput_tok_s)
        .Num("ttft_p50_s", wall.ttft.P50())
        .Num("ttft_p95_s", wall.ttft.P95())
        .Num("ttft_p99_s", wall.ttft.P99())
        .Num("tbt_p50_s", wall.tbt.P50())
        .Num("tbt_p95_s", wall.tbt.P95())
        .Num("tbt_p99_s", wall.tbt.P99())
        .Num("e2e_p50_s", wall.e2e.P50())
        .Num("e2e_p99_s", wall.e2e.P99())
        .Int("shed_migrations", live->shed_migrations)
        .Int("arrival_queue_high_water",
             static_cast<int64_t>(live->arrival_queue_high_water))
        .Str("tokens_bit_identical_to_virtual", "true");
    AddPerInstanceWitnesses(*live, &e);
    bench::BenchJson::Instance().AddEntry(std::move(e));
  }

  // ---- Live shedding row ----------------------------------------------------
  // shed_queue_depth > 0 makes overloaded workers export waiting requests
  // (cache state included) to the coolest instance over the queue fabric.
  // A small batch cap plus fast replay keeps the waiting queues deep so
  // the shed path actually fires. Instances share one weight seed here:
  // a shed request finishes on a different instance than the virtual run
  // routed it to, and the token-identity assertion must still hold.
  {
    constexpr int32_t kShedBatchCap = 4;
    constexpr double kShedSpeedup = 400.0;

    std::vector<TokenMap> ref_sinks(kInstances);
    MultiInstanceRunner ref_runner = MakeRunner(kShedBatchCap);
    auto ref = ref_runner.Run(trace, Fcfs(),
                              EngineFactory(&ref_sinks, /*uniform=*/true), slo);
    if (!ref.ok()) {
      std::fprintf(stderr, "shed reference: %s\n",
                   ref.status().ToString().c_str());
      return 1;
    }

    AsyncServingConfig async;
    async.replay_speedup = kShedSpeedup;
    async.max_wall_seconds = 120.0;
    async.shed_queue_depth = 1;  // shed on any queue depth over one
    std::vector<TokenMap> shed_sinks(kInstances);
    MultiInstanceRunner srunner = MakeRunner(kShedBatchCap);
    t0 = NowSeconds();
    auto live = srunner.RunAsync(
        trace, Fcfs(), EngineFactory(&shed_sinks, /*uniform=*/true), slo,
        async);
    const double shed_wall = NowSeconds() - t0;
    if (!live.ok()) {
      std::fprintf(stderr, "shed run: %s\n", live.status().ToString().c_str());
      return 1;
    }
    if (!TokensMatch(Flatten(std::move(ref_sinks)),
                     Flatten(std::move(shed_sinks)), "async_shed")) {
      return 1;
    }

    std::printf(
        "=== Async shedding @ replay_speedup=%.0f, batch cap %d, "
        "shed_queue_depth=1 ===\n"
        "  shed_migrations=%lld queue_high_water=%zu wall=%.3fs\n",
        kShedSpeedup, kShedBatchCap,
        static_cast<long long>(live->shed_migrations),
        live->arrival_queue_high_water, shed_wall);
    for (size_t i = 0; i < live->sheds_per_instance.size(); ++i) {
      std::printf("  instance %zu: sheds=%lld arrival_queue_high_water=%zu\n",
                  i, static_cast<long long>(live->sheds_per_instance[i]),
                  live->arrival_queue_high_water_per_instance[i]);
    }
    std::printf("  token streams: bit-identical to the (shed-free) virtual "
                "reference\n\n");

    bench::JsonObject e;
    e.Str("mode", "async_shed")
        .Num("replay_speedup", kShedSpeedup)
        .Int("max_batch_size", kShedBatchCap)
        .Int("shed_queue_depth", 1)
        .Int("requests", live->wall.requests)
        .Int("tokens", live->wall.tokens)
        .Num("wall_seconds", shed_wall)
        .Num("sustained_tok_per_s", live->wall.throughput_tok_s)
        .Int("shed_migrations", live->shed_migrations)
        .Int("arrival_queue_high_water",
             static_cast<int64_t>(live->arrival_queue_high_water))
        .Str("tokens_bit_identical_to_virtual", "true");
    AddPerInstanceWitnesses(*live, &e);
    bench::BenchJson::Instance().AddEntry(std::move(e));
  }

  // Epoch-barrier comparison row: the virtual fleet has no wall TTFT (its
  // latencies are virtual-frame), so the row records wall run time and
  // virtual-frame percentiles for side-by-side reading.
  bench::JsonObject e;
  e.Str("mode", "epoch_barrier_virtual")
      .Int("requests", static_cast<int64_t>(trace.size()))
      .Int("tokens", virt->tokens_generated)
      .Num("wall_seconds", virt_wall)
      .Num("virtual_ttft_p50_s", virt->combined.ttfts.Quantile(0.5))
      .Num("virtual_ttft_p99_s", virt->combined.ttfts.P99())
      .Num("slo_attainment", virt->combined.slo_attainment);
  bench::BenchJson::Instance().AddEntry(std::move(e));

  std::printf(
      "Async mode admits requests mid-step through the Inject seam (no "
      "epoch barrier);\nthe virtual mode remains the pinned bit-for-bit "
      "reference for token streams.\n");
  return 0;
}
