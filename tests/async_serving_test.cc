// Async wall-clock serving: the replay-based differential suite pinning
// the determinism contract (async_serving.h / DESIGN.md "Async serving").
//
// The virtual-time fleet is the bit-for-bit reference. The async mode runs
// the same trace through real worker threads with real-time arrival replay
// and mid-step injection; its batch composition is wall-clock-dependent
// and therefore nondeterministic — but every request's token stream must
// be bit-identical to the virtual run, because (a) per-position logits are
// a pure function of the request's own tokens, (b) sampling is
// counter-based per (seed, request, position), and (c) routing replays the
// virtual assignment. The differential tests enforce exactly that, across
// seeds (overridable via APTSERVE_FUZZ_SEEDS for the CI matrix), engine
// thread counts, sampling modes, and live shedding migration.
#include "serve/async_serving.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "common/env.h"
#include "common/rng.h"
#include "engine/model_config.h"
#include "engine/sampling.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "workload/request.h"

namespace aptserve {
namespace {

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

std::vector<uint64_t> FuzzSeeds() {
  // Strict parse with a warning on malformed tokens (std::stoull threw on
  // garbage and silently truncated partial parses like "4x").
  return env::FuzzSeedsFromEnv({41, 137});
}

std::vector<Request> TinyTrace(int32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> trace;
  trace.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 14));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 6));
    r.arrival = 0.02 * i;
    trace.push_back(r);
  }
  return trace;
}

/// Factory pair: per-instance real engines writing finished token streams
/// into caller-owned sinks (one map per instance; instances run on
/// separate threads, so sinks must not be shared).
BackendFactory EngineFactory(std::vector<TokenMap>* sinks, uint64_t seed,
                             const SamplingParams& sampling,
                             int32_t num_threads) {
  return [sinks, seed, sampling,
          num_threads](int32_t i) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions options;
    options.virtual_timing = true;
    options.prompt_seed = seed + 100;
    options.runtime.num_threads = num_threads;
    options.finished_sink = &(*sinks)[static_cast<size_t>(i)];
    return std::unique_ptr<ExecutionBackend>(std::make_unique<InferenceBackend>(
        ModelConfig::Tiny(), /*weight_seed=*/seed + i,
        /*num_blocks=*/128, /*block_size=*/8, sampling, options));
  };
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

TokenMap Flatten(std::vector<TokenMap> sinks) {
  TokenMap all;
  for (TokenMap& m : sinks) {
    for (auto& [id, toks] : m) {
      EXPECT_EQ(all.count(id), 0u) << "request " << id << " finished twice";
      all[id] = std::move(toks);
    }
  }
  return all;
}

void ExpectSameTokens(const TokenMap& want, const TokenMap& got) {
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [id, toks] : want) {
    auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "request " << id << " missing";
    ASSERT_EQ(toks, it->second) << "token stream diverged for request " << id;
  }
}

RouterConfig RoundRobin(int32_t n) {
  RouterConfig rc;
  rc.n_instances = n;
  rc.policy = RoutePolicy::kRoundRobin;
  return rc;
}

MultiInstanceRunner TwoInstanceRunner() {
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  return MultiInstanceRunner(Router(RoundRobin(2)), loop);
}

AsyncServingConfig FastReplay() {
  AsyncServingConfig async;
  // Replay the whole virtual arrival span in well under a second of wall
  // time; continuous batching still sees real interleaving.
  async.replay_speedup = 2000.0;
  async.max_wall_seconds = 60.0;
  return async;
}

TEST(AsyncServingTest, GreedyTokenStreamsMatchVirtualMode) {
  for (const uint64_t seed : FuzzSeeds()) {
    for (const int32_t threads : {1, 4}) {
      MultiInstanceRunner runner = TwoInstanceRunner();
      const auto trace = TinyTrace(24, seed);
      const SamplingParams sampling = SamplingParams::Greedy();

      std::vector<TokenMap> virt_sinks(2);
      auto virt = runner.Run(trace, Fcfs(),
                             EngineFactory(&virt_sinks, seed, sampling, threads),
                             SloSpec{5.0, 5.0});
      ASSERT_TRUE(virt.ok()) << virt.status().ToString();

      std::vector<TokenMap> async_sinks(2);
      auto live = runner.RunAsync(
          trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, threads),
          SloSpec{5.0, 5.0}, FastReplay());
      ASSERT_TRUE(live.ok()) << live.status().ToString();

      const TokenMap want = Flatten(std::move(virt_sinks));
      const TokenMap got = Flatten(std::move(async_sinks));
      ASSERT_EQ(want.size(), trace.size());
      ExpectSameTokens(want, got);
      // Routing replay: the same instances served the same request counts.
      EXPECT_EQ(virt->requests_per_instance,
                live->serve.requests_per_instance)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(AsyncServingTest, StochasticTokenStreamsMatchVirtualMode) {
  // Counter-based sampling makes stochastic streams a pure function of
  // (seed, request, position) — invariant to wall-clock batch composition.
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner = TwoInstanceRunner();
  const auto trace = TinyTrace(20, seed + 1);
  const SamplingParams sampling = SamplingParams::TopK(8, 0.9);

  std::vector<TokenMap> virt_sinks(2);
  auto virt = runner.Run(trace, Fcfs(),
                         EngineFactory(&virt_sinks, seed, sampling, 1),
                         SloSpec{5.0, 5.0});
  ASSERT_TRUE(virt.ok()) << virt.status().ToString();

  std::vector<TokenMap> async_sinks(2);
  auto live =
      runner.RunAsync(trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, 1),
                      SloSpec{5.0, 5.0}, FastReplay());
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  ExpectSameTokens(Flatten(std::move(virt_sinks)),
                   Flatten(std::move(async_sinks)));
}

TEST(AsyncServingTest, SheddingMigrationPreservesTokensAndCountsRequests) {
  // Aggressive shedding: workers export waiting requests (cache state
  // included) to the coolest instance mid-run. Conservation: every request
  // finishes exactly once somewhere; purity: token streams still match the
  // (shed-free) virtual reference bit-for-bit.
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner = TwoInstanceRunner();
  const auto trace = TinyTrace(24, seed + 2);
  const SamplingParams sampling = SamplingParams::Greedy();

  std::vector<TokenMap> virt_sinks(2);
  auto virt = runner.Run(trace, Fcfs(),
                         EngineFactory(&virt_sinks, seed, sampling, 1),
                         SloSpec{5.0, 5.0});
  ASSERT_TRUE(virt.ok()) << virt.status().ToString();

  AsyncServingConfig async = FastReplay();
  async.shed_queue_depth = 1;  // shed on any queue depth over one
  std::vector<TokenMap> async_sinks(2);
  auto live =
      runner.RunAsync(trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, 1),
                      SloSpec{5.0, 5.0}, async);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  int32_t total = 0;
  for (const int32_t c : live->serve.requests_per_instance) total += c;
  EXPECT_EQ(total, static_cast<int32_t>(trace.size()));
  EXPECT_GE(live->shed_migrations, 0);
  ExpectSameTokens(Flatten(std::move(virt_sinks)),
                   Flatten(std::move(async_sinks)));
}

TEST(AsyncServingTest, WallMetricsAreInternallyConsistent) {
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner = TwoInstanceRunner();
  const auto trace = TinyTrace(16, seed + 3);

  std::vector<TokenMap> sinks(2);
  auto live = runner.RunAsync(
      trace, Fcfs(), EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1),
      SloSpec{5.0, 5.0}, FastReplay());
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  const WallLatencyReport& wall = live->wall;
  EXPECT_EQ(wall.requests, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(wall.ttft.count(), trace.size());
  EXPECT_GT(wall.tokens, 0);
  EXPECT_GT(wall.duration_s, 0.0);
  EXPECT_GT(wall.throughput_tok_s, 0.0);
  // Quantiles are monotone and clamped to the observed range.
  EXPECT_LE(wall.ttft.P50(), wall.ttft.P95());
  EXPECT_LE(wall.ttft.P95(), wall.ttft.P99());
  EXPECT_GE(wall.ttft.P50(), wall.ttft.min());
  EXPECT_LE(wall.ttft.P99(), wall.ttft.max());
  EXPECT_GT(live->wall_duration_s, 0.0);
  EXPECT_LE(live->arrival_queue_high_water, AsyncServingConfig{}.queue_capacity);
  // Virtual-frame report still comes along for the ride.
  EXPECT_EQ(live->serve.combined.ttfts.count(), trace.size());
}

TEST(AsyncServingTest, HierarchicalFleetRejected) {
  // The cell front tier runs on the virtual-time routing path only.
  CellRouterConfig cells;
  cells.num_cells = 2;
  MultiInstanceRunner runner(Router(RoundRobin(2)), ServingLoopConfig{},
                             RuntimeConfig{}, cells);
  std::vector<TokenMap> sinks(2);
  auto result = runner.RunAsync(
      TinyTrace(4, 1), Fcfs(),
      EngineFactory(&sinks, 1, SamplingParams::Greedy(), 1), SloSpec{5.0, 5.0},
      AsyncServingConfig{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AsyncServingTest, WallArrivalIsTheDueInstantUnderBackpressure) {
  // A burst at t=0 through a one-slot arrival queue: the feeder blocks on
  // every Push until the worker drains the previous request, so later
  // requests reach the instance long after they were due. Wall latency is
  // measured from the due instant, so the time a request spent waiting
  // behind the blocked feeder counts: every request is due at 0, and the
  // last one to finish must report the whole run as its e2e latency.
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner(Router(RoundRobin(1)), ServingLoopConfig{});
  std::vector<Request> trace = TinyTrace(32, seed + 5);
  for (Request& r : trace) r.arrival = 0.0;

  AsyncServingConfig async = FastReplay();
  async.queue_capacity = 1;
  std::vector<TokenMap> sinks(1);
  auto live = runner.RunAsync(
      trace, Fcfs(), EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1),
      SloSpec{5.0, 5.0}, async);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live->arrival_queue_high_water, 1u);  // the feeder did block
  const WallLatencyReport& wall = live->wall;
  EXPECT_EQ(wall.requests, static_cast<int64_t>(trace.size()));
  EXPECT_GT(wall.duration_s, 0.0);
  EXPECT_DOUBLE_EQ(wall.e2e.max(), wall.duration_s);
}

TEST(AsyncServingTest, SingleInstanceFleetDrains) {
  // Degenerate fleet: one worker, everything through one queue; a lone
  // instance must also receive its own shed back without deadlocking.
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner(Router(RoundRobin(1)), ServingLoopConfig{});
  const auto trace = TinyTrace(10, seed + 4);

  AsyncServingConfig async = FastReplay();
  async.shed_queue_depth = 1;
  std::vector<TokenMap> sinks(1);
  auto live = runner.RunAsync(
      trace, Fcfs(), EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1),
      SloSpec{5.0, 5.0}, async);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(Flatten(std::move(sinks)).size(), trace.size());
}

}  // namespace
}  // namespace aptserve
