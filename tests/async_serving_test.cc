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
// thread counts, sampling modes, and flat and hierarchical (two-cell)
// fleets.
#include "serve/async_serving.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"

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

/// TinyTrace with prompt token ids: every prompt opens with one of three
/// 8-token templates, so the cell front tier hashes real prefixes (prompts
/// shorter than a full block plus one take its fallback path).
std::vector<Request> TemplatedTrace(int32_t n, uint64_t seed) {
  std::vector<Request> trace = TinyTrace(n, seed);
  Rng rng(seed + 7);
  for (Request& r : trace) {
    r.token_ids.resize(r.prompt_len);
    for (int32_t p = 0; p < r.prompt_len; ++p) {
      r.token_ids[p] = p < 8 ? static_cast<int32_t>(r.id % 3) * 8 + p
                             : static_cast<int32_t>(rng.UniformInt(0, 63));
    }
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

/// Four prefix-affinity instances; `num_cells` > 1 puts the consistent-hash
/// cell front tier in front of them.
MultiInstanceRunner AffinityRunner(int32_t num_cells) {
  RouterConfig rc;
  rc.n_instances = 4;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 8;
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  CellRouterConfig cells;
  cells.num_cells = num_cells;
  return MultiInstanceRunner(Router(rc), loop, RuntimeConfig{}, cells);
}

void ExpectSameRouteCost(const RouteCostStats& want,
                         const RouteCostStats& got) {
  EXPECT_EQ(want.decisions, got.decisions);
  EXPECT_EQ(want.instance_probes, got.instance_probes);
  EXPECT_EQ(want.mirror_nodes_walked, got.mirror_nodes_walked);
  EXPECT_EQ(want.mirror_nodes, got.mirror_nodes);
  EXPECT_EQ(want.mirror_node_peak, got.mirror_node_peak);
  EXPECT_EQ(want.mirror_evictions, got.mirror_evictions);
  EXPECT_EQ(want.cell_probes, got.cell_probes);
  EXPECT_EQ(want.cell_hash_routed, got.cell_hash_routed);
  EXPECT_EQ(want.cell_fallback_routed, got.cell_fallback_routed);
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
  // Conservation: one wall stamp per emitted token, one TTFT and one e2e
  // sample per request, a TBT gap for every other token.
  EXPECT_EQ(wall.tokens, live->serve.tokens_generated);
  EXPECT_EQ(static_cast<int64_t>(wall.tbt.count()),
            wall.tokens - wall.requests);
  EXPECT_EQ(static_cast<int64_t>(wall.e2e.count()), wall.requests);
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

TEST(AsyncServingTest, HierarchicalFleetMatchesVirtualMode) {
  // A two-cell, four-instance fleet serves in wall time through the same
  // routing code as the virtual run: same instance per request, same token
  // streams, and the same routing-cost counters, front tier included.
  for (const uint64_t seed : FuzzSeeds()) {
    for (const int32_t threads : {1, 4}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      MultiInstanceRunner runner = AffinityRunner(/*num_cells=*/2);
      const auto trace = TemplatedTrace(32, seed);
      const SamplingParams sampling = SamplingParams::Greedy();

      std::vector<TokenMap> virt_sinks(4);
      auto virt =
          runner.Run(trace, Fcfs(),
                     EngineFactory(&virt_sinks, seed, sampling, threads),
                     SloSpec{5.0, 5.0});
      ASSERT_TRUE(virt.ok()) << virt.status().ToString();

      std::vector<TokenMap> async_sinks(4);
      auto live = runner.RunAsync(
          trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, threads),
          SloSpec{5.0, 5.0}, FastReplay());
      ASSERT_TRUE(live.ok()) << live.status().ToString();

      const TokenMap want = Flatten(std::move(virt_sinks));
      ASSERT_EQ(want.size(), trace.size());
      ExpectSameTokens(want, Flatten(std::move(async_sinks)));
      EXPECT_EQ(virt->requests_per_instance,
                live->serve.requests_per_instance);
      EXPECT_GT(virt->route_cost.cell_hash_routed, 0);
      ExpectSameRouteCost(virt->route_cost, live->serve.route_cost);
    }
  }
}

TEST(AsyncServingTest, WallTraceRoutesEachRequestOnceInTheWallFrame) {
  // Virtual arrivals start at 100 s while the wall run is capped well below
  // that, so a route stamp in the virtual frame cannot pass for a wall one.
  const uint64_t seed = FuzzSeeds().front();
  for (const int32_t num_cells : {1, 2}) {
    SCOPED_TRACE("num_cells=" + std::to_string(num_cells));
    MultiInstanceRunner runner = AffinityRunner(num_cells);
    std::vector<Request> trace = TemplatedTrace(24, seed + 8);
    for (Request& r : trace) r.arrival += 100.0;

    obs::TraceRecorder recorder;
    AsyncServingConfig async = FastReplay();
    async.trace = &recorder;
    std::vector<TokenMap> sinks(4);
    auto live = runner.RunAsync(
        trace, Fcfs(), EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1),
        SloSpec{5.0, 5.0}, async);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_LT(live->wall_duration_s, 100.0);

    const std::vector<obs::TraceEvent> events = recorder.Flush();
    std::unordered_map<RequestId, int32_t> decisions;
    int64_t cell_spans = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.op == obs::TraceOp::kRouteDecision &&
          e.track == obs::kRouterTrack) {
        ++decisions[e.id];
        // Trace ids are trace indexes: routed no earlier than due, and
        // before the run drained.
        const double due = trace[e.id].arrival / async.replay_speedup;
        EXPECT_GE(e.ts, due - 1e-9) << "request " << e.id;
        EXPECT_LE(e.ts, live->wall_duration_s) << "request " << e.id;
      }
      if (e.op == obs::TraceOp::kQueueWait &&
          e.kind == obs::EventKind::kSpan && e.track <= obs::kCellTrackBase) {
        ++cell_spans;
      }
    }
    ASSERT_EQ(decisions.size(), trace.size());
    for (const auto& [id, n] : decisions) {
      EXPECT_EQ(n, 1) << "request " << id;
    }
    EXPECT_EQ(cell_spans,
              num_cells > 1 ? static_cast<int64_t>(trace.size()) : 0);

    auto stats = obs::CheckTraceEvents(events);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->queue_wait_spans, 0);
  }
}

TEST(AsyncServingTest, FleetReportsCarryJainFairness) {
  // The merged fleet report computes Jain's index over its merged TTFTs,
  // in virtual time and in the wall run's virtual-frame report alike.
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner = TwoInstanceRunner();
  const auto trace = TinyTrace(24, seed + 6);
  const SamplingParams sampling = SamplingParams::Greedy();

  std::vector<TokenMap> virt_sinks(2);
  auto virt = runner.Run(trace, Fcfs(),
                         EngineFactory(&virt_sinks, seed, sampling, 1),
                         SloSpec{5.0, 5.0});
  ASSERT_TRUE(virt.ok()) << virt.status().ToString();
  std::vector<TokenMap> async_sinks(2);
  auto live = runner.RunAsync(trace, Fcfs(),
                              EngineFactory(&async_sinks, seed, sampling, 1),
                              SloSpec{5.0, 5.0}, FastReplay());
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  for (const SloReport* r : {&virt->combined, &live->serve.combined}) {
    ASSERT_EQ(r->ttfts.count(), trace.size());
    EXPECT_EQ(r->jain_fairness_ttft, JainFairnessIndex(r->ttfts.samples()));
    EXPECT_GT(r->jain_fairness_ttft, 0.0);
  }
}

TEST(AsyncServingTest, WallArrivalIsTheDueInstantUnderBackpressure) {
  // A burst at t=0 through a one-slot arrival queue: the controller blocks
  // on every Push until the worker drains the previous request, so later
  // requests reach the instance long after they were due. Wall latency is
  // measured from the due instant, so the time a request spent waiting
  // behind the blocked controller counts: every request is due at 0, and
  // the last one to finish must report the whole run as its e2e latency.
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
  EXPECT_EQ(live->arrival_queue_high_water, 1u);  // the controller did block
  const WallLatencyReport& wall = live->wall;
  EXPECT_EQ(wall.requests, static_cast<int64_t>(trace.size()));
  EXPECT_GT(wall.duration_s, 0.0);
  EXPECT_DOUBLE_EQ(wall.e2e.max(), wall.duration_s);
}

TEST(AsyncServingTest, SingleInstanceFleetDrains) {
  // Degenerate fleet: one worker, everything through one queue.
  const uint64_t seed = FuzzSeeds().front();
  MultiInstanceRunner runner(Router(RoundRobin(1)), ServingLoopConfig{});
  const auto trace = TinyTrace(10, seed + 4);

  AsyncServingConfig async = FastReplay();
  std::vector<TokenMap> sinks(1);
  auto live = runner.RunAsync(
      trace, Fcfs(), EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1),
      SloSpec{5.0, 5.0}, async);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(Flatten(std::move(sinks)).size(), trace.size());
}

}  // namespace
}  // namespace aptserve
