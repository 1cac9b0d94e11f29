// PreemptionMode::kSwap regression tests, run against BOTH execution
// backends through the shared ServingLoop: swap round trips, the
// full-swap-space -> recompute fallback, and the type-conversion ->
// discard fallback now behave identically on the analytic simulator and
// the real inference engine (before the serve/ refactor only the
// simulator implemented them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/cost_model_backend.h"
#include "serve/inference_backend.h"
#include "serve/serving_loop.h"

namespace aptserve {
namespace {

CacheType Other(CacheType t) {
  return t == CacheType::kKV ? CacheType::kHidden : CacheType::kKV;
}

/// FCFS-like test scheduler that forces preemptions: every `period`-th
/// planning call it preempts the most recently admitted running request —
/// resuming with the same cache type (swap-eligible) or, with `convert`,
/// the other type (which must bypass the swap and discard instead).
class PreemptingScheduler : public Scheduler {
 public:
  PreemptingScheduler(int32_t period, bool convert)
      : period_(period), convert_(convert) {}

  BatchPlan PlanIteration(const SchedulerInput& input) override {
    BatchPlan plan;
    ++calls_;
    const SimRequest* victim = nullptr;
    if (calls_ % period_ == 0 && !input.running.empty()) {
      victim = input.running.back();
      const CacheType resume =
          convert_ ? Other(victim->cache_type) : victim->cache_type;
      plan.preempt.push_back({victim->spec.id, resume});
    }
    for (const SimRequest* r : input.running) {
      if (r == victim) continue;
      plan.items.push_back({r->spec.id, r->cache_type, 0});
    }
    for (const SimRequest* w : input.waiting) {
      const int32_t remaining = w->PrefillTarget() - w->prefill_progress;
      // Swapped requests have remaining == 1; scheduling them performs the
      // swap-in. Fresh/preempted requests get their full prefill pass.
      plan.items.push_back({w->spec.id, w->cache_type,
                            std::max(remaining, 1)});
    }
    return plan;
  }

  std::string name() const override { return "preempting-test"; }

 private:
  int32_t period_;
  bool convert_;
  int64_t calls_ = 0;
};

std::vector<Request> BurstTrace(int32_t n, int32_t prompt, int32_t output) {
  std::vector<Request> trace;
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = prompt;
    r.output_len = output;
    r.arrival = 0.0;
    trace.push_back(r);
  }
  return trace;
}

// ---- CostModelBackend ------------------------------------------------------

CostModelBackend::Options SimOpts() {
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 64;
  return opts;
}

/// Swap-mode serving loop over a fresh Opt-13B analytic backend.
StatusOr<ServingLoopResult> SimRun(const std::vector<Request>& trace,
                                   Scheduler* sched,
                                   const CostModelBackend::Options& opts =
                                       SimOpts()) {
  const ModelSpec m = ModelSpec::Opt13B();
  APT_ASSIGN_OR_RETURN(
      auto backend,
      CostModelBackend::Create(CostModel(m, ClusterSpec::ForModel(m)), opts));
  ServingLoopConfig loop;
  loop.preemption_mode = PreemptionMode::kSwap;
  return ServingLoop(backend.get(), loop)
      .Run(trace, sched, SloSpec{10.0, 10.0});
}

TEST(SimSwapTest, SwapRoundTripServesTraceToCompletion) {
  PreemptingScheduler sched(/*period=*/5, /*convert=*/false);
  auto r = SimRun(BurstTrace(3, 100, 40), &sched);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->swap_outs, 0);
  EXPECT_EQ(r->swap_outs, r->swap_ins);  // every swap-out came back
  EXPECT_GT(r->report.preemptions, 0);
  EXPECT_EQ(r->report.conversions, 0);
}

TEST(SimSwapTest, FullSwapSpaceFallsBackToRecompute) {
  CostModelBackend::Options opts = SimOpts();
  opts.swap_blocks = 1;  // nothing fits: every swap attempt must fall back
  PreemptingScheduler sched(5, false);
  auto r = SimRun(BurstTrace(3, 100, 40), &sched, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->swap_outs, 0);
  EXPECT_GT(r->report.preemptions, 0);  // recompute preemptions happened
}

TEST(SimSwapTest, ConversionBypassesSwap) {
  PreemptingScheduler sched(5, /*convert=*/true);
  auto r = SimRun(BurstTrace(3, 100, 40), &sched);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->swap_outs, 0);  // conversions discard, never swap
  EXPECT_GT(r->report.conversions, 0);
}

// ---- InferenceBackend ------------------------------------------------------

InferenceBackendOptions EngineOpts() {
  InferenceBackendOptions opts;
  opts.virtual_timing = true;  // deterministic timeline
  return opts;
}

/// A fresh Tiny engine: weight seed 42, 64 blocks of 4.
std::unique_ptr<InferenceBackend> MakeEngine(
    const InferenceBackendOptions& opts = EngineOpts()) {
  return std::make_unique<InferenceBackend>(
      ModelConfig::Tiny(), /*weight_seed=*/42, /*num_blocks=*/64,
      /*block_size=*/4, SamplingParams{}, opts);
}

StatusOr<ServingLoopResult> EngineRun(
    InferenceBackend* backend, const std::vector<Request>& trace,
    Scheduler* sched, PreemptionMode mode = PreemptionMode::kSwap) {
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  loop.max_iterations = 2'000'000;
  loop.preemption_mode = mode;
  return ServingLoop(backend, loop).Run(trace, sched, SloSpec{10.0, 10.0});
}

TEST(EngineSwapTest, SwapRoundTripServesTraceToCompletion) {
  auto engine = MakeEngine();
  PreemptingScheduler sched(/*period=*/3, /*convert=*/false);
  const auto trace = BurstTrace(3, 12, 10);
  auto r = EngineRun(engine.get(), trace, &sched);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->swap_outs, 0);
  EXPECT_EQ(r->swap_outs, r->swap_ins);
  EXPECT_EQ(r->tokens_generated, 3 * 10);
  EXPECT_EQ(engine->engine().pool().num_allocated(), 0);
}

TEST(EngineSwapTest, SwapAndRecomputeProduceIdenticalTokens) {
  // Swap-in restores the cache bit-identically and recompute rebuilds it
  // from the same tokens, so with greedy sampling the generated sequences
  // must agree between the two preemption modes.
  const auto trace = BurstTrace(3, 12, 10);
  auto swap_engine = MakeEngine();
  auto recompute_engine = MakeEngine();

  PreemptingScheduler s1(3, false);
  PreemptingScheduler s2(3, false);
  auto swap_r = EngineRun(swap_engine.get(), trace, &s1);
  auto rec_r = EngineRun(recompute_engine.get(), trace, &s2,
                         PreemptionMode::kRecompute);
  ASSERT_TRUE(swap_r.ok()) << swap_r.status().ToString();
  ASSERT_TRUE(rec_r.ok()) << rec_r.status().ToString();
  EXPECT_GT(swap_r->swap_outs, 0);
  EXPECT_EQ(rec_r->swap_outs, 0);
  const auto swap_tokens = swap_engine->TakeFinishedTokens();
  const auto rec_tokens = recompute_engine->TakeFinishedTokens();
  ASSERT_EQ(swap_tokens.size(), rec_tokens.size());
  for (const auto& [id, toks] : swap_tokens) {
    auto it = rec_tokens.find(id);
    ASSERT_NE(it, rec_tokens.end());
    EXPECT_EQ(toks, it->second) << "request " << id;
  }
}

TEST(EngineSwapTest, FullSwapSpaceFallsBackToRecompute) {
  InferenceBackendOptions opts = EngineOpts();
  opts.swap_blocks = 1;
  auto engine = MakeEngine(opts);
  PreemptingScheduler sched(3, false);
  auto r = EngineRun(engine.get(), BurstTrace(3, 12, 10), &sched);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->swap_outs, 0);
  EXPECT_GT(r->report.preemptions, 0);
  EXPECT_EQ(r->tokens_generated, 3 * 10);
}

TEST(EngineSwapTest, ConversionBypassesSwap) {
  auto engine = MakeEngine();
  PreemptingScheduler sched(3, /*convert=*/true);
  auto r = EngineRun(engine.get(), BurstTrace(3, 12, 10), &sched);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->swap_outs, 0);
  EXPECT_GT(r->report.conversions, 0);
  EXPECT_EQ(r->tokens_generated, 3 * 10);
}

// ---- Prefix sharing under swap preemption ---------------------------------
// Refcount churn: two bursts of identical prompts. The first burst fills
// the index; the second (arriving after the first drained) adopts its
// blocks, so every second-wave request holds shared references while the
// preempting scheduler swaps them out (shared references release, blocks
// survive via the index) and back in (as private copies). No step may ever
// free a block another request still references.

std::vector<Request> TwoWaveSharedTrace(int32_t per_wave, int32_t prompt,
                                        int32_t output, double wave_gap) {
  std::vector<Request> trace = BurstTrace(2 * per_wave, prompt, output);
  std::vector<int32_t> ids(prompt);
  for (int32_t i = 0; i < prompt; ++i) ids[i] = (3 + i * 7) % 64;
  for (int32_t i = 0; i < 2 * per_wave; ++i) {
    trace[i].token_ids = ids;  // one content for everyone: maximal sharing
    trace[i].arrival = i < per_wave ? 0.0 : wave_gap;
  }
  return trace;
}

TEST(EngineSwapTest, SwapPreemptionWithSharingKeepsReferencedBlocksSafe) {
  InferenceBackendOptions opts = EngineOpts();
  opts.enable_prefix_sharing = true;
  auto engine = MakeEngine(opts);
  PreemptingScheduler sched(/*period=*/3, /*convert=*/false);
  // Wave 1 (3 requests, ~36 virtual items) drains long before wave 2
  // arrives at t=1.
  const auto trace = TwoWaveSharedTrace(3, 12, 10, 1.0);
  auto r = EngineRun(engine.get(), trace, &sched);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->swap_outs, 0);
  EXPECT_EQ(r->swap_outs, r->swap_ins);
  EXPECT_GE(r->prefix.hits, 3);  // every wave-2 request adopts wave 1's blocks
  EXPECT_EQ(r->tokens_generated, 6 * 10);
  // All requests drained; only the index still owns blocks, every one of
  // them at refcount 1 — i.e. no reference was leaked or double-freed
  // through the swap round trips.
  EXPECT_EQ(engine->engine().pool().num_allocated(),
            engine->engine().assigner().prefix_index()->indexed_blocks());
  EXPECT_EQ(engine->engine().pool().num_shared(), 0);

  // Tokens must match the sharing-enabled recompute-mode run: swap-in
  // restores payload bit-identically even when the swapped map held
  // previously shared blocks.
  auto recompute = MakeEngine(opts);
  PreemptingScheduler sched2(/*period=*/3, /*convert=*/false);
  auto rec = EngineRun(recompute.get(), trace, &sched2,
                       PreemptionMode::kRecompute);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const auto tokens = engine->TakeFinishedTokens();
  const auto rec_tokens = recompute->TakeFinishedTokens();
  ASSERT_EQ(tokens.size(), rec_tokens.size());
  for (const auto& [id, toks] : tokens) {
    auto it = rec_tokens.find(id);
    ASSERT_NE(it, rec_tokens.end());
    EXPECT_EQ(toks, it->second) << "request " << id;
  }
}

TEST(SimSwapTest, SwapPreemptionWithSharingDrainsCleanly) {
  CostModelBackend::Options opts = SimOpts();
  opts.enable_prefix_sharing = true;
  PreemptingScheduler sched(/*period=*/5, /*convert=*/false);
  // Wave 2 arrives far after wave 1 drained on the virtual timeline, so
  // its requests adopt wave 1's indexed blocks; identical token content
  // across all requests (the analytic backend would otherwise synthesize
  // per-id content that never matches).
  const auto trace = TwoWaveSharedTrace(3, 100, 40, /*wave_gap=*/500.0);
  auto r = SimRun(trace, &sched, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->swap_outs, 0);
  EXPECT_EQ(r->swap_outs, r->swap_ins);
  EXPECT_GE(r->prefix.hits, 3);
  EXPECT_GT(r->prefill_tokens_skipped, 0);
}

}  // namespace
}  // namespace aptserve
