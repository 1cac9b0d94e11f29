#include "cache/swap_space.h"

#include <gtest/gtest.h>

#include "baselines/fcfs_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

TEST(SwapSpaceTest, AccountingRoundTrip) {
  SwapSpace swap(10);
  EXPECT_EQ(swap.free_blocks(), 10);
  ASSERT_TRUE(swap.SwapOut(1, CacheType::kKV, 32, 4).ok());
  EXPECT_TRUE(swap.Contains(1));
  EXPECT_EQ(swap.used_blocks(), 4);
  auto e = swap.SwapIn(1);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->tokens, 32);
  EXPECT_EQ(e->blocks, 4);
  EXPECT_EQ(e->type, CacheType::kKV);
  EXPECT_EQ(swap.used_blocks(), 0);
  EXPECT_FALSE(swap.Contains(1));
  EXPECT_EQ(swap.total_swap_outs(), 1);
  EXPECT_EQ(swap.total_swap_ins(), 1);
}

TEST(SwapSpaceTest, CapacityEnforced) {
  SwapSpace swap(8);
  ASSERT_TRUE(swap.SwapOut(1, CacheType::kKV, 40, 6).ok());
  EXPECT_TRUE(swap.SwapOut(2, CacheType::kKV, 40, 6).IsOutOfMemory());
  ASSERT_TRUE(swap.SwapOut(2, CacheType::kHidden, 8, 2).ok());
  EXPECT_EQ(swap.free_blocks(), 0);
}

TEST(SwapSpaceTest, DuplicateAndMissingRejected) {
  SwapSpace swap(8);
  ASSERT_TRUE(swap.SwapOut(1, CacheType::kKV, 8, 2).ok());
  EXPECT_TRUE(swap.SwapOut(1, CacheType::kKV, 8, 2).IsAlreadyExists());
  EXPECT_TRUE(swap.SwapIn(9).status().IsNotFound());
  EXPECT_TRUE(swap.Drop(9).IsNotFound());
}

TEST(SwapSpaceTest, DropFreesWithoutRestore) {
  SwapSpace swap(8);
  ASSERT_TRUE(swap.SwapOut(1, CacheType::kHidden, 16, 4).ok());
  ASSERT_TRUE(swap.Drop(1).ok());
  EXPECT_EQ(swap.used_blocks(), 0);
  EXPECT_EQ(swap.total_swap_ins(), 0);
}

TEST(SwapSpaceTest, InvalidEntriesRejected) {
  SwapSpace swap(8);
  EXPECT_TRUE(swap.SwapOut(1, CacheType::kKV, 0, 2).IsInvalidArgument());
  EXPECT_TRUE(swap.SwapOut(1, CacheType::kKV, 8, 0).IsInvalidArgument());
}

// ---- Serving-loop integration (analytic backend) ----

std::vector<Request> PressureTrace(int n = 200, uint64_t seed = 41) {
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = n;
  tc.rate_per_sec = 6.0;
  tc.cv = 5.0;
  tc.seed = seed;
  auto t = BuildTrace(tc);
  EXPECT_TRUE(t.ok());
  return *t;
}

/// Opt-13B on a 400-block pool (tight: forces preemptions).
StatusOr<ServingLoopResult> Simulate(const std::vector<Request>& trace,
                                     Scheduler* sched, const SloSpec& slo,
                                     PreemptionMode mode,
                                     int32_t swap_blocks = -1) {
  const ModelSpec m = ModelSpec::Opt13B();
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 400;
  opts.swap_blocks = swap_blocks;
  APT_ASSIGN_OR_RETURN(
      auto backend,
      CostModelBackend::Create(CostModel(m, ClusterSpec::ForModel(m)), opts));
  ServingLoopConfig loop;
  loop.preemption_mode = mode;
  return ServingLoop(backend.get(), loop).Run(trace, sched, slo);
}

TEST(SwapPreemptionTest, SwapModeCompletesAndSwaps) {
  const SloSpec slo{1.0, 1.0};
  AptConfig ac;
  ac.slo = slo;
  AptScheduler sched(ac);
  auto r = Simulate(PressureTrace(), &sched, slo, PreemptionMode::kSwap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->swap_outs, 0);
  EXPECT_EQ(r->swap_outs, r->swap_ins);  // everything swapped back in
}

TEST(SwapPreemptionTest, RecomputeModeNeverSwaps) {
  const SloSpec slo{1.0, 1.0};
  AptConfig ac;
  ac.slo = slo;
  AptScheduler sched(ac);
  auto r = Simulate(PressureTrace(), &sched, slo, PreemptionMode::kRecompute);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->swap_outs, 0);
}

TEST(SwapPreemptionTest, SwapReducesPrefillRecompute) {
  // Swapped requests skip the recompute prefill, so the swap-mode run
  // performs fewer prefill iterations under identical preemption pressure.
  const SloSpec slo{1.0, 1.0};
  auto trace = PressureTrace(250, 43);
  FcfsScheduler s1, s2;
  auto r_rec = Simulate(trace, &s1, slo, PreemptionMode::kRecompute);
  auto r_swp = Simulate(trace, &s2, slo, PreemptionMode::kSwap);
  ASSERT_TRUE(r_rec.ok() && r_swp.ok());
  if (r_swp->swap_outs > 0) {
    EXPECT_LE(r_swp->prefill_iterations, r_rec->prefill_iterations);
  }
}

TEST(SwapPreemptionTest, TinySwapSpaceFallsBackToRecompute) {
  const SloSpec slo{1.0, 1.0};
  AptConfig ac;
  ac.slo = slo;
  AptScheduler sched(ac);
  // swap_blocks = 1: nothing fits, every preemption falls back.
  auto r = Simulate(PressureTrace(), &sched, slo, PreemptionMode::kSwap,
                    /*swap_blocks=*/1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->swap_outs, 0);
}

}  // namespace
}  // namespace aptserve
