// Tests for the chunked-prefill coalescing baselines: Sarathi-Serve and
// DeepSpeed-FastGen (Sarathi with chunks as large as the token budget).
#include <gtest/gtest.h>

#include "baselines/sarathi_scheduler.h"
#include "tests/scheduler_test_util.h"

namespace aptserve {
namespace {

using testutil::FindItem;
using testutil::SchedulerFixture;

TEST(SarathiSchedulerTest, CoalescesDecodesWithPrefillChunks) {
  SchedulerFixture fx(4096, 16);
  fx.AddRunning(1, 32, 20, 3, CacheType::kKV, 0.5);
  fx.AddRunning(2, 32, 20, 3, CacheType::kKV, 0.5);
  fx.AddWaiting(3, 1000, 20, 0.2);
  SarathiConfig cfg;
  cfg.token_budget = 512;
  cfg.chunk_size = 256;
  SarathiScheduler sched(cfg);
  auto plan = sched.PlanIteration(fx.Input(1.0));
  // Mixed batch: both decodes plus one 256-token chunk of the prefill.
  ASSERT_EQ(plan.items.size(), 3u);
  EXPECT_EQ(plan.items[0].prefill_chunk, 0);
  EXPECT_EQ(plan.items[1].prefill_chunk, 0);
  const ScheduledItem* chunk = FindItem(plan, 3);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->prefill_chunk, 256);
}

TEST(SarathiSchedulerTest, FixedChunkSizeEvenWithSpareBudget) {
  SchedulerFixture fx(4096, 16);
  fx.AddWaiting(1, 1000, 20, 0.0);
  SarathiConfig cfg;
  cfg.token_budget = 512;
  cfg.chunk_size = 128;
  SarathiScheduler sched(cfg);
  auto plan = sched.PlanIteration(fx.Input(1.0));
  // Sarathi uses uniform chunks: 128 tokens even though 512 are available
  // for this request... budget allows multiple waiting requests though.
  ASSERT_FALSE(plan.items.empty());
  EXPECT_EQ(plan.items[0].prefill_chunk, 128);
}

TEST(SarathiSchedulerTest, FinalChunkSmallerThanChunkSize) {
  SchedulerFixture fx(4096, 16);
  SimRequest* w = fx.AddWaiting(1, 300, 20, 0.0);
  w->prefill_progress = 250;  // mid-pass: 50 tokens remain
  Status st = fx.assigner.CreateFilled(1, CacheType::kKV, 250);
  ASSERT_TRUE(st.ok());
  w->cached_tokens = 250;
  SarathiScheduler sched;
  auto plan = sched.PlanIteration(fx.Input(1.0));
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_EQ(plan.items[0].prefill_chunk, 50);
}

TEST(SarathiSchedulerTest, DecodesConsumeBudget) {
  SchedulerFixture fx(8192, 16);
  SarathiConfig cfg;
  cfg.token_budget = 4;
  for (int i = 0; i < 6; ++i) {
    fx.AddRunning(i, 16, 20, 2, CacheType::kKV, 0.5);
  }
  fx.AddWaiting(100, 50, 10, 0.2);
  SarathiScheduler sched(cfg);
  auto plan = sched.PlanIteration(fx.Input(1.0));
  // Budget of 4 admits only 4 decodes, no prefill chunk.
  EXPECT_EQ(plan.items.size(), 4u);
  for (const auto& item : plan.items) EXPECT_EQ(item.prefill_chunk, 0);
}

TEST(SarathiSchedulerTest, MemoryLimitStopsChunkAdmission) {
  SchedulerFixture fx(/*pool_blocks=*/4, /*block_size=*/16);
  fx.AddWaiting(1, 200, 10, 0.0);  // chunk of 256->200... needs 2*13 blocks
  SarathiScheduler sched;
  auto plan = sched.PlanIteration(fx.Input(1.0));
  EXPECT_TRUE(plan.items.empty());
}

TEST(FastGenSchedulerTest, SplitsOnlyWhenExceedingBudget) {
  SchedulerFixture fx(8192, 16);
  fx.AddWaiting(1, 300, 20, 0.0);
  fx.AddWaiting(2, 300, 20, 0.1);
  SarathiScheduler sched(SarathiConfig::FastGen());
  auto plan = sched.PlanIteration(fx.Input(1.0));
  // First prompt taken whole (300), second split to fill the budget (212).
  ASSERT_EQ(plan.items.size(), 2u);
  EXPECT_EQ(plan.items[0].prefill_chunk, 300);
  EXPECT_EQ(plan.items[1].prefill_chunk, 212);
}

TEST(FastGenSchedulerTest, DecodesFirstThenFill) {
  SchedulerFixture fx(8192, 16);
  fx.AddRunning(1, 64, 20, 4, CacheType::kKV, 0.5);
  fx.AddWaiting(2, 100, 20, 0.1);
  SarathiConfig cfg;
  cfg.token_budget = 64;
  cfg.chunk_size = 64;
  SarathiScheduler sched(cfg);
  auto plan = sched.PlanIteration(fx.Input(1.0));
  ASSERT_EQ(plan.items.size(), 2u);
  EXPECT_EQ(plan.items[0].prefill_chunk, 0);
  EXPECT_EQ(plan.items[1].prefill_chunk, 63);  // 64 - 1 decode token
}

TEST(FastGenSchedulerTest, EmptyInput) {
  SchedulerFixture fx;
  SarathiScheduler sched(SarathiConfig::FastGen());
  auto plan = sched.PlanIteration(fx.Input(0.0));
  EXPECT_TRUE(plan.items.empty());
}

}  // namespace
}  // namespace aptserve
