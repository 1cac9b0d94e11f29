#include "cache/hybrid_assigner.h"

#include <gtest/gtest.h>

#include <vector>

namespace aptserve {
namespace {

class HybridAssignerTest : public ::testing::Test {
 protected:
  HybridAssignerTest() : pool_(32, 4), assigner_(&pool_) {}
  BlockPool pool_;
  HybridCacheAssigner assigner_;
};

TEST_F(HybridAssignerTest, BlocksNeededHalvesForHidden) {
  // 10 tokens, block size 4 -> 3 blocks per component.
  EXPECT_EQ(assigner_.BlocksNeeded(CacheType::kKV, 10), 6);
  EXPECT_EQ(assigner_.BlocksNeeded(CacheType::kHidden, 10), 3);
  EXPECT_EQ(assigner_.BlocksNeeded(CacheType::kKV, 0), 0);
  EXPECT_EQ(assigner_.BlocksNeeded(CacheType::kKV, 1), 2);
  EXPECT_EQ(assigner_.BlocksNeeded(CacheType::kHidden, 4), 1);
}

TEST_F(HybridAssignerTest, CreateFilledAllocatesAndTracks) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 10).ok());
  EXPECT_TRUE(assigner_.Has(1));
  const CacheMap* map = assigner_.Find(1);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->num_tokens(), 10);
  EXPECT_EQ(map->TotalBlocks(), 6);
  EXPECT_EQ(pool_.num_allocated(), 6);
}

TEST_F(HybridAssignerTest, CreateDuplicateRejected) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 4).ok());
  EXPECT_TRUE(
      assigner_.CreateFilled(1, CacheType::kKV, 4).IsAlreadyExists());
}

TEST_F(HybridAssignerTest, CreateZeroTokensRejected) {
  EXPECT_TRUE(
      assigner_.CreateFilled(1, CacheType::kKV, 0).IsInvalidArgument());
}

TEST_F(HybridAssignerTest, AppendGrowsOnBlockBoundary) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 4).ok());
  EXPECT_EQ(pool_.num_allocated(), 2);
  // Tokens 5..8 fit after one more K/V block pair.
  ASSERT_TRUE(assigner_.Append(1, 1).ok());
  EXPECT_EQ(pool_.num_allocated(), 4);
  ASSERT_TRUE(assigner_.Append(1, 3).ok());
  EXPECT_EQ(pool_.num_allocated(), 4);  // still within the same blocks
  EXPECT_EQ(assigner_.Find(1)->num_tokens(), 8);
}

TEST_F(HybridAssignerTest, BlocksToGrow) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 4).ok());
  EXPECT_EQ(assigner_.BlocksToGrow(1, 4), 0);
  EXPECT_EQ(assigner_.BlocksToGrow(1, 5), 2);   // K and V blocks
  EXPECT_EQ(assigner_.BlocksToGrow(1, 9), 4);
  ASSERT_TRUE(assigner_.CreateFilled(2, CacheType::kHidden, 4).ok());
  EXPECT_EQ(assigner_.BlocksToGrow(2, 5), 1);
  // Unknown request: full KV need.
  EXPECT_EQ(assigner_.BlocksToGrow(99, 4), 2);
}

TEST_F(HybridAssignerTest, OutOfMemoryLeavesStateIntact) {
  // Pool of 32 blocks; a KV cache of 60 tokens needs 30 blocks.
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 60).ok());
  EXPECT_EQ(pool_.num_free(), 2);
  // Another 10-token KV request needs 6 blocks: OOM, nothing changes.
  Status s = assigner_.CreateFilled(2, CacheType::kKV, 10);
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_FALSE(assigner_.Has(2));
  EXPECT_EQ(pool_.num_free(), 2);
  // But a hidden cache of 8 tokens (2 blocks) fits.
  EXPECT_TRUE(assigner_.CreateFilled(2, CacheType::kHidden, 8).ok());
  EXPECT_EQ(pool_.num_free(), 0);
}

TEST_F(HybridAssignerTest, AppendOomKeepsExistingCache) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 60).ok());
  ASSERT_TRUE(assigner_.CreateFilled(2, CacheType::kHidden, 8).ok());
  EXPECT_EQ(pool_.num_free(), 0);
  Status s = assigner_.Append(1, 10);
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(assigner_.Find(1)->num_tokens(), 60);
}

TEST_F(HybridAssignerTest, ReleaseReturnsBlocks) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 10).ok());
  ASSERT_TRUE(assigner_.Release(1).ok());
  EXPECT_FALSE(assigner_.Has(1));
  EXPECT_EQ(pool_.num_free(), 32);
  EXPECT_TRUE(assigner_.Release(1).IsNotFound());
}

TEST_F(HybridAssignerTest, ConversionReleasesAndCounts) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 10).ok());
  ASSERT_TRUE(assigner_.DiscardForConversion(1).ok());
  EXPECT_EQ(assigner_.num_conversions(), 1);
  EXPECT_EQ(pool_.num_free(), 32);
  // Rebuild as hidden: half the blocks.
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kHidden, 10).ok());
  EXPECT_EQ(assigner_.Find(1)->type(), CacheType::kHidden);
  EXPECT_EQ(pool_.num_allocated(), 3);
}

TEST_F(HybridAssignerTest, AppendUnknownRequest) {
  EXPECT_TRUE(assigner_.Append(5, 1).IsNotFound());
}

TEST_F(HybridAssignerTest, NegativeAppendRejected) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 4).ok());
  EXPECT_TRUE(assigner_.Append(1, -1).IsInvalidArgument());
}

// The unified pool property (paper §4.3): KV and hidden caches interleave
// freely over the same blocks, with no per-type partition.
TEST_F(HybridAssignerTest, UnifiedPoolSharesBlocksAcrossTypes) {
  ASSERT_TRUE(assigner_.CreateFilled(1, CacheType::kKV, 16).ok());     // 8
  ASSERT_TRUE(assigner_.CreateFilled(2, CacheType::kHidden, 32).ok()); // 8
  ASSERT_TRUE(assigner_.CreateFilled(3, CacheType::kKV, 16).ok());     // 8
  ASSERT_TRUE(assigner_.CreateFilled(4, CacheType::kHidden, 32).ok()); // 8
  EXPECT_EQ(pool_.num_free(), 0);
  // Free the two KV requests; the reclaimed blocks serve a hidden request.
  ASSERT_TRUE(assigner_.Release(1).ok());
  ASSERT_TRUE(assigner_.Release(3).ok());
  ASSERT_TRUE(assigner_.CreateFilled(5, CacheType::kHidden, 64).ok());  // 16
  EXPECT_EQ(pool_.num_free(), 0);
}

std::vector<int32_t> Tokens(int32_t n) {
  std::vector<int32_t> t(n);
  for (int32_t i = 0; i < n; ++i) t[i] = 100 + i;
  return t;
}

// Prefix sharing lives in the assigner: a fresh KV pass adopts the
// published prompt blocks of an earlier pass and counts the adoption; a
// hidden pass never looks the index up.
TEST_F(HybridAssignerTest, PrefillAdoptsPublishedPromptBlocks) {
  assigner_.EnablePrefixSharing();
  const auto first = Tokens(8);
  auto skipped = assigner_.AllocatePrefill(1, CacheType::kKV, first, 8, 8, 8);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(*skipped, 0);
  assigner_.PublishPrompt(1, first, 8);
  ASSERT_TRUE(assigner_.Release(1).ok());
  EXPECT_EQ(pool_.num_allocated(), 4);  // the index keeps both block pairs

  // 12 tokens extending the first 8: both full blocks are adopted and only
  // the last 4 positions get blocks of their own.
  const auto second = Tokens(12);
  skipped = assigner_.AllocatePrefill(2, CacheType::kKV, second, 12, 12, 12);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(*skipped, 8);
  EXPECT_EQ(assigner_.Find(2)->num_tokens(), 12);
  EXPECT_EQ(pool_.num_allocated(), 6);
  const PrefixStats* stats = assigner_.prefix_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->lookups, 2);
  EXPECT_EQ(stats->hits, 1);
  EXPECT_EQ(stats->matched_tokens, 8);

  skipped = assigner_.AllocatePrefill(3, CacheType::kHidden, second, 12, 12,
                                      12);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(*skipped, 0);
  EXPECT_EQ(stats->lookups, 2);
}

// Seeding pins every matched block before it allocates its copy-on-write
// tail, so when only those blocks could be evicted the seeding runs out of
// memory. The pass then falls through to an unshared allocation, whose
// reclaim may evict them.
TEST(HybridAssignerSharingTest, SeedingOomFallsThroughToUnsharedPass) {
  BlockPool pool(5, 4);
  HybridCacheAssigner assigner(&pool);
  assigner.EnablePrefixSharing();
  const auto tokens = Tokens(8);
  ASSERT_TRUE(assigner.AllocatePrefill(1, CacheType::kKV, tokens, 8, 8, 8)
                  .ok());
  assigner.PublishPrompt(1, tokens, 8);
  ASSERT_TRUE(assigner.Release(1).ok());
  ASSERT_EQ(pool.num_free(), 1);

  // The same 8-token prompt matches 7 positions (one must be computed):
  // one full block pair plus a COW tail, which needs 2 free blocks.
  auto skipped = assigner.AllocatePrefill(2, CacheType::kKV, tokens, 8, 8, 8);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(*skipped, 0);
  EXPECT_EQ(assigner.Find(2)->num_tokens(), 8);
  EXPECT_EQ(assigner.num_seeded(), 0);
  EXPECT_EQ(assigner.prefix_stats()->hits, 0);
  EXPECT_EQ(assigner.prefix_stats()->evicted_blocks, 4);
}

}  // namespace
}  // namespace aptserve
