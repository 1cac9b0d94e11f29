#include "cache/hybrid_assigner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "common/env.h"

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

// ---- Seeded property test ---------------------------------------------------
//
// Random sequences of every cache operation over a small pool, with and
// without prefix sharing, against a model of which requests are live. After
// every operation:
//  - each live request's Find pointer is the one it had when its cache was
//    created, whatever other requests did since (the engine keeps these
//    pointers across a batch);
//  - each map has the type, fill and K/V lockstep the model expects;
//  - every block's refcount is its owning maps plus at most one index pin,
//    and the pins add up to the index's block count;
//  - num_requests() is the live set.
// Every release is probed: the blocks that left the pool must come back
// out of its LIFO free list in exactly reversed K, V, hidden order. An
// allocation that runs out of memory changes nothing but the index-only
// blocks its reclaim evicted.

class AssignerProperty {
 public:
  AssignerProperty(uint64_t seed, bool sharing)
      : rng_(seed), pool_(kBlocks, kBlockSize), assigner_(&pool_) {
    if (sharing) assigner_.EnablePrefixSharing();
  }

  void Run(int32_t ops) {
    for (int32_t op = 0; op < ops && !::testing::Test::HasFatalFailure();
         ++op) {
      Step();
      CheckInvariants();
    }
  }

  /// Coverage: allocations that ran out of memory, and restored positions
  /// deduped against the index.
  int64_t ooms() const { return ooms_; }
  int64_t deduped() const { return deduped_; }
  const HybridCacheAssigner& assigner() const { return assigner_; }

 private:
  static constexpr int32_t kBlocks = 64;
  static constexpr int32_t kBlockSize = 4;
  static constexpr RequestId kIds = 12;

  struct Live {
    const CacheMap* map = nullptr;
    CacheType type = CacheType::kKV;
    int32_t tokens = 0;
    int32_t target = 0;  // prefill target; 0 for CreateFilled caches
    std::vector<int32_t> prompt;
  };

  int32_t Uniform(int32_t lo, int32_t hi) {
    return std::uniform_int_distribution<int32_t>(lo, hi)(rng_);
  }
  CacheType AnyType() {
    return Uniform(0, 2) == 0 ? CacheType::kHidden : CacheType::kKV;
  }
  /// Prompts from three families sharing an 8-token stem, so matches end
  /// on and off block boundaries.
  std::vector<int32_t> Prompt() {
    const int32_t family = Uniform(0, 2);
    std::vector<int32_t> p(Uniform(5, 20));
    for (int32_t i = 0; i < static_cast<int32_t>(p.size()); ++i) {
      p[i] = i < 8 ? 1 + i : 1000 * (family + 1) + i;
    }
    return p;
  }

  void Step() {
    const RequestId id = Uniform(0, kIds - 1);
    auto it = live_.find(id);
    indexed_before_ = IndexedBlocks();
    const int32_t free_before = pool_.num_free();
    if (it == live_.end()) {
      if (Uniform(0, 3) == 0) {
        const CacheType type = AnyType();
        const int32_t n = Uniform(1, 24);
        const Status st = assigner_.CreateFilled(id, type, n);
        if (st.IsOutOfMemory()) {
          ExpectOnlyEvictions(free_before);
          return;
        }
        ASSERT_TRUE(st.ok()) << st.ToString();
        Adopt(id, type, n, 0, {});
      } else {
        StartPrefill(id, free_before);
      }
      return;
    }
    Live& l = it->second;
    switch (Uniform(0, 6)) {
      case 0: {  // prefill continuation, or decode growth
        if (l.target > l.tokens) {
          const int32_t chunk = Uniform(1, l.target - l.tokens);
          auto r = assigner_.AllocatePrefill(id, l.type, l.prompt,
                                             PromptLen(l), l.target, chunk);
          if (r.status().IsOutOfMemory()) {
            ExpectOnlyEvictions(free_before);
            return;
          }
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(*r, 0);
          l.tokens += chunk;
          return;
        }
        [[fallthrough]];
      }
      case 1: {
        const int32_t k = Uniform(0, 6);
        const Status st = assigner_.Append(id, k);
        if (st.IsOutOfMemory()) {
          ExpectOnlyEvictions(free_before);
          return;
        }
        ASSERT_TRUE(st.ok()) << st.ToString();
        l.tokens += k;
        return;
      }
      case 2:
        ExpectReleaseOrder(id, [&] { return assigner_.Release(id); });
        live_.erase(it);
        return;
      case 3: {
        const int64_t before = assigner_.num_conversions();
        ExpectReleaseOrder(id,
                           [&] { return assigner_.DiscardForConversion(id); });
        EXPECT_EQ(assigner_.num_conversions(), before + 1);
        live_.erase(it);
        return;
      }
      case 4:
        Migrate(id, it);
        return;
      case 5:
        if (l.target > 0 && l.type == CacheType::kKV &&
            l.tokens >= PromptLen(l)) {
          assigner_.PublishPrompt(id, l.prompt, PromptLen(l));
        }
        return;
      default:
        assigner_.ReclaimPrefixBlocks(Uniform(1, 8));
        return;
    }
  }

  int32_t IndexedBlocks() const {
    const PrefixIndex* index = assigner_.prefix_index();
    return index != nullptr ? index->indexed_blocks() : 0;
  }

  /// A failed allocation leaves every owned block as it was; the only
  /// blocks it may have returned are index-only ones its reclaim evicted.
  void ExpectOnlyEvictions(int32_t free_before) {
    ++ooms_;
    EXPECT_EQ(pool_.num_free() - free_before,
              indexed_before_ - IndexedBlocks());
  }

  static int32_t PromptLen(const Live& l) {
    return static_cast<int32_t>(l.prompt.size());
  }

  void StartPrefill(RequestId id, int32_t free_before) {
    std::vector<int32_t> prompt = Prompt();
    const int32_t prompt_len = static_cast<int32_t>(prompt.size());
    const int32_t target = prompt_len + Uniform(0, 4);
    const CacheType type = AnyType();
    const int32_t chunk = Uniform(1, target);
    auto r = assigner_.AllocatePrefill(id, type, prompt, prompt_len, target,
                                       chunk);
    if (r.status().IsOutOfMemory()) {
      ExpectOnlyEvictions(free_before);
      EXPECT_FALSE(assigner_.Has(id));
      return;
    }
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LE(*r, std::min(prompt_len, target - 1));
    if (type == CacheType::kHidden) EXPECT_EQ(*r, 0);
    Adopt(id, type, *r + std::min(chunk, target - *r), target,
          std::move(prompt));
  }

  void Migrate(RequestId id, std::map<RequestId, Live>::iterator it) {
    auto image = assigner_.SerializeRequestCache(id);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    EXPECT_EQ(image->type, it->second.type);
    EXPECT_EQ(image->num_tokens, it->second.tokens);
    Live moved = std::move(it->second);
    ExpectReleaseOrder(id, [&] { return assigner_.ReleaseExported(id); });
    live_.erase(it);
    if (Uniform(0, 1) == 0) return;  // it stays away
    // ... or it migrates back in.
    indexed_before_ = IndexedBlocks();
    const int32_t free_before = pool_.num_free();
    auto deduped = assigner_.RestoreRequestCache(id, *image, moved.prompt,
                                                 PromptLen(moved));
    if (deduped.status().IsOutOfMemory()) {
      ExpectOnlyEvictions(free_before);
      EXPECT_FALSE(assigner_.Has(id));
      return;
    }
    ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
    EXPECT_LE(*deduped, image->num_tokens);
    deduped_ += *deduped;
    Adopt(id, moved.type, image->num_tokens, moved.target,
          std::move(moved.prompt));
  }

  void Adopt(RequestId id, CacheType type, int32_t tokens, int32_t target,
             std::vector<int32_t> prompt) {
    const CacheMap* map = assigner_.Find(id);
    ASSERT_NE(map, nullptr);
    live_[id] = Live{map, type, tokens, target, std::move(prompt)};
  }

  /// Runs a release of `id`'s cache and checks the blocks it returned to
  /// the free list came back in K, V, hidden order, then restores the
  /// free list exactly.
  template <typename ReleaseFn>
  void ExpectReleaseOrder(RequestId id, ReleaseFn release) {
    const CacheMap* map = assigner_.Find(id);
    ASSERT_NE(map, nullptr);
    std::vector<BlockId> freed;
    for (CacheComponent c : {CacheComponent::kKey, CacheComponent::kValue,
                             CacheComponent::kHidden}) {
      for (BlockId b : map->blocks(c)) {
        if (pool_.RefCount(b) == 1) freed.push_back(b);
      }
    }
    const Status st = release();
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_FALSE(assigner_.Has(id));
    std::vector<BlockId> popped;
    ASSERT_TRUE(
        pool_.AllocateMany(static_cast<int32_t>(freed.size()), &popped).ok());
    std::reverse(popped.begin(), popped.end());
    EXPECT_EQ(popped, freed) << "request " << id;
    pool_.FreeMany(freed);
  }

  void CheckInvariants() {
    ASSERT_EQ(assigner_.num_requests(), live_.size());
    std::vector<int32_t> owners(kBlocks, 0);
    int64_t owned = 0;
    for (RequestId id = 0; id < kIds; ++id) {
      auto it = live_.find(id);
      ASSERT_EQ(assigner_.Has(id), it != live_.end()) << "request " << id;
      if (it == live_.end()) continue;
      const Live& l = it->second;
      const CacheMap* map = assigner_.Find(id);
      ASSERT_EQ(map, l.map) << "request " << id << "'s map moved";
      ASSERT_EQ(map->type(), l.type);
      ASSERT_EQ(map->num_tokens(), l.tokens);
      ASSERT_GE(map->capacity(), l.tokens);
      const auto& k = map->blocks(CacheComponent::kKey);
      const auto& v = map->blocks(CacheComponent::kValue);
      const auto& h = map->blocks(CacheComponent::kHidden);
      if (l.type == CacheType::kKV) {
        ASSERT_EQ(k.size(), v.size());
        ASSERT_TRUE(h.empty());
      } else {
        ASSERT_TRUE(k.empty() && v.empty());
      }
      for (const auto* list : {&k, &v, &h}) {
        for (BlockId b : *list) {
          ASSERT_TRUE(b >= 0 && b < kBlocks);
          ++owners[b];
          ++owned;
        }
      }
    }
    const PrefixIndex* index = assigner_.prefix_index();
    int64_t pins = 0;
    for (BlockId b = 0; b < kBlocks; ++b) {
      const int32_t pin = pool_.RefCount(b) - owners[b];
      ASSERT_TRUE(pin == 0 || (pin == 1 && index != nullptr))
          << "block " << b << " refcount " << pool_.RefCount(b) << " owners "
          << owners[b];
      pins += pin;
    }
    ASSERT_EQ(pins, index != nullptr ? index->indexed_blocks() : 0);
    int64_t refs = 0;
    for (BlockId b = 0; b < kBlocks; ++b) refs += pool_.RefCount(b);
    ASSERT_EQ(refs, owned + pins);
  }

  std::mt19937_64 rng_;
  BlockPool pool_;
  HybridCacheAssigner assigner_;
  std::map<RequestId, Live> live_;
  int32_t indexed_before_ = 0;
  int64_t ooms_ = 0;
  int64_t deduped_ = 0;
};

TEST(HybridAssignerPropertyTest, RandomOperationSequencesKeepInvariants) {
  for (uint64_t seed : env::FuzzSeedsFromEnv({1, 2, 3})) {
    for (bool sharing : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (sharing ? " sharing" : " no sharing"));
      AssignerProperty property(seed, sharing);
      property.Run(4000);
      if (HasFatalFailure()) return;
      // The sequence must reach the paths it is meant to cover.
      EXPECT_GT(property.ooms(), 0);
      EXPECT_GT(property.assigner().num_conversions(), 0);
      if (sharing) {
        const PrefixStats* stats = property.assigner().prefix_stats();
        EXPECT_GT(stats->hits, 0);
        EXPECT_GT(stats->cow_matches, 0);
        EXPECT_GT(stats->evicted_blocks, 0);
        EXPECT_GT(property.deduped(), 0);
      }
    }
  }
}

}  // namespace
}  // namespace aptserve
