// Engine-level prefix-sharing tests: adoption of matched blocks with
// token streams bit-identical to unshared execution, copy-on-write of a
// partially matched tail block, refcount safety across release/preemption,
// seeding rollback under OOM, eviction racing a concurrent match, the
// hidden-cache exclusion, and the shared-prefix workload generator.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cache/hybrid_assigner.h"
#include "engine/inference_engine.h"
#include "prefix/prefix_index.h"
#include "workload/shared_prefix.h"
#include "workload/token_ids.h"

namespace aptserve {
namespace {

constexpr int32_t kBlock = 4;

ModelConfig Cfg() { return ModelConfig::Tiny(); }

std::vector<int32_t> Prompt(int32_t n, int32_t base = 3) {
  std::vector<int32_t> p(n);
  for (int32_t i = 0; i < n; ++i) p[i] = (base + i * 7) % Cfg().vocab_size;
  return p;
}

/// Reference tokens: the same generation on an engine without sharing.
std::vector<int32_t> ReferenceTokens(const std::vector<int32_t>& prompt,
                                     int32_t new_tokens) {
  InferenceEngine ref(Cfg(), 42, 64, kBlock);
  EXPECT_TRUE(ref.AddRequest(1, prompt, CacheType::kKV).ok());
  auto toks = ref.Generate(1, new_tokens);
  EXPECT_TRUE(toks.ok());
  return *toks;
}

TEST(PrefixSharingTest, SecondRequestAdoptsPrefixTokensUnchanged) {
  InferenceEngine engine(Cfg(), 42, 64, kBlock);
  engine.assigner().EnablePrefixSharing();
  const auto prompt = Prompt(10);  // 2 full blocks indexable, partial tail

  ASSERT_TRUE(engine.AddRequest(1, prompt, CacheType::kKV).ok());
  auto t1 = engine.Generate(1, 5);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(engine.assigner().prefix_index()->num_nodes(), 2);

  ASSERT_TRUE(engine.AddRequest(2, prompt, CacheType::kKV).ok());
  auto t2 = engine.Generate(2, 5);
  ASSERT_TRUE(t2.ok());

  const PrefixStats& s = engine.assigner().prefix_index()->stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.matched_tokens, 8);   // both full blocks, block-granular
  EXPECT_EQ(s.shared_blocks, 2);
  EXPECT_EQ(s.cow_matches, 0);
  EXPECT_GT(engine.pool().num_shared(), 0);

  // Sharing must be invisible in the tokens: adopted K/V are bit-identical
  // to recomputation, and both requests sample greedily from identical
  // logits.
  EXPECT_EQ(*t1, *t2);
  EXPECT_EQ(*t2, ReferenceTokens(prompt, 5));
}

TEST(PrefixSharingTest, CowOnBlockAlignedPromptTail) {
  InferenceEngine engine(Cfg(), 42, 64, kBlock);
  engine.assigner().EnablePrefixSharing();
  const auto prompt = Prompt(8);  // block-aligned: the match must COW

  ASSERT_TRUE(engine.AddRequest(1, prompt, CacheType::kKV).ok());
  ASSERT_TRUE(engine.Generate(1, 4).ok());

  // The whole prompt is indexed; the second request may only adopt 7 of 8
  // positions (one must be processed for logits), so the second block is
  // copy-on-written: 3 slots copied, position 7 recomputed into the copy.
  ASSERT_TRUE(engine.AddRequest(2, prompt, CacheType::kKV).ok());
  auto t2 = engine.Generate(2, 4);
  ASSERT_TRUE(t2.ok());

  const PrefixStats& s = engine.assigner().prefix_index()->stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.cow_matches, 1);
  EXPECT_EQ(s.matched_tokens, 7);
  EXPECT_EQ(s.shared_blocks, 1);
  EXPECT_EQ(*t2, ReferenceTokens(prompt, 4));
}

TEST(PrefixSharingTest, SharedBlocksSurviveOwnerRemovalAndPreemption) {
  InferenceEngine engine(Cfg(), 42, 64, kBlock);
  engine.assigner().EnablePrefixSharing();
  const auto prompt = Prompt(10);

  ASSERT_TRUE(engine.AddRequest(1, prompt, CacheType::kKV).ok());
  ASSERT_TRUE(engine.Generate(1, 3).ok());
  ASSERT_TRUE(engine.AddRequest(2, prompt, CacheType::kKV).ok());
  ASSERT_TRUE(engine.Prefill(2).ok());

  // The original owner leaves; the adopter and the index keep the blocks.
  ASSERT_TRUE(engine.RemoveRequest(1).ok());
  auto t2 = engine.Generate(2, 4);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, ReferenceTokens(prompt, 5));

  // Preempting the adopter drops its references but never the index's:
  // the prefix stays matchable and the resume re-adopts it.
  ASSERT_TRUE(engine.Preempt(2).ok());
  EXPECT_EQ(engine.assigner().prefix_index()->num_nodes(), 2);
  auto resumed = engine.Prefill(2);
  ASSERT_TRUE(resumed.ok());
  // seed + resume re-seed
  EXPECT_EQ(engine.assigner().prefix_index()->stats().hits, 2);
  ASSERT_TRUE(engine.RemoveRequest(2).ok());
  // Only the index owns blocks now.
  EXPECT_EQ(engine.pool().num_allocated(),
            engine.assigner().prefix_index()->indexed_blocks());
}

TEST(PrefixSharingTest, HiddenCacheNeverShares) {
  InferenceEngine engine(Cfg(), 42, 64, kBlock);
  engine.assigner().EnablePrefixSharing();
  const auto prompt = Prompt(10);
  ASSERT_TRUE(engine.AddRequest(1, prompt, CacheType::kHidden).ok());
  ASSERT_TRUE(engine.Generate(1, 3).ok());
  ASSERT_TRUE(engine.AddRequest(2, prompt, CacheType::kHidden).ok());
  ASSERT_TRUE(engine.Generate(2, 3).ok());
  // Hidden-cache requests neither insert nor match.
  EXPECT_EQ(engine.assigner().prefix_index()->num_nodes(), 0);
  EXPECT_EQ(engine.assigner().prefix_index()->stats().hits, 0);
  EXPECT_EQ(engine.pool().num_shared(), 0);
}

TEST(PrefixSharingTest, SeedingRollsBackWhenChunkAllocationFails) {
  // Pool sized so request 2's seeding succeeds but the rest of its prefill
  // pass cannot allocate: the whole step must unwind to the pre-call state.
  // Request 1 (prompt 4, two generated tokens => 5 cached positions) holds
  // K:2+V:2 = 4 of 6 blocks and pins its indexed block pair, so nothing is
  // evictable. Request 2 (prompt 12) adopts 1 block pair and then needs 4
  // more blocks for positions 4..12 — only 2 are free.
  InferenceEngine engine(Cfg(), 42, 6, kBlock);
  engine.assigner().EnablePrefixSharing();
  const auto short_prompt = Prompt(4);
  auto long_prompt = Prompt(12);

  ASSERT_TRUE(engine.AddRequest(1, short_prompt, CacheType::kKV).ok());
  ASSERT_TRUE(engine.Generate(1, 2).ok());
  EXPECT_EQ(engine.assigner().prefix_index()->num_nodes(), 1);
  EXPECT_EQ(engine.pool().num_free(), 2);

  ASSERT_TRUE(engine.AddRequest(2, long_prompt, CacheType::kKV).ok());
  auto r = engine.Prefill(2);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfMemory());
  // Rollback: request 2 holds nothing, its state is fresh, and the pool is
  // exactly as before the attempt (the match left one hit in the stats).
  EXPECT_FALSE(engine.assigner().Has(2));
  EXPECT_EQ(engine.Find(2)->cached_tokens, 0);
  EXPECT_EQ(engine.pool().num_free(), 2);
  // The failed attempt counts as a lookup but never as an adoption, so
  // hit accounting stays equal to the positions genuinely skipped.
  EXPECT_GE(engine.assigner().prefix_index()->stats().lookups, 2);
  EXPECT_EQ(engine.assigner().prefix_index()->stats().hits, 0);
  EXPECT_EQ(engine.assigner().prefix_index()->stats().matched_tokens, 0);

  // Once request 1 leaves, the retry adopts the (still indexed) prefix and
  // completes.
  ASSERT_TRUE(engine.RemoveRequest(1).ok());
  auto t2 = engine.Generate(2, 1);
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ(*t2, ReferenceTokens(long_prompt, 1));
}

TEST(PrefixSharingTest, EvictionRacingMatchNeverFreesMatchedBlocks) {
  // Index holds prefix A (2 nodes, LRU-newer) and prefix B (1 node,
  // LRU-older after A's match touches it) with no live requests. A new
  // request matching A needs blocks the pool can only supply by evicting —
  // the eviction must take B, never A's matched (pinned) nodes.
  InferenceEngine engine(Cfg(), 42, 7, kBlock);
  engine.assigner().EnablePrefixSharing();
  const auto prompt_a = Prompt(8, 3);
  const auto prompt_b = Prompt(4, 11);

  ASSERT_TRUE(engine.AddRequest(1, prompt_a, CacheType::kKV).ok());
  const auto ref_a = engine.Generate(1, 2);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(engine.RemoveRequest(1).ok());
  ASSERT_TRUE(engine.AddRequest(2, prompt_b, CacheType::kKV).ok());
  ASSERT_TRUE(engine.Generate(2, 1).ok());
  ASSERT_TRUE(engine.RemoveRequest(2).ok());
  // Index: A = 2 block pairs, B = 1 pair; 6 of 7 blocks allocated.
  ASSERT_EQ(engine.assigner().prefix_index()->num_nodes(), 3);
  ASSERT_EQ(engine.pool().num_free(), 1);

  // Request 3 matches A (7 usable positions, COW tail) and needs a 2-block
  // private tail with only 1 block free: the reclaimer runs mid-seeding.
  ASSERT_TRUE(engine.AddRequest(3, prompt_a, CacheType::kKV).ok());
  auto t3 = engine.Generate(3, 2);
  ASSERT_TRUE(t3.ok()) << t3.status().ToString();
  EXPECT_EQ(*t3, *ref_a);  // adopted blocks were valid, not evicted

  const PrefixStats& s = engine.assigner().prefix_index()->stats();
  EXPECT_GE(s.evicted_blocks, 2);
  // B was the victim; A survived and still matches.
  EXPECT_FALSE(engine.assigner().prefix_index()->Match(prompt_b, 3).hit());
  EXPECT_TRUE(engine.assigner().prefix_index()->Match(prompt_a, 4).hit());
}

// ---- Assigner-level seeding ------------------------------------------------

TEST(PrefixSharingTest, CreateSeededTransfersOwnershipAndUnwinds) {
  BlockPool pool(8, kBlock);
  HybridCacheAssigner assigner(&pool);
  PrefixIndex index(&pool, kBlock);
  std::vector<BlockId> k, v;
  for (int i = 0; i < 2; ++i) {
    k.push_back(*pool.Allocate());
    v.push_back(*pool.Allocate());
  }
  std::vector<int32_t> tokens(8);
  std::iota(tokens.begin(), tokens.end(), 0);
  index.Insert(tokens, 8, k, v);
  pool.FreeMany({k[0], v[0], k[1], v[1]});  // index is the only owner

  // Full-block adoption: references transfer to the map and release with it.
  PrefixMatch m = index.Match(tokens, 8);
  auto seed = assigner.CreateSeeded(7, m);
  ASSERT_TRUE(seed.ok());
  EXPECT_EQ(seed->tokens, 0);
  EXPECT_EQ(pool.RefCount(k[0]), 2);
  ASSERT_TRUE(assigner.Release(7).ok());
  EXPECT_EQ(pool.RefCount(k[0]), 1);

  // COW adoption against a full pool: OOM leaves refcounts untouched.
  std::vector<BlockId> hog;
  ASSERT_TRUE(pool.AllocateMany(pool.num_free(), &hog).ok());
  m = index.Match(tokens, 7);
  ASSERT_EQ(m.cow_tokens, 3);
  auto oom = assigner.CreateSeeded(8, m);
  ASSERT_FALSE(oom.ok());
  EXPECT_TRUE(oom.status().IsOutOfMemory());
  EXPECT_FALSE(assigner.Has(8));
  EXPECT_EQ(pool.RefCount(k[0]), 1);
  EXPECT_EQ(pool.RefCount(k[1]), 1);
}

// ---- Shared-prefix workload generator --------------------------------------

TEST(PrefixSharingTest, SharedPrefixTraceShape) {
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = 8;
  cfg.num_conversations = 3;
  cfg.turns_per_conversation = 2;
  cfg.tokens_per_turn = 4;
  cfg.output_len_mean = 4;
  cfg.vocab_size = 64;
  auto trace = BuildSharedPrefixTrace(cfg);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 6u);
  for (size_t i = 0; i < trace->size(); ++i) {
    const Request& r = (*trace)[i];
    EXPECT_EQ(r.id, static_cast<RequestId>(i));  // ids in arrival order
    EXPECT_EQ(static_cast<int32_t>(r.token_ids.size()), r.prompt_len);
    EXPECT_GE(r.output_len, 1);
    if (i > 0) EXPECT_GE(r.arrival, (*trace)[i - 1].arrival);
    // Every request starts with the same system prompt.
    EXPECT_TRUE(std::equal((*trace)[0].token_ids.begin(),
                           (*trace)[0].token_ids.begin() + 8,
                           r.token_ids.begin()));
  }
  // Turn 2 of a conversation extends turn 1's prompt.
  const Request* turn1 = nullptr;
  const Request* turn2 = nullptr;
  for (const Request& r : *trace) {
    if (r.prompt_len == 12 && turn1 == nullptr) turn1 = &r;
    if (r.prompt_len == 16 && turn2 == nullptr) turn2 = &r;
  }
  ASSERT_NE(turn1, nullptr);
  ASSERT_NE(turn2, nullptr);
  // Some turn-2 request extends some turn-1 request (the generator yields
  // conversations in stagger order, so the first of each matches).
  EXPECT_TRUE(std::equal(turn1->token_ids.begin(), turn1->token_ids.end(),
                         turn2->token_ids.begin()));

  // Reproducibility and the deterministic length-only synthesizer.
  auto again = BuildSharedPrefixTrace(cfg);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < trace->size(); ++i) {
    EXPECT_EQ((*trace)[i].token_ids, (*again)[i].token_ids);
  }
  EXPECT_EQ(DeterministicPromptTokens(5, 9, 16, 64),
            DeterministicPromptTokens(5, 9, 16, 64));
  EXPECT_NE(DeterministicPromptTokens(5, 9, 16, 64),
            DeterministicPromptTokens(6, 9, 16, 64));
}

}  // namespace
}  // namespace aptserve
