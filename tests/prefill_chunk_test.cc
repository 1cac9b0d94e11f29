// Equivalence tests for the batched prefill pass (a multi-position
// ForwardBatch item) and the engine's chunked prefill: any chunking of the
// prefill must produce exactly the same cache contents and logits as the
// one-token-at-a-time decode loop, for both cache types.
#include <gtest/gtest.h>

#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "engine/block_storage.h"
#include "engine/inference_engine.h"
#include "engine/transformer.h"
#include "tests/forward_test_util.h"

namespace aptserve {
namespace {

constexpr float kTol = 2e-4f;

std::vector<int32_t> MakeTokens(int32_t n, uint64_t seed, int32_t vocab) {
  std::vector<int32_t> t(n);
  uint64_t x = seed * 1099511628211ULL + 3;
  for (int32_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t[i] = static_cast<int32_t>(x % vocab);
  }
  return t;
}

struct CacheRig {
  explicit CacheRig(const ModelConfig& cfg, CacheType type, int32_t tokens)
      : pool(128, 4), storage(128, 4, cfg.n_layers, cfg.d_model),
        assigner(&pool) {
    Status st = assigner.CreateFilled(1, type, tokens);
    APT_CHECK_MSG(st.ok(), st.ToString());
  }
  const CacheMap& map() const { return *assigner.Find(1); }
  BlockPool pool;
  BlockStorage storage;
  HybridCacheAssigner assigner;
};

class PrefillEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<CacheType, int32_t>> {};

TEST_P(PrefillEquivalenceTest, BatchedMatchesStepLoop) {
  const auto [type, split] = GetParam();
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 31));
  const auto tokens = MakeTokens(24, 5, cfg.vocab_size);

  // Reference: token-by-token decode steps.
  CacheRig ref(cfg, type, 24);
  std::vector<float> ref_logits;
  for (int32_t pos = 0; pos < 24; ++pos) {
    ASSERT_TRUE(ForwardToken(model, tokens[pos], pos, ref.map(), &ref.storage,
                             &ref_logits)
                    .ok());
  }

  // Batched path, split into two passes at `split`.
  CacheRig bat(cfg, type, 24);
  std::vector<float> logits;
  if (split > 0) {
    std::vector<int32_t> first(tokens.begin(), tokens.begin() + split);
    ASSERT_TRUE(
        ForwardSpan(model, first, 0, bat.map(), &bat.storage, &logits).ok());
  }
  ASSERT_TRUE(
      ForwardSpan(model, tokens, split, bat.map(), &bat.storage, &logits)
          .ok());

  ASSERT_EQ(logits.size(), ref_logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    EXPECT_NEAR(logits[i], ref_logits[i], kTol);
  }

  // A subsequent decode over the batched cache matches one over the
  // step-built cache (proves the cache contents themselves are equal).
  std::vector<float> next_ref, next_bat;
  ASSERT_TRUE(ref.assigner.Append(1, 1).ok());
  ASSERT_TRUE(bat.assigner.Append(1, 1).ok());
  ASSERT_TRUE(
      ForwardToken(model, 7, 24, ref.map(), &ref.storage, &next_ref).ok());
  ASSERT_TRUE(
      ForwardToken(model, 7, 24, bat.map(), &bat.storage, &next_bat).ok());
  for (size_t i = 0; i < next_ref.size(); ++i) {
    EXPECT_NEAR(next_bat[i], next_ref[i], kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSplits, PrefillEquivalenceTest,
    ::testing::Combine(::testing::Values(CacheType::kKV, CacheType::kHidden),
                       ::testing::Values(0, 1, 7, 12, 23)));

TEST(ForwardBatchTest, SpanValidation) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 31));
  CacheRig rig(cfg, CacheType::kKV, 8);
  std::vector<float> logits;
  const std::vector<int32_t> two = {0, 1};
  auto check = [&](int32_t start, int32_t count) {
    ForwardItem item{two.data(), start, count, &rig.map(), &logits};
    model.ForwardBatch(&item, 1, &rig.storage);
    return item.status;
  };
  EXPECT_TRUE(check(0, 0).IsInvalidArgument());   // empty span
  EXPECT_TRUE(check(-1, 2).IsInvalidArgument());  // negative start
  EXPECT_TRUE(check(cfg.max_seq_len - 1, 2).IsInvalidArgument());
  // Map covers only 8 tokens.
  auto tokens = MakeTokens(12, 1, cfg.vocab_size);
  EXPECT_TRUE(ForwardSpan(model, tokens, 0, rig.map(), &rig.storage, &logits)
                  .IsFailedPrecondition());
}

TEST(EngineChunkedPrefillTest, ChunksMatchFullPrefill) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const auto prompt = MakeTokens(20, 9, cfg.vocab_size);

  InferenceEngine full(cfg, 42, 128, 4);
  ASSERT_TRUE(full.AddRequest(1, prompt, CacheType::kKV).ok());
  auto expected = full.Generate(1, 8);
  ASSERT_TRUE(expected.ok());

  for (int32_t chunk : {1, 3, 7, 19, 100}) {
    InferenceEngine eng(cfg, 42, 128, 4);
    ASSERT_TRUE(eng.AddRequest(1, prompt, CacheType::kKV).ok());
    // Drive the prefill in chunks until the first token appears.
    std::optional<int32_t> first;
    while (!first.has_value()) {
      auto r = eng.PrefillChunk(1, chunk);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      first = *r;
    }
    for (int i = 0; i < 7; ++i) ASSERT_TRUE(eng.DecodeStep(1).ok());
    EXPECT_EQ(eng.Find(1)->tokens, *expected) << "chunk=" << chunk;
  }
}

TEST(EngineChunkedPrefillTest, HiddenChunksMatchToo) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const auto prompt = MakeTokens(15, 2, cfg.vocab_size);
  InferenceEngine a(cfg, 7, 128, 4), b(cfg, 7, 128, 4);
  ASSERT_TRUE(a.AddRequest(1, prompt, CacheType::kHidden).ok());
  ASSERT_TRUE(b.AddRequest(1, prompt, CacheType::kHidden).ok());
  ASSERT_TRUE(a.Prefill(1).ok());
  std::optional<int32_t> first;
  while (!first.has_value()) {
    auto r = b.PrefillChunk(1, 4);
    ASSERT_TRUE(r.ok());
    first = *r;
  }
  EXPECT_EQ(a.Find(1)->tokens, b.Find(1)->tokens);
}

TEST(EngineChunkedPrefillTest, ChunkValidation) {
  const ModelConfig cfg = ModelConfig::Tiny();
  InferenceEngine eng(cfg, 42, 128, 4);
  ASSERT_TRUE(
      eng.AddRequest(1, MakeTokens(8, 1, cfg.vocab_size), CacheType::kKV)
          .ok());
  EXPECT_TRUE(eng.PrefillChunk(1, 0).status().IsInvalidArgument());
  EXPECT_TRUE(eng.PrefillChunk(2, 4).status().IsNotFound());
  ASSERT_TRUE(eng.Prefill(1).ok());
  EXPECT_TRUE(eng.PrefillChunk(1, 4).status().IsFailedPrecondition());
}

TEST(EngineSamplingTest, StochasticGenerationIsSeededDeterministic) {
  const ModelConfig cfg = ModelConfig::Tiny();
  const auto prompt = MakeTokens(6, 3, cfg.vocab_size);
  InferenceEngine a(cfg, 42, 128, 4), b(cfg, 42, 128, 4), c(cfg, 42, 128, 4);
  for (auto* e : {&a, &b, &c}) {
    ASSERT_TRUE(e->AddRequest(1, prompt, CacheType::kKV).ok());
  }
  a.SetSampling(SamplingParams::TopK(8, 0.9), 123);
  b.SetSampling(SamplingParams::TopK(8, 0.9), 123);
  c.SetSampling(SamplingParams::TopK(8, 0.9), 456);
  auto ta = a.Generate(1, 12);
  auto tb = b.Generate(1, 12);
  auto tc = c.Generate(1, 12);
  ASSERT_TRUE(ta.ok() && tb.ok() && tc.ok());
  EXPECT_EQ(*ta, *tb);   // same sampling seed -> same text
  EXPECT_NE(*ta, *tc);   // different seed -> (almost surely) different
}

}  // namespace
}  // namespace aptserve
