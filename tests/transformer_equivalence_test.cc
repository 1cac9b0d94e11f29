// The correctness core of the hybrid cache (paper §3.1, Figure 3): for any
// token history, decoding with the KV cache, decoding with the hidden cache
// (K/V re-projected on the fly from cached layer inputs), and full
// recomputation must produce identical logits. Unlike KV-cache compression
// (paper §7), the hidden cache is lossless by construction — these tests
// pin that claim down numerically.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "engine/block_storage.h"
#include "engine/transformer.h"
#include "tests/forward_test_util.h"

namespace aptserve {
namespace {

constexpr float kTol = 2e-4f;  // fp32 accumulation-order tolerance

std::vector<int32_t> MakeTokens(int32_t n, uint64_t seed, int32_t vocab) {
  std::vector<int32_t> t(n);
  uint64_t x = seed * 2654435761u + 1;
  for (int32_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t[i] = static_cast<int32_t>(x % vocab);
  }
  return t;
}

/// Runs the full sequence one decode step at a time with the given cache
/// type and returns the logits at the last position.
std::vector<float> RunCached(const TransformerModel& model, CacheType type,
                             const std::vector<int32_t>& tokens,
                             int32_t block_size = 4) {
  const ModelConfig& cfg = model.config();
  const int32_t blocks = 2 * (static_cast<int32_t>(tokens.size()) /
                                  block_size +
                              2);
  BlockPool pool(blocks, block_size);
  BlockStorage storage(blocks, block_size, cfg.n_layers, cfg.d_model);
  HybridCacheAssigner assigner(&pool);
  EXPECT_TRUE(assigner
                  .CreateFilled(1, type, static_cast<int32_t>(tokens.size()))
                  .ok());
  const CacheMap* map = assigner.Find(1);
  std::vector<float> logits;
  for (size_t pos = 0; pos < tokens.size(); ++pos) {
    Status st = ForwardToken(model, tokens[pos], static_cast<int32_t>(pos),
                             *map, &storage, &logits);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return logits;
}

void ExpectClose(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], kTol) << "logit index " << i;
  }
}

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int32_t, uint64_t>> {};

TEST_P(EquivalenceTest, KvHiddenAndFullRecomputeMatch) {
  const auto [len, seed] = GetParam();
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, seed));
  const auto tokens = MakeTokens(len, seed + 99, cfg.vocab_size);

  auto full = model.ForwardFull(tokens);
  ASSERT_TRUE(full.ok());
  const auto kv = RunCached(model, CacheType::kKV, tokens);
  const auto hidden = RunCached(model, CacheType::kHidden, tokens);

  ExpectClose(kv, *full);
  ExpectClose(hidden, *full);
  ExpectClose(hidden, kv);
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndSeeds, EquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16, 33, 64),
                       ::testing::Values(1u, 7u, 42u)));

TEST(EquivalenceTest, GreedyContinuationsMatchTokenByToken) {
  // Generate 12 tokens step by step with each cache type and compare the
  // argmax choices, which is what serving actually streams to users.
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 5));
  const auto prompt = MakeTokens(9, 13, cfg.vocab_size);

  auto generate = [&](CacheType type) {
    BlockPool pool(64, 4);
    BlockStorage storage(64, 4, cfg.n_layers, cfg.d_model);
    HybridCacheAssigner assigner(&pool);
    std::vector<int32_t> tokens = prompt;
    EXPECT_TRUE(assigner.CreateFilled(1, type, 9).ok());
    std::vector<float> logits;
    for (int32_t pos = 0; pos < 9; ++pos) {
      EXPECT_TRUE(ForwardToken(model, tokens[pos], pos, *assigner.Find(1),
                               &storage, &logits)
                      .ok());
    }
    std::vector<int32_t> out;
    for (int32_t step = 0; step < 12; ++step) {
      int32_t best = 0;
      for (int32_t v = 1; v < cfg.vocab_size; ++v) {
        if (logits[v] > logits[best]) best = v;
      }
      out.push_back(best);
      tokens.push_back(best);
      const int32_t pos = static_cast<int32_t>(tokens.size()) - 1;
      EXPECT_TRUE(assigner.Append(1, 1).ok());
      EXPECT_TRUE(ForwardToken(model, tokens[pos], pos, *assigner.Find(1),
                               &storage, &logits)
                      .ok());
    }
    return out;
  };

  EXPECT_EQ(generate(CacheType::kKV), generate(CacheType::kHidden));
}

TEST(EquivalenceTest, BlockSizeDoesNotAffectResults) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 21));
  const auto tokens = MakeTokens(20, 3, cfg.vocab_size);
  const auto a = RunCached(model, CacheType::kHidden, tokens, /*block=*/1);
  const auto b = RunCached(model, CacheType::kHidden, tokens, /*block=*/7);
  const auto c = RunCached(model, CacheType::kHidden, tokens, /*block=*/64);
  ExpectClose(a, b);
  ExpectClose(b, c);
}

TEST(TransformerTest, RejectsBadInput) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 1));
  EXPECT_TRUE(model.ForwardFull({}).status().IsInvalidArgument());
  EXPECT_TRUE(model.ForwardFull({cfg.vocab_size}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(model.ForwardFull({-1}).status().IsInvalidArgument());
  std::vector<int32_t> too_long(cfg.max_seq_len + 1, 0);
  EXPECT_TRUE(model.ForwardFull(too_long).status().IsInvalidArgument());
}

TEST(TransformerTest, DecodeStepRequiresAllocatedMap) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 1));
  BlockPool pool(8, 4);
  BlockStorage storage(8, 4, cfg.n_layers, cfg.d_model);
  HybridCacheAssigner assigner(&pool);
  ASSERT_TRUE(assigner.CreateFilled(1, CacheType::kKV, 2).ok());
  std::vector<float> logits;
  // Position 2 is beyond the allocated 2 tokens.
  Status st =
      ForwardToken(model, 0, 2, *assigner.Find(1), &storage, &logits);
  EXPECT_TRUE(st.IsFailedPrecondition());
}

TEST(TransformerTest, DeterministicAcrossIdenticalSeeds) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel m1(ModelWeights::Random(cfg, 77));
  TransformerModel m2(ModelWeights::Random(cfg, 77));
  const auto tokens = MakeTokens(10, 4, cfg.vocab_size);
  auto l1 = m1.ForwardFull(tokens);
  auto l2 = m2.ForwardFull(tokens);
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_EQ(*l1, *l2);
}

}  // namespace
}  // namespace aptserve
