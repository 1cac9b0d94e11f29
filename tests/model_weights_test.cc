// Golden digests of ModelWeights::Random. Every logits and token golden
// downstream rests on these bits; a drift in the RNG, the normal sampler or
// the generation order fails here, next to its cause.
#include "engine/model_weights.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace aptserve {
namespace {

/// FNV-1a over each tensor's element count and float bits, in a fixed
/// tensor order.
uint64_t WeightsDigest(const ModelWeights& w) {
  uint64_t h = 1469598103934665603ULL;
  auto add = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  auto add_tensor = [&add](const Tensor& t) {
    add(static_cast<uint64_t>(t.NumElements()));
    for (int64_t i = 0; i < t.NumElements(); ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, t.data() + i, sizeof(bits));
      add(bits);
    }
  };
  add_tensor(w.token_embedding);
  add_tensor(w.position_embedding);
  add_tensor(w.final_ln_gain);
  add_tensor(w.final_ln_bias);
  for (const LayerWeights& l : w.layers) {
    for (const Tensor* t : {&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2,
                            &l.ln1_gain, &l.ln1_bias, &l.ln2_gain,
                            &l.ln2_bias}) {
      add_tensor(*t);
    }
  }
  return h;
}

// Recorded when the weights came from std::mt19937_64 and
// std::normal_distribution<double> (libstdc++), one Normal() per element.
TEST(ModelWeightsTest, RandomWeightsMatchGoldenDigests) {
  struct Case {
    const char* name;
    ModelConfig config;
    uint64_t digest;
  };
  const Case cases[] = {
      {"Tiny", ModelConfig::Tiny(), 0xdc5768fee73d07e2ULL},
      {"default", ModelConfig{}, 0xadc4867b93dc8137ULL},
      {"Small", ModelConfig::Small(), 0xfe414fe55b68f5e2ULL},
  };
  for (const Case& c : cases) {
    const uint64_t got =
        WeightsDigest(ModelWeights::Random(c.config, /*seed=*/42));
    EXPECT_EQ(got, c.digest) << c.name << " digest 0x" << std::hex << got;
  }
}

TEST(ModelWeightsTest, SeedSelectsTheWeights) {
  const ModelConfig config = ModelConfig::Tiny();
  EXPECT_EQ(WeightsDigest(ModelWeights::Random(config, 3)),
            WeightsDigest(ModelWeights::Random(config, 3)));
  EXPECT_NE(WeightsDigest(ModelWeights::Random(config, 3)),
            WeightsDigest(ModelWeights::Random(config, 4)));
}

}  // namespace
}  // namespace aptserve
