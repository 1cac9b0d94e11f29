#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "common/stats.h"

namespace aptserve {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(5.0, 10.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 10.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    hit_lo |= (v == 0);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(RngTest, GammaMeanAndCv) {
  Rng rng(17);
  // shape k, scale s: mean = k*s, CV = 1/sqrt(k).
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Gamma(4.0, 0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev() / s.mean(), 0.5, 0.05);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(17);
  SampleSet s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.LogNormal(std::log(100.0), 0.5));
  EXPECT_NEAR(s.Median(), 100.0, 5.0);
}

// ---- Equivalence with the standard library ------------------------------
// The engine must return std::mt19937_64's stream bit for bit, and Normal()
// and FillNormal() libstdc++'s polar method: every model weight, prompt
// token and golden digest in the repo was recorded from them.

/// Float bits, so -0.0 vs 0.0 or a NaN payload cannot compare equal.
uint32_t Bits(float f) {
  uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

TEST(RngEquivalenceTest, EngineMatchesStdMt19937_64) {
  // The last seed is the DeterministicPromptTokens mix for seed 1, id 0.
  const uint64_t seeds[] = {0, 1, 42, ~uint64_t{0},
                            1 ^ (0x9e3779b97f4a7c15ULL * 1)};
  for (uint64_t seed : seeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 ref(seed);
    // 1000 draws cross three refills of the 312-word block.
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(engine(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngEquivalenceTest, EngineMatchesStdOverAMillionDraws) {
  Mt19937_64 engine(20240611);
  std::mt19937_64 ref(20240611);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_EQ(engine(), ref()) << "draw " << i;
  }
}

TEST(RngEquivalenceTest, StdDistributionsOverTheEngineMatch) {
  Rng rng(5);
  std::mt19937_64 ref(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.Uniform(), unit(ref)) << i;
    ASSERT_EQ(rng.UniformInt(0, 255),
              std::uniform_int_distribution<int64_t>(0, 255)(ref))
        << i;
  }
}

TEST(RngEquivalenceTest, ShuffleOverGeneratorMatchesStd) {
  std::vector<int> a(1000), b(1000);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng rng(77);
  std::mt19937_64 ref(77);
  std::shuffle(a.begin(), a.end(), rng.generator());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
}

#ifdef __GLIBCXX__
TEST(RngEquivalenceTest, NormalMatchesLibstdcxxNormalDistribution) {
  Rng rng(11);
  std::mt19937_64 ref(11);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) {
    const double want = normal(ref);
    const double got = rng.Normal();
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << "draw " << i << ": " << got << " vs " << want;
  }
}
#endif

/// `n` values from per-call Normal(), as ModelWeights::Random used to draw.
std::vector<float> PerCall(Rng* rng, int64_t n, float scale) {
  std::vector<float> out(static_cast<size_t>(n));
  for (float& v : out) v = static_cast<float>(rng->Normal()) * scale;
  return out;
}

std::vector<float> Filled(Rng* rng, int64_t n, float scale) {
  std::vector<float> out(static_cast<size_t>(n));
  rng->FillNormal(out.data(), n, scale);
  return out;
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << what << " element " << i;
  }
}

TEST(RngEquivalenceTest, FillNormalEqualsRepeatedNormal) {
  for (int64_t n : {0, 1, 2, 3, 127, 128, 129, 1000}) {
    Rng filled(3), per_call(3);
    ExpectSameBits(Filled(&filled, n, 0.125f),
                   PerCall(&per_call, n, 0.125f), "fill");
    // The saved second value and the engine position must agree too.
    ExpectSameBits(PerCall(&filled, 5, 1.0f), PerCall(&per_call, 5, 1.0f),
                   "after fill");
  }
}

TEST(RngEquivalenceTest, FillNormalInterleavesWithNormal) {
  Rng filled(9), per_call(9);
  const float scale = 0.05f;
  // Odd lengths leave a saved value for the next call, in both directions:
  // fill → Normal, Normal → fill, fill → fill.
  for (int64_t n : {3, 1, 4, 129, 2, 255, 1, 1, 1000, 7}) {
    ExpectSameBits(Filled(&filled, n, scale), PerCall(&per_call, n, scale),
                   "fill");
    ExpectSameBits(PerCall(&filled, 1, scale), PerCall(&per_call, 1, scale),
                   "one Normal");
    ExpectSameBits(Filled(&filled, n, scale), PerCall(&per_call, n, scale),
                   "fill again");
  }
}

}  // namespace
}  // namespace aptserve
