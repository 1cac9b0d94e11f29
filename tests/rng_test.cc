#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "common/rng_simd.h"
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

TEST(RngEquivalenceTest, PeekShowsTheNextDrawsAndSkipDrawsThem) {
  Mt19937_64 engine(8);
  std::mt19937_64 ref(8);
  // Start at an odd position, then walk across two refills.
  ASSERT_EQ(engine(), ref());
  for (int round = 0; round < 5; ++round) {
    int available = 0;
    const uint64_t* words = engine.Peek(&available);
    ASSERT_GE(available, 1);
    ASSERT_LE(available, Mt19937_64::kStateWords);
    const int take = std::min(available, 200);
    for (int i = 0; i < take; ++i) ASSERT_EQ(words[i], ref()) << i;
    engine.Skip(take);
  }
  for (int i = 0; i < 400; ++i) ASSERT_EQ(engine(), ref()) << i;
}

/// A URNG that returns one scripted word, for feeding exact bit patterns to
/// std::generate_canonical.
struct ScriptedUrng {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  uint64_t word = 0;
};

uint64_t DoubleBits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Words where the 64-to-53-bit rounding decides: around 2^53, around 2^63
/// (where the top bit turns on), the largest word that rounds below 1,
/// the halfway word 2^64 - 2^10 that rounds (to even) up to 1 and must
/// clamp, and the largest word.
constexpr uint64_t kP53 = uint64_t{1} << 53;
constexpr uint64_t kP63 = uint64_t{1} << 63;
const uint64_t kEdgeWords[] = {0,
                               1,
                               kP53 - 1,
                               kP53,
                               kP53 + 1,
                               kP63 - 1,
                               kP63,
                               kP63 + 1,
                               ~uint64_t{0} - (uint64_t{1} << 11),
                               ~uint64_t{0} - (uint64_t{1} << 10) + 1,
                               ~uint64_t{0} - (uint64_t{1} << 10),
                               ~uint64_t{0}};

TEST(RngEquivalenceTest, CanonicalFromBitsRoundsOnceAndClamps) {
  EXPECT_EQ(CanonicalFromBits(0), 0.0);
  EXPECT_EQ(CanonicalFromBits(1), 0x1p-64);
  // 2^53 + 1 needs 54 bits: the tie rounds to even.
  EXPECT_EQ(CanonicalFromBits(kP53 + 1), 0x1p-11);
  EXPECT_EQ(CanonicalFromBits(kP63 - 1), 0.5);
  EXPECT_EQ(CanonicalFromBits(kP63 + 1), 0.5);
  // 2^64 - 2^11 - 1 rounds to the largest double below 2^64.
  EXPECT_EQ(CanonicalFromBits(~uint64_t{0} - (uint64_t{1} << 11)),
            1.0 - 0x1p-53);
  EXPECT_EQ(CanonicalFromBits(~uint64_t{0} - (uint64_t{1} << 10)),
            1.0 - 0x1p-53);
  // 2^64 - 2^10 is the tie between that double and 2^64: it rounds to
  // even, 2^64, so u == 1 and the clamp applies.
  EXPECT_EQ(CanonicalFromBits(~uint64_t{0} - (uint64_t{1} << 10) + 1),
            1.0 - 0x1p-53);
  EXPECT_EQ(CanonicalFromBits(~uint64_t{0}), 1.0 - 0x1p-53);
}

#ifdef __GLIBCXX__
// The clamp of a draw that rounds to 1 is libstdc++'s, so the comparison
// is built only under libstdc++.
TEST(RngEquivalenceTest, CanonicalFromBitsMatchesGenerateCanonical) {
  ScriptedUrng urng;
  auto expect_same = [&](uint64_t word) {
    urng.word = word;
    const double want = std::generate_canonical<double, 53>(urng);
    ASSERT_EQ(DoubleBits(CanonicalFromBits(word)), DoubleBits(want))
        << "word " << word;
  };
  for (uint64_t word : kEdgeWords) expect_same(word);
  std::mt19937_64 words(31);
  for (int i = 0; i < 1000000; ++i) expect_same(words());
}
#endif

TEST(RngEquivalenceTest, VectorAcceptStageMapsEdgeWordsExactly) {
  if (!rng_simd::Available()) {
    GTEST_SKIP() << "no vector stage in this build";
  }
  // Pair each edge word with a partner that gets the pair accepted: y = 0
  // (word 2^63), or y = 0.5 (word 3 * 2^62) where the edge itself maps to
  // x = 0 and r2 would be 0.
  std::vector<uint64_t> words;
  std::vector<double> want_x, want_y;
  for (uint64_t word : kEdgeWords) {
    const double x = 2.0 * CanonicalFromBits(word) - 1.0;
    const uint64_t partner = x == 0.0 ? 3 * (kP63 >> 1) : kP63;
    words.push_back(word);
    words.push_back(partner);
    want_x.push_back(x);
    want_y.push_back(2.0 * CanonicalFromBits(partner) - 1.0);
  }
  const int64_t pairs = static_cast<int64_t>(want_x.size());
  ASSERT_EQ(pairs % 4, 0) << "the stage only takes whole four-pair steps";
  std::vector<double> xs(pairs), ys(pairs), r2s(pairs);
  int64_t k = 0;
  const int used =
      rng_simd::AcceptPairs(words.data(), static_cast<int>(words.size()),
                            xs.data(), ys.data(), r2s.data(), &k, pairs);
  ASSERT_EQ(k, pairs);
  ASSERT_EQ(used, static_cast<int>(words.size()));
  for (int64_t j = 0; j < pairs; ++j) {
    EXPECT_EQ(DoubleBits(xs[j]), DoubleBits(want_x[j])) << "pair " << j;
    EXPECT_EQ(DoubleBits(ys[j]), DoubleBits(want_y[j])) << "pair " << j;
    EXPECT_EQ(DoubleBits(r2s[j]),
              DoubleBits(want_x[j] * want_x[j] + want_y[j] * want_y[j]))
        << "pair " << j;
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

/// Accepted pairs among the polar method's first `pairs` uniform pairs of
/// seed `seed`, after `skip` draws: where the fill's batches and the
/// engine's 312-word blocks fall relative to each other.
int64_t AcceptedPairs(uint64_t seed, int skip, int pairs) {
  std::mt19937_64 ref(seed);
  for (int i = 0; i < skip; ++i) ref();
  int64_t accepted = 0;
  for (int j = 0; j < pairs; ++j) {
    const double x = 2.0 * CanonicalFromBits(ref()) - 1.0;
    const double y = 2.0 * CanonicalFromBits(ref()) - 1.0;
    const double r2 = x * x + y * y;
    accepted += !(r2 > 1.0 || r2 == 0.0);
  }
  return accepted;
}

/// Lengths around the block and batch edges for a fresh Rng(seed) whose
/// first `skip` draws went to Uniform(): the pairs accepted in the first
/// block (the last vector step of that block ends there) and one pair past
/// it, the 128-pair batch and one pair past it, each with odd neighbours.
std::vector<int64_t> EdgeLengths(uint64_t seed, int skip) {
  const int64_t block_pairs = (Mt19937_64::kStateWords - skip) / 2;
  const int64_t in_block = AcceptedPairs(seed, skip, block_pairs);
  std::vector<int64_t> lengths = {0, 1, 2, 3, 7, 8, 9, 127, 128, 129, 1000};
  for (int64_t pairs : {in_block, in_block + 1, int64_t{128}, int64_t{129}}) {
    for (int64_t n : {2 * pairs - 1, 2 * pairs, 2 * pairs + 1}) {
      lengths.push_back(n);
    }
  }
  return lengths;
}

TEST(RngEquivalenceTest, FillNormalEqualsRepeatedNormal) {
  for (uint64_t seed : {3, 4, 5}) {
    // skip = 1 leaves the engine at an odd position, so a pair straddles
    // every refill.
    for (int skip : {0, 1}) {
      for (int64_t n : EdgeLengths(seed, skip)) {
        Rng filled(seed), per_call(seed);
        for (int i = 0; i < skip; ++i) {
          ASSERT_EQ(filled.Uniform(), per_call.Uniform());
        }
        ExpectSameBits(Filled(&filled, n, 0.125f),
                       PerCall(&per_call, n, 0.125f), "fill");
        // The saved second value and the engine position must agree too.
        ExpectSameBits(PerCall(&filled, 5, 1.0f),
                       PerCall(&per_call, 5, 1.0f), "after fill");
        ASSERT_EQ(filled.Uniform(), per_call.Uniform())
            << "seed " << seed << " skip " << skip << " n " << n;
      }
    }
  }
}

TEST(RngEquivalenceTest, FillNormalInterleavesWithNormal) {
  Rng filled(9), per_call(9);
  const float scale = 0.05f;
  // Odd lengths leave a saved value for the next call, in both directions:
  // fill → Normal, Normal → fill, fill → fill. The edge lengths put the
  // calls' ends on and one pair past block and batch boundaries.
  std::vector<int64_t> lengths = {3, 1, 4, 129, 2, 255, 1, 1, 1000, 7};
  for (int64_t n : EdgeLengths(9, 0)) lengths.push_back(n);
  for (int64_t n : lengths) {
    ExpectSameBits(Filled(&filled, n, scale), PerCall(&per_call, n, scale),
                   "fill");
    ExpectSameBits(PerCall(&filled, 1, scale), PerCall(&per_call, 1, scale),
                   "one Normal");
    ExpectSameBits(Filled(&filled, n, scale), PerCall(&per_call, n, scale),
                   "fill again");
  }
}

TEST(RngEquivalenceTest, FillNormalCarriesTheSavedValueAcrossOddCalls) {
  // Back-to-back odd fills: each call starts on the value the last one
  // saved, and some calls are a single value from the saved one alone.
  Rng filled(12), per_call(12);
  for (int64_t n : {1, 3, 1, 5, 255, 257, 1, 311, 313, 9, 1}) {
    ExpectSameBits(Filled(&filled, n, 0.5f), PerCall(&per_call, n, 0.5f),
                   "odd fill");
  }
}

TEST(RngEquivalenceTest, VectorAndScalarStagesWriteTheSameBits) {
  // On a build without the vector stage both calls run the scalar stage;
  // the test still pins FillNormalScalar to FillNormal.
  for (uint64_t seed : {1, 2, 3, 42, 20240611}) {
    for (int skip : {0, 1}) {
      Rng vector(seed), scalar(seed);
      for (int i = 0; i < skip; ++i) {
        ASSERT_EQ(vector.Uniform(), scalar.Uniform());
      }
      for (int64_t n : EdgeLengths(seed, skip)) {
        std::vector<float> a(static_cast<size_t>(n));
        std::vector<float> b(static_cast<size_t>(n));
        vector.FillNormal(a.data(), n, 0.02f);
        scalar.FillNormalScalar(b.data(), n, 0.02f);
        ExpectSameBits(a, b, "vector vs scalar");
      }
      ASSERT_EQ(vector.Normal(), scalar.Normal()) << "seed " << seed;
      ASSERT_EQ(vector.Uniform(), scalar.Uniform()) << "seed " << seed;
    }
  }
  // 2^20 values in one call: every batch shape and block offset.
  const int64_t n = int64_t{1} << 20;
  Rng vector(77), scalar(77);
  std::vector<float> a(static_cast<size_t>(n)), b(static_cast<size_t>(n));
  vector.FillNormal(a.data(), n, 1.0f);
  scalar.FillNormalScalar(b.data(), n, 1.0f);
  ExpectSameBits(a, b, "2^20 values");
}

}  // namespace
}  // namespace aptserve
