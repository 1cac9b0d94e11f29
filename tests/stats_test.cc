#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace aptserve {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MeanVarianceMinMax) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.P99(), 99.01, 1e-9);
  EXPECT_NEAR(s.Mean(), 50.5, 1e-9);
}

TEST(SampleSetTest, EmptyQuantileIsZero) {
  SampleSet s;
  EXPECT_EQ(s.Quantile(0.5), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(SampleSetTest, QuantileClampsRange) {
  SampleSet s;
  s.Add(1.0);
  s.Add(2.0);
  EXPECT_EQ(s.Quantile(-0.5), 1.0);
  EXPECT_EQ(s.Quantile(2.0), 2.0);
}

TEST(SampleSetTest, AddAfterQueryResorts) {
  SampleSet s;
  s.Add(10.0);
  EXPECT_EQ(s.Median(), 10.0);
  s.Add(0.0);
  EXPECT_EQ(s.Median(), 5.0);
}

TEST(SelectQuantileTest, MatchesSortedQuantileBitForBit) {
  // Selection must return the very doubles the full sort interpolates
  // between, so every value (the serving report's per-request p99 TBT
  // included) is bit-identical to SampleSet::Quantile's.
  std::mt19937_64 gen(2024);
  std::uniform_real_distribution<double> spread(1e-4, 2.0);
  std::uniform_int_distribution<int> few(0, 4);  // heavy ties
  for (const size_t n : {1, 2, 99, 100, 101, 1000}) {
    for (const bool ties : {false, true}) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<double> values(n);
        for (double& v : values) v = ties ? 0.25 * few(gen) : spread(gen);
        SampleSet sorted;
        for (double v : values) sorted.Add(v);
        for (const double q : {0.99, 0.0, 0.5, 0.9, 1.0}) {
          std::vector<double> scratch = values;
          EXPECT_EQ(SelectQuantile(&scratch, q), sorted.Quantile(q))
              << "n=" << n << " ties=" << ties << " q=" << q;
        }
      }
    }
  }
}

TEST(SelectQuantileTest, EmptyIsZeroAndRangeClamps) {
  std::vector<double> empty;
  EXPECT_EQ(SelectQuantile(&empty, 0.99), 0.0);
  std::vector<double> two = {2.0, 1.0};
  EXPECT_EQ(SelectQuantile(&two, -0.5), 1.0);
  EXPECT_EQ(SelectQuantile(&two, 2.0), 2.0);
}

TEST(SampleSetTest, CdfMonotoneAndComplete) {
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.Add(1000 - i);
  auto cdf = s.Cdf(50);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_LE(cdf.size(), 60u);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);   // clamps to first bucket
  h.Add(0.5);
  h.Add(9.99);
  h.Add(50.0);   // clamps to last bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[9], 2u);
  EXPECT_DOUBLE_EQ(h.BucketLow(3), 3.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(3), 4.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  // Chan et al. parallel combine: splitting a sample set arbitrarily and
  // merging must reproduce the sequential accumulator (to fp tolerance).
  RunningStat all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(0.37 * i) * 5.0 + 2.0;
    all.Add(v);
    (i < 37 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmptyIsIdentity) {
  RunningStat s, empty;
  s.Add(1.0);
  s.Add(3.0);
  s.Merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  empty.Merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(LatencyHistogramTest, QuantilesBracketSamples) {
  // 1..1000 ms uniformly: log-bucket interpolation puts quantiles within
  // one bucket width (16/decade => ~15% geometric step) of the truth.
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i * 1e-3);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.Quantile(0.5), 0.5, 0.1);
  EXPECT_NEAR(h.P99(), 0.99, 0.2);
  EXPECT_LE(h.P50(), h.P95());
  EXPECT_LE(h.P95(), h.P99());
  // Clamped to the exact observed extremes, not bucket edges.
  EXPECT_EQ(h.min(), 1e-3);
  EXPECT_EQ(h.max(), 1.0);
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(LatencyHistogramTest, OutOfRangeSamplesLandInEdgeBuckets) {
  LatencyHistogram h(1e-3, 1.0, 8);
  h.Add(1e-9);   // underflow bucket
  h.Add(100.0);  // overflow bucket
  h.Add(0.0);    // non-positive underflows too
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_LE(h.Quantile(0.01), 1e-3);
  EXPECT_GE(h.Quantile(0.99), 1.0);
}

TEST(LatencyHistogramTest, MergeMatchesUnion) {
  LatencyHistogram a, b, all;
  for (int i = 0; i < 200; ++i) {
    const double v = 1e-3 * (1 + (i * 37) % 500);
    all.Add(v);
    (i % 2 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  // Merged mean differs from sequential only by combine-order rounding;
  // bucket counts and min/max merge exactly, so quantiles are bit-equal.
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), all.Quantile(q)) << q;
  }
}

// Regression: equal bucket counts do NOT imply equal geometry. With
// min=1e-6 and 16 buckets/decade, max=9000 spans 9.954 decades and
// ceil(159.3) = 160 buckets — the same count as max=10000's exact 160 —
// so a merge gated only on (count, min, per_decade) would silently
// combine histograms whose overflow edges (and every bucket bound in
// between) disagree. The geometry check must include max_s_.
TEST(LatencyHistogramTest, MergeRejectsMismatchedUpperBoundSameBucketCount) {
  LatencyHistogram a(1e-6, 1e4, 16);
  LatencyHistogram b(1e-6, 9e3, 16);
  // Pin the premise: ceil produces identical bucket counts (the
  // constructor's formula), so the old count-only check could not tell
  // these histograms apart.
  ASSERT_EQ(std::ceil(std::log10(1e4 / 1e-6) * 16.0),
            std::ceil(std::log10(9e3 / 1e-6) * 16.0));
  a.Add(0.5);
  b.Add(0.5);
  EXPECT_DEATH(a.Merge(b), "different geometry");
}

TEST(LatencyHistogramTest, MergeAcceptsIdenticalGeometry) {
  LatencyHistogram a(1e-6, 9e3, 16);
  LatencyHistogram b(1e-6, 9e3, 16);
  a.Add(0.5);
  b.Add(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(LatencyHistogramTest, EmptyQuantileIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, AsciiRendering) {
  Histogram h(0.0, 4.0, 4);
  h.Add(0.5);
  h.Add(1.5);
  h.Add(1.6);
  std::string art = h.ToAscii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
  Histogram empty(0.0, 1.0, 2);
  EXPECT_EQ(empty.ToAscii(), "(empty)\n");
}

}  // namespace
}  // namespace aptserve
