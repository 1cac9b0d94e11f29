// Small statistics helpers: streaming mean/variance, exact percentiles over
// collected samples, fixed-bucket histograms and CDF extraction. Used by the
// simulator metrics and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aptserve {

/// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x);
  /// Folds another accumulator in (Chan et al. parallel combine; exact).
  void Merge(const RunningStat& other);
  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact q-quantile of `values` (q clamped to [0,1]; 0 when empty) by the
/// same closest-ranks interpolation as SampleSet::Quantile, bit for bit.
/// Only the two order statistics around the rank are needed, so they are
/// selected (nth_element, then the tail's minimum) in O(n) rather than
/// sorted; `values` is left permuted.
double SelectQuantile(std::vector<double>* values, double q);

/// Collects samples and answers exact quantile queries (sorts lazily).
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void Reserve(size_t n) { samples_.reserve(n); }
  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// q in [0,1]; linear interpolation between closest ranks. Returns 0 when
  /// empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }
  double Mean() const;
  double Min() const;
  double Max() const;

  const std::vector<double>& samples() const { return samples_; }

  /// Returns (value, cumulative fraction) pairs suitable for plotting a CDF,
  /// downsampled to at most `max_points` points.
  std::vector<std::pair<double, double>> Cdf(size_t max_points = 200) const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Log-spaced latency histogram: fixed memory regardless of sample count,
/// with quantile estimates (p50/p95/p99) geometrically interpolated inside
/// the matched bucket. Built for wall-clock serving metrics, where samples
/// stream in from long-running workers and span microseconds to minutes —
/// a SampleSet would grow unboundedly and a fixed-width Histogram cannot
/// resolve both ends. Exact mean/min/max ride along via RunningStat.
/// Buckets cover [min_s, max_s) at `buckets_per_decade` resolution (±~4%
/// quantile error at the default 16); out-of-range samples clamp to
/// underflow/overflow buckets whose quantiles report the range edge.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double min_s = 1e-6, double max_s = 1e4,
                            int32_t buckets_per_decade = 16);

  void Add(double seconds);
  /// Folds `other`'s samples into this histogram. The two must share
  /// bucket geometry (they do unless constructed with different bounds).
  void Merge(const LatencyHistogram& other);

  size_t count() const { return static_cast<size_t>(stat_.count()); }
  double mean() const { return stat_.mean(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  double sum() const { return stat_.sum(); }

  /// (upper_bound_seconds, cumulative_count) pairs over the non-empty
  /// buckets with a finite upper edge, in increasing bound order —
  /// Prometheus `le` bucket form. The overflow bucket has no finite edge;
  /// exporters account for it with the implicit `le="+Inf"` = count().
  std::vector<std::pair<double, uint64_t>> CumulativeBuckets() const;

  /// q in [0,1]; 0 when empty. Estimated from bucket counts.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

 private:
  size_t BucketIndex(double seconds) const;
  /// Geometric bounds of bucket i (underflow/overflow clamp to the range).
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;

  double min_s_;
  double max_s_;
  double per_decade_;
  std::vector<uint64_t> counts_;  ///< [underflow, buckets..., overflow]
  RunningStat stat_;
};

/// Fixed-width bucket histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  size_t count() const { return total_; }
  const std::vector<size_t>& buckets() const { return counts_; }
  double BucketLow(size_t i) const { return lo_ + i * width_; }
  double BucketHigh(size_t i) const { return lo_ + (i + 1) * width_; }

  /// Renders a compact ASCII sketch, one line per non-empty bucket.
  std::string ToAscii(size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  size_t total_ = 0;
  std::vector<size_t> counts_;
};

}  // namespace aptserve
