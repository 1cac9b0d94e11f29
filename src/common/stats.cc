#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace aptserve {

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel Welford: combine (n, mean, m2) pairs exactly.
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

namespace {

/// The repo's one quantile formula: position q·(n−1) over n ascending
/// samples, linearly interpolated between the closest ranks lo and hi.
struct QuantileRank {
  size_t lo;
  size_t hi;
  double frac;

  QuantileRank(size_t n, double q) {
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
    lo = static_cast<size_t>(pos);
    hi = std::min(lo + 1, n - 1);
    frac = pos - static_cast<double>(lo);
  }
  /// `lo_value`/`hi_value`: the lo-th and hi-th smallest samples.
  double Interpolate(double lo_value, double hi_value) const {
    return lo_value * (1.0 - frac) + hi_value * frac;
  }
};

}  // namespace

double SelectQuantile(std::vector<double>* values, double q) {
  std::vector<double>& v = *values;
  if (v.empty()) return 0.0;
  const QuantileRank rank(v.size(), q);
  const auto lo = v.begin() + static_cast<std::ptrdiff_t>(rank.lo);
  std::nth_element(v.begin(), lo, v.end());
  // Everything after the lo-th smallest is >= it, so the hi-th smallest
  // (hi = lo + 1) is the minimum of that tail.
  const double hi_value =
      rank.hi == rank.lo ? *lo : *std::min_element(lo + 1, v.end());
  return rank.Interpolate(*lo, hi_value);
}

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  const QuantileRank rank(samples_.size(), q);
  return rank.Interpolate(samples_[rank.lo], samples_[rank.hi]);
}

double SampleSet::Mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::Min() const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return samples_.front();
}

double SampleSet::Max() const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return samples_.back();
}

std::vector<std::pair<double, double>> SampleSet::Cdf(size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || max_points == 0) return out;
  EnsureSorted();
  const size_t n = samples_.size();
  const size_t step = std::max<size_t>(1, n / max_points);
  for (size_t i = 0; i < n; i += step) {
    out.emplace_back(samples_[i],
                     static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (out.back().first != samples_.back()) {
    out.emplace_back(samples_.back(), 1.0);
  } else {
    out.back().second = 1.0;
  }
  return out;
}

LatencyHistogram::LatencyHistogram(double min_s, double max_s,
                                   int32_t buckets_per_decade)
    : min_s_(min_s), max_s_(max_s),
      per_decade_(static_cast<double>(buckets_per_decade)) {
  APT_CHECK_MSG(min_s > 0 && max_s > min_s && buckets_per_decade > 0,
                "latency histogram range/resolution invalid");
  const double decades = std::log10(max_s_ / min_s_);
  const size_t buckets =
      static_cast<size_t>(std::ceil(decades * per_decade_));
  counts_.assign(buckets + 2, 0);  // + underflow and overflow
}

size_t LatencyHistogram::BucketIndex(double seconds) const {
  if (!(seconds >= min_s_)) return 0;  // underflow (covers NaN and <=0 too)
  if (seconds >= max_s_) return counts_.size() - 1;
  const double pos = std::log10(seconds / min_s_) * per_decade_;
  const size_t idx = static_cast<size_t>(pos) + 1;
  return std::min(idx, counts_.size() - 2);
}

double LatencyHistogram::BucketLow(size_t i) const {
  if (i == 0) return 0.0;
  if (i == counts_.size() - 1) return max_s_;
  return min_s_ * std::pow(10.0, static_cast<double>(i - 1) / per_decade_);
}

double LatencyHistogram::BucketHigh(size_t i) const {
  if (i == 0) return min_s_;
  if (i == counts_.size() - 1) return max_s_;
  return min_s_ * std::pow(10.0, static_cast<double>(i) / per_decade_);
}

void LatencyHistogram::Add(double seconds) {
  ++counts_[BucketIndex(seconds)];
  stat_.Add(seconds);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  // max_s_ must be part of the check: ceil() can give two histograms the
  // same bucket count for different upper bounds, which would silently
  // misalign their overflow edges (and every quantile above the smaller
  // max) if only the count were compared.
  APT_CHECK_MSG(counts_.size() == other.counts_.size() &&
                    min_s_ == other.min_s_ && max_s_ == other.max_s_ &&
                    per_decade_ == other.per_decade_,
                "merging latency histograms with different geometry");
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  stat_.Merge(other.stat_);
}

std::vector<std::pair<double, uint64_t>> LatencyHistogram::CumulativeBuckets()
    const {
  std::vector<std::pair<double, uint64_t>> out;
  uint64_t cum = 0;
  // Everything but the overflow bucket has a finite upper edge (the
  // underflow bucket's edge is min_s_); overflow lands in le="+Inf".
  for (size_t i = 0; i + 1 < counts_.size(); ++i) {
    cum += counts_[i];
    if (counts_[i] != 0) out.emplace_back(BucketHigh(i), cum);
  }
  return out;
}

double LatencyHistogram::Quantile(double q) const {
  const size_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= rank) {
      // Geometric interpolation inside the bucket; clamp to exact extremes.
      const double frac =
          (rank - cum) / static_cast<double>(counts_[i]);
      const double lo = std::max(BucketLow(i), stat_.min());
      const double hi = std::min(BucketHigh(i), stat_.max());
      if (lo <= 0.0 || hi <= lo) return std::clamp(hi, stat_.min(), stat_.max());
      return lo * std::pow(hi / lo, frac);
    }
    cum = next;
  }
  return stat_.max();
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  APT_CHECK_MSG(hi > lo && buckets > 0, "histogram range/buckets invalid");
}

void Histogram::Add(double x) {
  size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

std::string Histogram::ToAscii(size_t max_width) const {
  std::ostringstream os;
  size_t peak = 0;
  for (size_t c : counts_) peak = std::max(peak, c);
  if (peak == 0) return "(empty)\n";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const size_t bar = std::max<size_t>(1, counts_[i] * max_width / peak);
    os << "[" << BucketLow(i) << ", " << BucketHigh(i) << ") "
       << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace aptserve
