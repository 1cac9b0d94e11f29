// Deterministic seeded RNG used throughout the library so that traces,
// model weights and simulations are reproducible run to run.
#pragma once

#include <cstdint>
#include <random>

namespace aptserve {

/// MT19937-64 (Matsumoto & Nishimura, ACM TOMACS 1998) with the seeding,
/// twist and tempering of std::mt19937_64, so it returns the same 64-bit
/// stream bit for bit. A refill twists the 312 state words and tempers them
/// into a block in branch-free loops the compiler vectorises; a draw is then
/// one load. Meets UniformRandomBitGenerator, so the std distributions run
/// over it unchanged.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr int kStateWords = 312;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateWords) Refill();
    return block_[pos_++];
  }

 private:
  void Refill();

  uint64_t state_[kStateWords] = {};
  uint64_t block_[kStateWords] = {};  ///< Tempered output of the last refill.
  int pos_ = kStateWords;
};

/// The distributions the library needs over Mt19937_64. Every component
/// that draws randomness takes an explicit seed; nothing reads global
/// entropy.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : gen_(seed) {}

  /// Uniform in [0, 1).
  double Uniform() { return unit_(gen_); }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(gen_);
  }

  /// Standard normal draw: Marsaglia's polar method exactly as libstdc++'s
  /// std::normal_distribution<double> computes it, second value saved for
  /// the next draw included, but independent of the standard library.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Writes `n` values equal, in order, to `n` calls of
  /// `static_cast<float>(Normal()) * scale`, saved value carried across
  /// calls: accept/reject runs over batches of uniform pairs, then
  /// log/sqrt over each accepted batch.
  void FillNormal(float* out, int64_t n, float scale);

  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(gen_);
  }

  /// Gamma with the given shape and scale.
  double Gamma(double shape, double scale) {
    std::gamma_distribution<double> d(shape, scale);
    return d(gen_);
  }

  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma) {
    std::lognormal_distribution<double> d(mu, sigma);
    return d(gen_);
  }

  Mt19937_64& generator() { return gen_; }

 private:
  Mt19937_64 gen_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  double saved_normal_ = 0.0;
  bool has_saved_normal_ = false;
};

}  // namespace aptserve
