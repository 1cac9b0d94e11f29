// Deterministic seeded RNG used throughout the library so that traces,
// model weights and simulations are reproducible run to run.
#pragma once

#include <algorithm>
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

  /// The words the next draws will return, in order, without drawing them:
  /// `*available` (at least one) run to the end of the tempered block. A
  /// spent block is refilled first, exactly as the next draw would.
  const uint64_t* Peek(int* available) {
    if (pos_ == kStateWords) Refill();
    *available = kStateWords - pos_;
    return block_ + pos_;
  }

  /// Draws the first `n` words of the last Peek (n <= its `*available`).
  void Skip(int n) { pos_ += n; }

 private:
  void Refill();

  uint64_t state_[kStateWords] = {};
  uint64_t block_[kStateWords] = {};  ///< Tempered output of the last refill.
  int pos_ = kStateWords;
};

/// The one map of a 64-bit draw onto [0, 1):
/// std::generate_canonical<double, 53> over one draw, that is the draw
/// rounded to double, times 2^-64, with a draw that rounds up to 1 clamped
/// to 1 - 2^-53. The halves make the rounding branch-free: double(hi) and
/// double(lo) are exact (32 bits each), so is the scaling by 2^32, and the
/// sum rounds once, giving the correctly rounded double of the whole word.
/// The unsigned conversion the compiler emits for `double(word)` instead
/// branches on the top bit, which is random. The sum cannot contract into
/// an FMA that changes it: fma(hi, 2^32, lo) rounds the same exact sum.
inline double CanonicalFromBits(uint64_t word) {
  const double u = (static_cast<double>(static_cast<uint32_t>(word >> 32)) *
                        0x1p32 +
                    static_cast<double>(static_cast<uint32_t>(word))) *
                   0x1p-64;
  return std::min(u, 1.0 - 0x1p-53);
}

/// The distributions the library needs over Mt19937_64. Every component
/// that draws randomness takes an explicit seed; nothing reads global
/// entropy.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : gen_(seed) {}

  /// Uniform in [0, 1): CanonicalFromBits of one draw, which is what
  /// std::uniform_real_distribution<double>(0, 1) returns over the same
  /// engine (u * (1 - 0) + 0 == u), bit for bit.
  double Uniform() { return CanonicalFromBits(gen_()); }

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
  /// calls. It runs in stages over batches of up to 128 accepted pairs:
  /// accept/reject over uniform pairs, then libm `log` of each r2, then
  /// `sqrt(-2 log r2 / r2)`, the products, the float rounding and `scale`.
  /// `log` stays scalar libm: every weight rests on its bits, and a vector
  /// polynomial log would differ from it in the last place.
  /// Where rng_simd::Available(), the accept/reject stage reads four pairs
  /// at a time straight from the engine's tempered block and the last stage
  /// runs four pairs wide; both are IEEE-exact operation for operation, so
  /// the bits are the scalar stage's. No batch draws past the last pair it
  /// accepts.
  void FillNormal(float* out, int64_t n, float scale);

  /// FillNormal with every stage scalar: the reference the vector stages
  /// are tested and benched against. Same values, same draws.
  void FillNormalScalar(float* out, int64_t n, float scale);

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
  void FillNormalStaged(float* out, int64_t n, float scale, bool vector);

  Mt19937_64 gen_;
  double saved_normal_ = 0.0;
  bool has_saved_normal_ = false;
};

}  // namespace aptserve
