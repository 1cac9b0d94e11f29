// Compiled with -ffp-contract=off (CMakeLists.txt): a fused x*x + y*y would
// change which uniform pairs the polar method accepts.
#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace aptserve {

namespace {

constexpr int kN = Mt19937_64::kStateWords;
constexpr int kM = 156;  // the twist's middle-word offset
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// One twist step: `lo_next` supplies the low 31 bits, `far` the word kM
// away. The odd-bit multiply by A is a mask, not a branch.
inline uint64_t Twist(uint64_t hi, uint64_t lo_next, uint64_t far) {
  const uint64_t y = (hi & kUpperMask) | (lo_next & kLowerMask);
  return far ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrixA);
}

inline uint64_t Temper(uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

// libstdc++'s std::generate_canonical<double, 53> over one draw: 64 bits
// cover double's 53 digits, the division by 2^64 is exact, and a draw that
// rounds up to 1 is clamped below it.
inline double Canonical(Mt19937_64& gen) {
  const double u = static_cast<double>(gen()) * 0x1p-64;
  return u >= 1.0 ? 1.0 - 0x1p-53 : u;
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (int i = 1; i < kN; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                static_cast<uint64_t>(i);
  }
}

void Mt19937_64::Refill() {
  uint64_t* x = state_;
  for (int k = 0; k < kN - kM; ++k) {
    x[k] = Twist(x[k], x[k + 1], x[k + kM]);
  }
  for (int k = kN - kM; k < kN - 1; ++k) {
    x[k] = Twist(x[k], x[k + 1], x[k - (kN - kM)]);
  }
  x[kN - 1] = Twist(x[kN - 1], x[0], x[kM - 1]);
  for (int k = 0; k < kN; ++k) block_[k] = Temper(x[k]);
  pos_ = 0;
}

double Rng::Normal() {
  if (has_saved_normal_) {
    has_saved_normal_ = false;
    return saved_normal_;
  }
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * Canonical(gen_) - 1.0;
    y = 2.0 * Canonical(gen_) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  saved_normal_ = x * mult;
  has_saved_normal_ = true;
  return y * mult;
}

void Rng::FillNormal(float* out, int64_t n, float scale) {
  int64_t i = 0;
  if (n > 0 && has_saved_normal_) {
    has_saved_normal_ = false;
    out[i++] = static_cast<float>(saved_normal_) * scale;
  }
  constexpr int64_t kBatch = 128;
  double xs[kBatch] = {}, ys[kBatch] = {};
  double r2s[kBatch] = {}, mult[kBatch] = {};
  while (i < n) {
    // Each accepted pair yields two values; an odd tail saves the second.
    const int64_t pairs = std::min(kBatch, (n - i + 1) / 2);
    // Exactly the uniform pairs Normal() would draw: a rejected pair is
    // overwritten by the next one.
    for (int64_t k = 0; k < pairs;) {
      const double x = 2.0 * Canonical(gen_) - 1.0;
      const double y = 2.0 * Canonical(gen_) - 1.0;
      const double r2 = x * x + y * y;
      xs[k] = x;
      ys[k] = y;
      r2s[k] = r2;
      k += !(r2 > 1.0 || r2 == 0.0);
    }
    for (int64_t k = 0; k < pairs; ++k) {
      mult[k] = std::sqrt(-2 * std::log(r2s[k]) / r2s[k]);
    }
    for (int64_t k = 0; k < pairs; ++k) {
      out[i++] = static_cast<float>(ys[k] * mult[k]) * scale;
      if (i == n) {
        saved_normal_ = xs[k] * mult[k];
        has_saved_normal_ = true;
        break;
      }
      out[i++] = static_cast<float>(xs[k] * mult[k]) * scale;
    }
  }
}

}  // namespace aptserve
