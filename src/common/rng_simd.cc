// Vector stages of Rng::FillNormal (see rng_simd.h for the contract). Only
// an AVX2 build carries them; elsewhere both stages return "nothing done"
// and rng.cc's scalar stage does all the work.
#include "common/rng_simd.h"

#if !defined(APT_FORCE_SCALAR) && defined(__AVX2__)
#define APTSERVE_RNG_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace aptserve {
namespace rng_simd {

#ifdef APTSERVE_RNG_SIMD_AVX2

namespace {

/// permutevar8x32 indices that move the accepted lanes of a four-double
/// vector to its front, in order, one entry per 4-bit accept mask.
struct CompressTable {
  alignas(32) int32_t index[16][8];
};

constexpr CompressTable MakeCompressTable() {
  CompressTable t{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        t.index[mask][2 * out] = 2 * lane;
        t.index[mask][2 * out + 1] = 2 * lane + 1;
        ++out;
      }
    }
  }
  return t;
}

constexpr CompressTable kCompress = MakeCompressTable();

/// CanonicalFromBits on four words. Each 32-bit half is placed in the
/// mantissa of a power of two (2^84 for the high half, 2^52 for the low)
/// and the power subtracted, which yields double(hi) * 2^32 and double(lo)
/// exactly; their sum rounds once, as in the scalar map.
inline __m256d Unit(__m256i words) {
  const __m256i hi = _mm256_srli_epi64(words, 32);
  const __m256i lo = _mm256_and_si256(words, _mm256_set1_epi64x(0xFFFFFFFF));
  const __m256d hi_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(hi, _mm256_set1_epi64x(0x4530000000000000))),
      _mm256_set1_pd(0x1p84));
  const __m256d lo_d = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(lo, _mm256_set1_epi64x(0x4330000000000000))),
      _mm256_set1_pd(0x1p52));
  const __m256d u = _mm256_mul_pd(_mm256_add_pd(hi_d, lo_d),
                                  _mm256_set1_pd(0x1p-64));
  return _mm256_min_pd(u, _mm256_set1_pd(1.0 - 0x1p-53));
}

/// 2u - 1 for four draws.
inline __m256d Signed(const uint64_t* words) {
  const __m256d u = Unit(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words)));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), u),
                       _mm256_set1_pd(1.0));
}

/// Stores the lanes of `v` that `mask` selects, packed, at `out`. Writes
/// four doubles; the lanes past the packed ones are scratch.
inline void StoreCompressed(double* out, __m256d v, int mask) {
  const __m256i index = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompress.index[mask]));
  _mm256_storeu_pd(out, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                            _mm256_castpd_si256(v), index)));
}

}  // namespace

bool Available() { return true; }

int AcceptPairs(const uint64_t* words, int available, double* xs, double* ys,
                double* r2s, int64_t* k, int64_t want) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  int used = 0;
  int64_t n = *k;
  while (n < want && available - used >= 8) {
    const __m256d a = Signed(words + used);      // x0 y0 x1 y1
    const __m256d b = Signed(words + used + 4);  // x2 y2 x3 y3
    const __m256d x = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xD8);
    const __m256d y = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xD8);
    const __m256d r2 =
        _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(y, y));
    // !(r2 > 1 || r2 == 0), lane by lane.
    const int accept = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(r2, one, _CMP_NGT_UQ),
                      _mm256_cmp_pd(r2, zero, _CMP_NEQ_UQ)));
    if (want - n >= 4) {
      StoreCompressed(xs + n, x, accept);
      StoreCompressed(ys + n, y, accept);
      StoreCompressed(r2s + n, r2, accept);
      n += __builtin_popcount(static_cast<unsigned>(accept));
      used += 8;
      continue;
    }
    // The batch's last few pairs: stop at the pair that completes it.
    alignas(32) double tx[4], ty[4], tr2[4];
    _mm256_store_pd(tx, x);
    _mm256_store_pd(ty, y);
    _mm256_store_pd(tr2, r2);
    for (int j = 0; j < 4 && n < want; ++j) {
      xs[n] = tx[j];
      ys[n] = ty[j];
      r2s[n] = tr2[j];
      n += (accept >> j) & 1;
      used += 2;
    }
  }
  *k = n;
  return used;
}

int64_t ScalePairs(const double* xs, const double* ys, const double* r2s,
                   const double* logs, int64_t pairs, float scale,
                   float* out) {
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const __m128 s = _mm_set1_ps(scale);
  int64_t j = 0;
  for (; j + 4 <= pairs; j += 4) {
    const __m256d mult = _mm256_sqrt_pd(
        _mm256_div_pd(_mm256_mul_pd(minus_two, _mm256_loadu_pd(logs + j)),
                      _mm256_loadu_pd(r2s + j)));
    const __m128 y = _mm_mul_ps(
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_loadu_pd(ys + j), mult)), s);
    const __m128 x = _mm_mul_ps(
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_loadu_pd(xs + j), mult)), s);
    _mm_storeu_ps(out + 2 * j, _mm_unpacklo_ps(y, x));
    _mm_storeu_ps(out + 2 * j + 4, _mm_unpackhi_ps(y, x));
  }
  return j;
}

#else  // no vector stages in this build

bool Available() { return false; }

int AcceptPairs(const uint64_t*, int, double*, double*, double*, int64_t*,
                int64_t) {
  return 0;
}

int64_t ScalePairs(const double*, const double*, const double*,
                   const double*, int64_t, float, float*) {
  return 0;
}

#endif

}  // namespace rng_simd
}  // namespace aptserve
