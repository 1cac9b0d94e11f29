// SIMD primitives (see ops_simd.h for the dispatch and determinism
// contract). This file is the only translation unit built with the vector
// ISA flags; the #if ladder picks exactly one backend:
//   * AVX2+FMA (x86): 8-lane vectors, fused multiply-add in reductions;
//   * NEON (aarch64): 4-lane vectors, vfmaq in reductions;
//   * scalar stubs otherwise (Available() == false; ops.cc then routes
//     every call to the pinned scalar reference kernels).
#include "engine/ops_simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(APT_FORCE_SCALAR) && defined(__AVX2__) && defined(__FMA__)
#define APTSERVE_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(APT_FORCE_SCALAR) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define APTSERVE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace aptserve {
namespace ops {
namespace simd {

#if defined(APTSERVE_SIMD_AVX2) || defined(APTSERVE_SIMD_NEON)

namespace {

// Cephes-style single-precision exp: clamp, split x = n*ln2 + r with the
// hi/lo ln2 pair, degree-6 polynomial on r, scale by 2^n through the
// exponent bits. ~2 ulp over the clamped range. The clamp keeps
// n + 127 inside [1, 254] so the bit-built 2^n is always a normal float
// (no inf, no denormal-exponent underflow).
constexpr float kExpLo = -87.33654f;
constexpr float kExpHi = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

/// One exp lane in scalar code, operation-for-operation the vector kernel
/// (fmaf is the single-rounding FMA the vector uses), so tail elements get
/// bit-identical results to vector-lane elements. That offset invariance
/// is what lets tiled callers apply Gelu per sub-range and still match the
/// full-range dispatch exactly.
inline float ExpLane(float x) {
  x = std::min(std::max(x, kExpLo), kExpHi);
  const float n = std::nearbyintf(x * kLog2e);
  float r = std::fmaf(n, -kLn2Hi, x);
  r = std::fmaf(n, -kLn2Lo, r);
  float p = kExpC0;
  p = std::fmaf(p, r, kExpC1);
  p = std::fmaf(p, r, kExpC2);
  p = std::fmaf(p, r, kExpC3);
  p = std::fmaf(p, r, kExpC4);
  p = std::fmaf(p, r, kExpC5);
  p = std::fmaf(p, r * r, r + 1.0f);
  const uint32_t bits = static_cast<uint32_t>(static_cast<int32_t>(n) + 127)
                        << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

/// tanh(z) = (e - 1) / (e + 1) with e = exp(2z); the exp clamp saturates
/// the ratio to ±1 for large |z|. Scalar replica of the vector kernel.
inline float TanhLane(float z) {
  const float e = ExpLane(z + z);
  return (e - 1.0f) / (e + 1.0f);
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

/// One GELU lane, mirroring the vector arithmetic exactly (same rounding
/// sequence: v*v, kA*v2, fma, scale by kC; then 0.5*v times 1+tanh).
inline float GeluLane(float v) {
  const float inner = kGeluC * std::fmaf(kGeluA * (v * v), v, v);
  return (0.5f * v) * (1.0f + TanhLane(inner));
}

}  // namespace

#endif  // vector leg shared helpers

#if defined(APTSERVE_SIMD_AVX2)

bool Available() { return true; }
const char* IsaName() { return "avx2+fma"; }
int32_t WidthFloats() { return 8; }

namespace {

/// Fixed horizontal-sum sequence: (lo+hi) 4-lane, then pairwise. The order
/// is part of the determinism contract — never data-dependent.
inline float HSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// Dot's vector phase (everything before HSum and the scalar tail) for
/// `a` against two vectors at once: each result holds the bits Dot's own
/// accumulator would, while `a` is loaded once and eight FMA chains run
/// side by side. Sets *tail to the first index left for the scalar tail.
inline void DotAccumulate2(const float* a, const float* b0, const float* b1,
                           int32_t n, __m256* out0, __m256* out1,
                           int32_t* tail) {
  __m256 p0 = _mm256_setzero_ps(), p1 = _mm256_setzero_ps();
  __m256 p2 = _mm256_setzero_ps(), p3 = _mm256_setzero_ps();
  __m256 q0 = _mm256_setzero_ps(), q1 = _mm256_setzero_ps();
  __m256 q2 = _mm256_setzero_ps(), q3 = _mm256_setzero_ps();
  int32_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 a0 = _mm256_loadu_ps(a + i);
    const __m256 a1 = _mm256_loadu_ps(a + i + 8);
    const __m256 a2 = _mm256_loadu_ps(a + i + 16);
    const __m256 a3 = _mm256_loadu_ps(a + i + 24);
    p0 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + i), p0);
    q0 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b1 + i), q0);
    p1 = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b0 + i + 8), p1);
    q1 = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1 + i + 8), q1);
    p2 = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b0 + i + 16), p2);
    q2 = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b1 + i + 16), q2);
    p3 = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b0 + i + 24), p3);
    q3 = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b1 + i + 24), q3);
  }
  __m256 p = _mm256_add_ps(_mm256_add_ps(p0, p1), _mm256_add_ps(p2, p3));
  __m256 q = _mm256_add_ps(_mm256_add_ps(q0, q1), _mm256_add_ps(q2, q3));
  for (; i + 8 <= n; i += 8) {
    const __m256 ai = _mm256_loadu_ps(a + i);
    p = _mm256_fmadd_ps(ai, _mm256_loadu_ps(b0 + i), p);
    q = _mm256_fmadd_ps(ai, _mm256_loadu_ps(b1 + i), q);
  }
  *out0 = p;
  *out1 = q;
  *tail = i;
}

/// HSum of eight vectors at once: lane k of the result is HSum(v[k]),
/// through HSum's add tree — lo+hi, then lanes 0+2 and 1+3, then the
/// final pair. Float addition is commutative, so only the tree matters.
inline __m256 HSum8(const __m256* v) {
  // s_k = [lo(v_k) + hi(v_k) | lo(v_k+4) + hi(v_k+4)].
  __m256 s[4];
  for (int k = 0; k < 4; ++k) {
    s[k] = _mm256_add_ps(_mm256_permute2f128_ps(v[k], v[k + 4], 0x20),
                         _mm256_permute2f128_ps(v[k], v[k + 4], 0x31));
  }
  // Per 128-bit half: [s0[0]+s0[2], s0[1]+s0[3], s1[0]+s1[2], s1[1]+s1[3]].
  const __m256 t01 =
      _mm256_add_ps(_mm256_shuffle_ps(s[0], s[1], _MM_SHUFFLE(1, 0, 1, 0)),
                    _mm256_shuffle_ps(s[0], s[1], _MM_SHUFFLE(3, 2, 3, 2)));
  const __m256 t23 =
      _mm256_add_ps(_mm256_shuffle_ps(s[2], s[3], _MM_SHUFFLE(1, 0, 1, 0)),
                    _mm256_shuffle_ps(s[2], s[3], _MM_SHUFFLE(3, 2, 3, 2)));
  // Final pair: lanes [v0, v1, v2, v3 | v4, v5, v6, v7].
  return _mm256_add_ps(
      _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(3, 1, 3, 1)));
}

}  // namespace

float Dot(const float* a, const float* b, int32_t n) {
  // 4 independent accumulators (32 floats/iteration) for FMA-latency ILP,
  // combined in a fixed tree, then an 8-wide tail, then a scalar tail.
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  int32_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                             _mm256_add_ps(acc2, acc3));
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                          acc);
  }
  float sum = HSum(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void ScoreKeys(const float* q, const float* keys, int64_t stride,
               int32_t n_keys, int32_t len, float scale, float* out) {
  const __m256 vscale = _mm256_set1_ps(scale);
  int32_t j = 0;
  for (; j + 8 <= n_keys; j += 8) {
    __m256 acc[8];
    int32_t tail = 0;
    for (int k = 0; k < 8; k += 2) {
      DotAccumulate2(q, keys + (j + k) * stride, keys + (j + k + 1) * stride,
                     len, &acc[k], &acc[k + 1], &tail);
    }
    const __m256 sums = HSum8(acc);
    if (tail == len) {
      _mm256_storeu_ps(out + j, _mm256_mul_ps(sums, vscale));
      continue;
    }
    // Scalar tail per key, in Dot's order, before the scale.
    _mm256_storeu_ps(out + j, sums);
    for (int k = 0; k < 8; ++k) {
      const float* key = keys + (j + k) * stride;
      float sum = out[j + k];
      for (int32_t i = tail; i < len; ++i) sum += q[i] * key[i];
      out[j + k] = sum * scale;
    }
  }
  for (; j < n_keys; ++j) out[j] = Dot(q, keys + j * stride, len) * scale;
}

void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n) {
  constexpr float kEps = 1e-5f;
  // Mean.
  __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
  int32_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 = _mm256_add_ps(s0, _mm256_loadu_ps(x + i));
    s1 = _mm256_add_ps(s1, _mm256_loadu_ps(x + i + 8));
  }
  __m256 s = _mm256_add_ps(s0, s1);
  for (; i + 8 <= n; i += 8) s = _mm256_add_ps(s, _mm256_loadu_ps(x + i));
  float sum = HSum(s);
  for (; i < n; ++i) sum += x[i];
  const float mean = sum / static_cast<float>(n);

  // Variance.
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 v0 = _mm256_setzero_ps(), v1 = _mm256_setzero_ps();
  i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean);
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(x + i + 8), vmean);
    v0 = _mm256_fmadd_ps(d0, d0, v0);
    v1 = _mm256_fmadd_ps(d1, d1, v1);
  }
  __m256 v = _mm256_add_ps(v0, v1);
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean);
    v = _mm256_fmadd_ps(d, d, v);
  }
  float var = HSum(v);
  for (; i < n; ++i) {
    const float d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + kEps);

  // Normalize: out = (x - mean) * inv * gain + bias.
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
    _mm256_storeu_ps(
        out + i,
        _mm256_add_ps(_mm256_mul_ps(t, _mm256_loadu_ps(gain + i)),
                      _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) out[i] = (x[i] - mean) * inv * gain[i] + bias[i];
}

void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out) {
  // Four independent 8-lane sums per pass over the rows; mul + add (not
  // fmadd) keeps every element's two roundings per row.
  int32_t i = 0;
  for (; i + 32 <= len; i += 32) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    for (int32_t j = 0; j < n_rows; ++j) {
      const __m256 w = _mm256_set1_ps(weights[j]);
      const float* r = rows + j * stride + i;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(r), w));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(r + 8), w));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(r + 16), w));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(r + 24), w));
    }
    _mm256_storeu_ps(out + i, a0);
    _mm256_storeu_ps(out + i + 8, a1);
    _mm256_storeu_ps(out + i + 16, a2);
    _mm256_storeu_ps(out + i + 24, a3);
  }
  for (; i + 8 <= len; i += 8) {
    __m256 a = _mm256_setzero_ps();
    for (int32_t j = 0; j < n_rows; ++j) {
      a = _mm256_add_ps(a, _mm256_mul_ps(_mm256_loadu_ps(rows + j * stride + i),
                                         _mm256_set1_ps(weights[j])));
    }
    _mm256_storeu_ps(out + i, a);
  }
  for (; i < len; ++i) {
    float a = 0.0f;
    for (int32_t j = 0; j < n_rows; ++j) a += rows[j * stride + i] * weights[j];
    out[i] = a;
  }
}

void AddInPlace(float* x, const float* y, int32_t n) {
  int32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

void ScaleInPlace(float* x, float s, int32_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void Relu(float* x, int32_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

namespace {

/// 8-lane exp; per-lane identical to ExpLane (same FMA/rounding sequence).
inline __m256 Exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(kExpLo)),
                    _mm256_set1_ps(kExpHi));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpC0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC5));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  __m256i ni = _mm256_cvtps_epi32(n);
  ni = _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(ni));
}

inline __m256 Tanh8(__m256 z) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_add_ps(z, z));
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

/// Fixed horizontal-max sequence (max is exact in any order; the fixed
/// shuffle order just keeps the codepath deterministic).
inline float HMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

}  // namespace

void Softmax(float* x, int32_t n) {
  if (n <= 0) return;
  __m256 vmax = _mm256_set1_ps(x[0]);
  int32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
  }
  float mx = HMax(vmax);
  for (; i < n; ++i) mx = std::max(mx, x[i]);

  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmx));
    _mm256_storeu_ps(x + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = HSum(vsum);
  for (; i < n; ++i) {
    x[i] = ExpLane(x[i] - mx);
    sum += x[i];
  }
  ScaleInPlace(x, 1.0f / sum, n);
}

void Gelu(float* x, int32_t n) {
  const __m256 vc = _mm256_set1_ps(kGeluC);
  const __m256 va = _mm256_set1_ps(kGeluA);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 inner = _mm256_mul_ps(
        vc, _mm256_fmadd_ps(_mm256_mul_ps(va, _mm256_mul_ps(v, v)), v, v));
    const __m256 t = Tanh8(inner);
    _mm256_storeu_ps(
        x + i, _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t)));
  }
  for (; i < n; ++i) x[i] = GeluLane(x[i]);
}

#elif defined(APTSERVE_SIMD_NEON)

bool Available() { return true; }
const char* IsaName() { return "neon"; }
int32_t WidthFloats() { return 4; }

float Dot(const float* a, const float* b, int32_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  int32_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(a + i + 8), vld1q_f32(b + i + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(a + i + 12), vld1q_f32(b + i + 12));
  }
  float32x4_t acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  for (; i + 4 <= n; i += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void ScoreKeys(const float* q, const float* keys, int64_t stride,
               int32_t n_keys, int32_t len, float scale, float* out) {
  for (int32_t j = 0; j < n_keys; ++j) {
    out[j] = Dot(q, keys + j * stride, len) * scale;
  }
}

void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n) {
  constexpr float kEps = 1e-5f;
  float32x4_t s = vdupq_n_f32(0.0f);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) s = vaddq_f32(s, vld1q_f32(x + i));
  float sum = vaddvq_f32(s);
  for (; i < n; ++i) sum += x[i];
  const float mean = sum / static_cast<float>(n);

  const float32x4_t vmean = vdupq_n_f32(mean);
  float32x4_t v = vdupq_n_f32(0.0f);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(x + i), vmean);
    v = vfmaq_f32(v, d, d);
  }
  float var = vaddvq_f32(v);
  for (; i < n; ++i) {
    const float d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + kEps);

  const float32x4_t vinv = vdupq_n_f32(inv);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t t =
        vmulq_f32(vsubq_f32(vld1q_f32(x + i), vmean), vinv);
    vst1q_f32(out + i,
              vaddq_f32(vmulq_f32(t, vld1q_f32(gain + i)),
                        vld1q_f32(bias + i)));
  }
  for (; i < n; ++i) out[i] = (x[i] - mean) * inv * gain[i] + bias[i];
}

namespace {

/// y[i] += row[i] * xr, mul then add per element: WeightedSum's per-row
/// step.
void Axpy(const float* row, float xr, float* y, int32_t n) {
  const float32x4_t vx = vdupq_n_f32(xr);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i,
              vaddq_f32(vmulq_f32(vld1q_f32(row + i), vx), vld1q_f32(y + i)));
  }
  for (; i < n; ++i) y[i] += row[i] * xr;
}

}  // namespace

void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out) {
  std::fill(out, out + len, 0.0f);
  for (int32_t j = 0; j < n_rows; ++j) {
    Axpy(rows + j * stride, weights[j], out, len);
  }
}

void AddInPlace(float* x, const float* y, int32_t n) {
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vaddq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  }
  for (; i < n; ++i) x[i] += y[i];
}

void ScaleInPlace(float* x, float s, int32_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), vs));
  }
  for (; i < n; ++i) x[i] *= s;
}

void Relu(float* x, int32_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmaxq_f32(vld1q_f32(x + i), zero));
  }
  for (; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

namespace {

/// 4-lane exp; per-lane identical to ExpLane (vfmaq/vfmsq are the same
/// single-rounding FMA as fmaf, vrndnq is round-to-nearest-even).
inline float32x4_t Exp4(float32x4_t x) {
  x = vminq_f32(vmaxq_f32(x, vdupq_n_f32(kExpLo)), vdupq_n_f32(kExpHi));
  const float32x4_t n = vrndnq_f32(vmulq_f32(x, vdupq_n_f32(kLog2e)));
  float32x4_t r = vfmsq_f32(x, n, vdupq_n_f32(kLn2Hi));
  r = vfmsq_f32(r, n, vdupq_n_f32(kLn2Lo));
  float32x4_t p = vdupq_n_f32(kExpC0);
  p = vfmaq_f32(vdupq_n_f32(kExpC1), p, r);
  p = vfmaq_f32(vdupq_n_f32(kExpC2), p, r);
  p = vfmaq_f32(vdupq_n_f32(kExpC3), p, r);
  p = vfmaq_f32(vdupq_n_f32(kExpC4), p, r);
  p = vfmaq_f32(vdupq_n_f32(kExpC5), p, r);
  p = vfmaq_f32(vaddq_f32(r, vdupq_n_f32(1.0f)), p, vmulq_f32(r, r));
  int32x4_t ni = vcvtq_s32_f32(n);  // n is integral after vrndnq
  ni = vshlq_n_s32(vaddq_s32(ni, vdupq_n_s32(127)), 23);
  return vmulq_f32(p, vreinterpretq_f32_s32(ni));
}

inline float32x4_t Tanh4(float32x4_t z) {
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t e = Exp4(vaddq_f32(z, z));
  return vdivq_f32(vsubq_f32(e, one), vaddq_f32(e, one));
}

}  // namespace

void Softmax(float* x, int32_t n) {
  if (n <= 0) return;
  float32x4_t vmax = vdupq_n_f32(x[0]);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) vmax = vmaxq_f32(vmax, vld1q_f32(x + i));
  float mx = vmaxvq_f32(vmax);
  for (; i < n; ++i) mx = std::max(mx, x[i]);

  const float32x4_t vmx = vdupq_n_f32(mx);
  float32x4_t vsum = vdupq_n_f32(0.0f);
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t e = Exp4(vsubq_f32(vld1q_f32(x + i), vmx));
    vst1q_f32(x + i, e);
    vsum = vaddq_f32(vsum, e);
  }
  float sum = vaddvq_f32(vsum);
  for (; i < n; ++i) {
    x[i] = ExpLane(x[i] - mx);
    sum += x[i];
  }
  ScaleInPlace(x, 1.0f / sum, n);
}

void Gelu(float* x, int32_t n) {
  const float32x4_t vc = vdupq_n_f32(kGeluC);
  const float32x4_t va = vdupq_n_f32(kGeluA);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  int32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(x + i);
    const float32x4_t inner =
        vmulq_f32(vc, vfmaq_f32(v, vmulq_f32(va, vmulq_f32(v, v)), v));
    const float32x4_t t = Tanh4(inner);
    vst1q_f32(x + i, vmulq_f32(vmulq_f32(half, v), vaddq_f32(one, t)));
  }
  for (; i < n; ++i) x[i] = GeluLane(x[i]);
}

#else  // scalar stubs: ops.cc routes everything to the reference kernels.

bool Available() { return false; }
const char* IsaName() { return "scalar"; }
int32_t WidthFloats() { return 1; }

float Dot(const float*, const float*, int32_t) { return 0.0f; }
void ScoreKeys(const float*, const float*, int64_t, int32_t, int32_t, float,
               float*) {}
void LayerNorm(const float*, const float*, const float*, float*, int32_t) {}
void WeightedSum(const float*, const float*, int64_t, int32_t, int32_t,
                 float*) {}
void AddInPlace(float*, const float*, int32_t) {}
void ScaleInPlace(float*, float, int32_t) {}
void Relu(float*, int32_t) {}
void Softmax(float*, int32_t) {}
void Gelu(float*, int32_t) {}

#endif

}  // namespace simd
}  // namespace ops
}  // namespace aptserve
