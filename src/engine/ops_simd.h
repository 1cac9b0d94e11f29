// Internal SIMD primitive tier behind the ops.h dispatch (engine/ops.cc is
// the only intended includer besides tests/benches that want to introspect
// the active path). One translation unit (ops_simd.cc) is compiled with the
// vector ISA flags the build detected (-mavx2 -mfma on x86, NEON is
// baseline on aarch64); everything else in the library keeps the default
// flags, so compiler auto-contraction can never change the pinned scalar
// reference kernels.
//
// Determinism contract: every primitive's result is a pure function of its
// inputs and lengths — the lane structure (accumulator count, tail order)
// is fixed, never data- or thread-dependent — so dispatched kernels stay
// bit-identical across thread counts and run-to-run, exactly like the
// scalar tier. Reduction primitives (Dot, LayerNorm) use a different
// summation order than the scalar reference and therefore agree only to
// bounded ulp; ScoreKeys replays Dot's order exactly, so it is
// bit-identical to a per-key Dot; elementwise primitives (AddInPlace,
// ScaleInPlace, Relu, WeightedSum) use one multiply/add per element
// in scalar order and are bit-identical to the reference. Transcendental
// kernels (Softmax, Gelu) replace libm exp/tanh with a vector polynomial
// (Cephes-style range reduction) and agree with the scalar reference only
// to a documented bound (~1e-5 relative); their scalar tails replay the
// vector lanes' exact arithmetic (fmaf + the same polynomial), so every
// element's result is independent of where the lane boundary falls —
// tiled callers (FusedMatMatAct) stay bit-identical to the untiled
// dispatch.
#pragma once

#include <cstdint>

namespace aptserve {
namespace ops {
namespace simd {

/// True when this build carries a vector ISA (and APT_FORCE_SCALAR is off).
bool Available();

/// "avx2+fma", "neon", or "scalar".
const char* IsaName();

/// SIMD lanes in floats: 8 (AVX2), 4 (NEON), 1 (scalar stub).
int32_t WidthFloats();

/// Vectorized dot product, 4-accumulator main loop + vector + scalar tails.
/// Bounded-ulp vs the scalar reference (reduction order differs).
float Dot(const float* a, const float* b, int32_t n);

/// out[j] = Dot(q, keys + j * stride, len) * scale, bit-identical to that
/// per-key loop. AVX2 builds each key's Dot accumulator exactly and
/// reduces eight keys at once with HSum's add tree; NEON loops Dot.
void ScoreKeys(const float* q, const float* keys, int64_t stride,
               int32_t n_keys, int32_t len, float scale, float* out);

/// Vectorized LayerNorm (eps = 1e-5, same formula as the scalar kernel).
/// Bounded-ulp vs the reference: mean/variance reductions are vectorized.
void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n);

/// out = sum_j weights[j] * rows[j * stride ..], rows in order from zero,
/// mul then add per element (no FMA): bit-identical to zero-fill plus
/// `out[i] += weights[j] * row_j[i]` per row, with the running sums held
/// in registers.
void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out);

/// Elementwise kernels, bit-identical to the scalar reference.
void AddInPlace(float* x, const float* y, int32_t n);
void ScaleInPlace(float* x, float s, int32_t n);
void Relu(float* x, int32_t n);

/// Vectorized numerically-stable softmax (max-subtract, polynomial exp,
/// normalize). Bounded agreement vs the scalar reference (the vector exp
/// is a degree-6 polynomial, ~2 ulp, and the sum reduction is lane-major);
/// deterministic: the lane structure is a fixed function of n.
void Softmax(float* x, int32_t n);

/// Vectorized tanh-form GELU (same constants as the scalar kernel; tanh
/// evaluated as (e-1)/(e+1) with e = polynomial exp(2z)). Bounded
/// agreement vs the scalar reference, and elementwise offset-invariant:
/// the scalar tail replays the vector arithmetic exactly, so Gelu(x+k, m)
/// over subranges is bit-identical to one full-range call.
void Gelu(float* x, int32_t n);

}  // namespace simd
}  // namespace ops
}  // namespace aptserve
