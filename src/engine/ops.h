// Dense kernels for the mini transformer. All functions operate on raw fp32
// spans; shapes are passed explicitly and validated by callers. Matrices are
// row-major.
//
// Three kernel tiers live here:
//   * pinned scalar reference kernels (ops::scalar::*) — the ground truth,
//     single-threaded, naive loops, never vectorized (this translation unit
//     is built without vector flags, so compiler FP contraction cannot
//     change them);
//   * dispatched entry points (ops::MatVec, ops::LayerNorm, ...) — route to
//     the SIMD backend (engine/ops_simd.h: AVX2+FMA on x86, NEON on
//     aarch64) when the build carries one, else to the scalar reference.
//     Elementwise kernels are bit-identical to the reference either way;
//     reduction kernels (Dot, LayerNorm) agree to bounded ulp when the
//     vector path is active (reduction order differs) and are still a pure
//     function of their inputs — bit-identical across thread counts and
//     run-to-run. ScoreKeys (one attention head's scaled scores) is
//     bit-identical to its per-key Dot on either path, and WeightedSum
//     (its value-row mix) to the scalar reference. ops::ActiveIsa()
//     reports which path runs so benches can stamp it;
//   * blocked/batched kernels (MatMat, MatVecBlocked, LayerNormBatch and
//     the fused passes) — cache-tiled over weight rows and, when the work
//     is large enough to pay for a fork/join (ParallelTasks), parallel over
//     an aptserve::runtime::ThreadPool. Every blocked kernel
//     accumulates each output element in the dispatched Dot's exact order
//     (through ScoreKeys, eight W rows at a time) and normalizes through
//     the dispatched LayerNorm, so its results are bit-identical to the
//     unblocked entry points at any thread count (pinned by
//     tests/parallel_ops_test.cc) on both ISA legs.
#pragma once

#include <cstdint>

namespace aptserve {

namespace runtime {
class ThreadPool;
}  // namespace runtime

namespace ops {

/// Vector backend the dispatched kernels actually use at runtime:
/// "avx2+fma", "neon", or "scalar". Benches stamp this into snapshots.
const char* ActiveIsa();

/// SIMD lanes (in floats) of the active backend: 8 (AVX2), 4 (NEON), or 1.
int32_t VectorWidthFloats();

/// y = W x, where W is [rows, cols] row-major and x has `cols` elements.
void MatVec(const float* w, const float* x, float* y, int32_t rows,
            int32_t cols);

/// x += y elementwise.
void AddInPlace(float* x, const float* y, int32_t n);

/// x *= s elementwise.
void ScaleInPlace(float* x, float s, int32_t n);

float Dot(const float* a, const float* b, int32_t n);

/// One attention head's scaled scores: out[j] = Dot(q, keys + j * stride,
/// len) * scale for j in [0, n_keys). Bit-identical to that per-key loop;
/// the AVX2 path reduces eight keys' accumulators at once.
void ScoreKeys(const float* q, const float* keys, int64_t stride,
               int32_t n_keys, int32_t len, float scale, float* out);

/// out = sum_j weights[j] * rows[j * stride .. + len), rows in order from
/// a zeroed out: one attention head's output over its value rows. One
/// multiply and one add per element and row, so bit-identical to the
/// scalar loop `out[i] += weights[j] * row_j[i]`; the vector path keeps
/// the running sums in registers across rows.
void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out);

/// In-place numerically-stable softmax over n elements.
void Softmax(float* x, int32_t n);

/// out = LayerNorm(x) * gain + bias, eps = 1e-5.
void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n);

/// In-place tanh-approximation GELU.
void Gelu(float* x, int32_t n);

/// In-place ReLU (the paper's Eq. 4 uses a generic activation; OPT uses
/// ReLU).
void Relu(float* x, int32_t n);

/// Index of the maximum element (first on ties).
int32_t ArgMax(const float* x, int32_t n);

// ---- Pinned scalar reference kernels --------------------------------------
//
// The golden tier: naive single-threaded loops, identical to the pre-SIMD
// kernels. SIMD agreement tests (tests/simd_ops_test.cc) compare the
// dispatched entry points against these — exact where the dispatched kernel
// preserves the scalar accumulation order, bounded-ulp where a vector
// reduction reorders it.
namespace scalar {

void MatVec(const float* w, const float* x, float* y, int32_t rows,
            int32_t cols);
void AddInPlace(float* x, const float* y, int32_t n);
void ScaleInPlace(float* x, float s, int32_t n);
float Dot(const float* a, const float* b, int32_t n);
void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out);
void Softmax(float* x, int32_t n);
void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n);
void Gelu(float* x, int32_t n);
void Relu(float* x, int32_t n);
int32_t ArgMax(const float* x, int32_t n);

}  // namespace scalar

// ---- Blocked / batched kernels (parallel runtime tier) --------------------

/// The least work (multiply-adds, or comparable float operations) one
/// parallel task must carry before a kernel splits across a pool: a
/// fork/join costs microseconds, about what one core spends on this much
/// arithmetic, so smaller splits run slower than serial.
constexpr int64_t kMinTaskWork = int64_t{1} << 16;

/// Tasks worth splitting `work` into on `pool`: at most its thread count
/// and at least kMinTaskWork each; 1 (run serially) for a null pool or too
/// little work. The blocked kernels below size their splits with it.
int64_t ParallelTasks(const runtime::ThreadPool* pool, int64_t work);

/// Batched MatVec: Y = X W^T, i.e. y_b = W x_b for each of the `batch` rows
/// of X ([batch, cols] row-major); Y is [batch, rows]. Tiles of W rows are
/// streamed once and reused across the whole batch (cache blocking), and
/// the work is split over `pool` into ParallelTasks tasks. Bit-identical
/// to looping MatVec over the batch.
void MatMat(const float* w, const float* x, float* y, int32_t batch,
            int32_t rows, int32_t cols, runtime::ThreadPool* pool = nullptr);

/// Row-blocked MatVec (batch-1 MatMat): same contract as MatVec, optionally
/// parallel over row tiles. Bit-identical to MatVec.
void MatVecBlocked(const float* w, const float* x, float* y, int32_t rows,
                   int32_t cols, runtime::ThreadPool* pool = nullptr);

/// Row-wise LayerNorm over a [batch, n] matrix: out_b = LayerNorm(x_b) *
/// gain + bias. Bit-identical to calling LayerNorm per row.
void LayerNormBatch(const float* x, const float* gain, const float* bias,
                    float* out, int32_t batch, int32_t n,
                    runtime::ThreadPool* pool = nullptr);

/// Fused batched MatVec + activation: y_b = act(W x_b) with act = ReLU or
/// tanh-GELU, applied to each output tile while it is cache-hot.
/// Bit-identical to MatMat followed by Relu/Gelu.
void FusedMatMatAct(const float* w, const float* x, float* y, int32_t batch,
                    int32_t rows, int32_t cols, bool use_relu,
                    runtime::ThreadPool* pool = nullptr);

}  // namespace ops
}  // namespace aptserve
