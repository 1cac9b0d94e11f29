#include "engine/ops.h"

#include <algorithm>
#include <cmath>

#include "engine/ops_simd.h"
#include "runtime/thread_pool.h"

namespace aptserve {
namespace ops {

namespace {

/// The fewest W rows per task of a W-row split, and the most per cache
/// tile.
constexpr int32_t kRowTile = 32;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// W rows per cache tile: about 16 KB of weights, so a tile stays in L1
/// while it multiplies every batch row; at least one 8-row ScoreKeys
/// block, at most kRowTile.
inline int32_t RowTile(int32_t cols) {
  return std::clamp(4096 / std::max(cols, 1), 8, kRowTile);
}

/// Resolved once: the ops_simd.cc translation unit either carries a vector
/// backend or returns false, fixed at build time.
const bool kUseSimd = simd::Available();

inline float GeluScalar(float v) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * v * (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
}

}  // namespace

const char* ActiveIsa() { return simd::IsaName(); }

int32_t VectorWidthFloats() { return simd::WidthFloats(); }

// ---- Pinned scalar reference kernels --------------------------------------

namespace scalar {

void MatVec(const float* w, const float* x, float* y, int32_t rows,
            int32_t cols) {
  for (int32_t r = 0; r < rows; ++r) {
    const float* row = w + static_cast<int64_t>(r) * cols;
    float acc = 0.0f;
    for (int32_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void AddInPlace(float* x, const float* y, int32_t n) {
  for (int32_t i = 0; i < n; ++i) x[i] += y[i];
}

void ScaleInPlace(float* x, float s, int32_t n) {
  for (int32_t i = 0; i < n; ++i) x[i] *= s;
}

float Dot(const float* a, const float* b, int32_t n) {
  float acc = 0.0f;
  for (int32_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out) {
  for (int32_t i = 0; i < len; ++i) out[i] = 0.0f;
  for (int32_t j = 0; j < n_rows; ++j) {
    const float* row = rows + j * stride;
    for (int32_t i = 0; i < len; ++i) out[i] += weights[j] * row[i];
  }
}

void Softmax(float* x, int32_t n) {
  if (n <= 0) return;
  float mx = x[0];
  for (int32_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (int32_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - mx);
    sum += x[i];
  }
  const float inv = 1.0f / sum;
  for (int32_t i = 0; i < n; ++i) x[i] *= inv;
}

void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n) {
  constexpr float kEps = 1e-5f;
  float mean = 0.0f;
  for (int32_t i = 0; i < n; ++i) mean += x[i];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (int32_t i = 0; i < n; ++i) {
    const float d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + kEps);
  for (int32_t i = 0; i < n; ++i) {
    out[i] = (x[i] - mean) * inv * gain[i] + bias[i];
  }
}

void Gelu(float* x, int32_t n) {
  for (int32_t i = 0; i < n; ++i) x[i] = GeluScalar(x[i]);
}

void Relu(float* x, int32_t n) {
  for (int32_t i = 0; i < n; ++i) x[i] = std::max(0.0f, x[i]);
}

int32_t ArgMax(const float* x, int32_t n) {
  int32_t best = 0;
  for (int32_t i = 1; i < n; ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

}  // namespace scalar

// ---- Dispatched entry points ----------------------------------------------
//
// Every MatVec/MatMat output element funnels through ops::Dot and every
// normalized row through ops::LayerNorm, so the unblocked and blocked tiers
// stay bit-identical to each other on both ISA legs.

float Dot(const float* a, const float* b, int32_t n) {
  return kUseSimd ? simd::Dot(a, b, n) : scalar::Dot(a, b, n);
}

void ScoreKeys(const float* q, const float* keys, int64_t stride,
               int32_t n_keys, int32_t len, float scale, float* out) {
  if (kUseSimd) {
    simd::ScoreKeys(q, keys, stride, n_keys, len, scale, out);
    return;
  }
  for (int32_t j = 0; j < n_keys; ++j) {
    out[j] = scalar::Dot(q, keys + j * stride, len) * scale;
  }
}

void WeightedSum(const float* weights, const float* rows, int64_t stride,
                 int32_t n_rows, int32_t len, float* out) {
  if (kUseSimd) {
    simd::WeightedSum(weights, rows, stride, n_rows, len, out);
  } else {
    scalar::WeightedSum(weights, rows, stride, n_rows, len, out);
  }
}

void MatVec(const float* w, const float* x, float* y, int32_t rows,
            int32_t cols) {
  for (int32_t r = 0; r < rows; ++r) {
    y[r] = Dot(w + static_cast<int64_t>(r) * cols, x, cols);
  }
}

void AddInPlace(float* x, const float* y, int32_t n) {
  if (kUseSimd) {
    simd::AddInPlace(x, y, n);
  } else {
    scalar::AddInPlace(x, y, n);
  }
}

void ScaleInPlace(float* x, float s, int32_t n) {
  if (kUseSimd) {
    simd::ScaleInPlace(x, s, n);
  } else {
    scalar::ScaleInPlace(x, s, n);
  }
}

void Softmax(float* x, int32_t n) {
  if (kUseSimd) {
    simd::Softmax(x, n);
  } else {
    scalar::Softmax(x, n);
  }
}

void LayerNorm(const float* x, const float* gain, const float* bias,
               float* out, int32_t n) {
  if (kUseSimd) {
    simd::LayerNorm(x, gain, bias, out, n);
  } else {
    scalar::LayerNorm(x, gain, bias, out, n);
  }
}

void Gelu(float* x, int32_t n) {
  if (kUseSimd) {
    simd::Gelu(x, n);
  } else {
    scalar::Gelu(x, n);
  }
}

void Relu(float* x, int32_t n) {
  if (kUseSimd) {
    simd::Relu(x, n);
  } else {
    scalar::Relu(x, n);
  }
}

int32_t ArgMax(const float* x, int32_t n) { return scalar::ArgMax(x, n); }

// ---- Blocked / batched kernels (parallel runtime tier) --------------------

namespace {

enum class PostAct { kNone, kRelu, kGelu };

/// The blocked core: y_b[r] = act(dot(w_r, x_b)) over the sub-rectangle
/// [b_lo, b_hi) x [r_lo, r_hi). Each dot is the dispatched ops::Dot's exact
/// accumulation order — the same as the unblocked MatVec — so every output
/// element is bit-identical to it no matter how the rectangle is split
/// across threads.
inline void MatMatTile(const float* w, const float* x, float* y, int32_t rows,
                       int32_t cols, int32_t b_lo, int32_t b_hi, int32_t r_lo,
                       int32_t r_hi, PostAct act) {
  const int32_t tile = RowTile(cols);
  for (int32_t r0 = r_lo; r0 < r_hi; r0 += tile) {
    const int32_t r1 = std::min(r0 + tile, r_hi);
    for (int32_t b = b_lo; b < b_hi; ++b) {
      const float* xb = x + static_cast<int64_t>(b) * cols;
      float* yb = y + static_cast<int64_t>(b) * rows;
      // ScoreKeys with scale 1 (an exact multiply) is Dot per row, with
      // eight rows' horizontal sums done at once.
      ScoreKeys(xb, w + static_cast<int64_t>(r0) * cols, cols, r1 - r0, cols,
                1.0f, yb + r0);
      if (act == PostAct::kRelu) {
        for (int32_t r = r0; r < r1; ++r) yb[r] = std::max(0.0f, yb[r]);
      } else if (act == PostAct::kGelu) {
        // The dispatched Gelu is elementwise offset-invariant (its scalar
        // tail replays the vector lanes exactly), so applying it per tile
        // sub-range is bit-identical to one unfused full-range call no
        // matter where the tile boundaries fall.
        Gelu(yb + r0, r1 - r0);
      }
    }
  }
}

void MatMatImpl(const float* w, const float* x, float* y, int32_t batch,
                int32_t rows, int32_t cols, PostAct act,
                runtime::ThreadPool* pool) {
  if (batch <= 0 || rows <= 0) return;
  const int64_t tasks =
      ParallelTasks(pool, static_cast<int64_t>(batch) * rows * cols);
  if (tasks <= 1) {
    MatMatTile(w, x, y, rows, cols, 0, batch, 0, rows, act);
    return;
  }
  if (batch >= 2 * tasks) {
    // Plenty of batch rows: split the batch, each task sweeps all W tiles.
    pool->ParallelFor(0, batch, CeilDiv(batch, tasks),
                      [&](int64_t lo, int64_t hi) {
      MatMatTile(w, x, y, rows, cols, static_cast<int32_t>(lo),
                 static_cast<int32_t>(hi), 0, rows, act);
    });
  } else {
    // Few batch rows (decode / logits): split the W rows instead.
    const int64_t grain = std::max<int64_t>(kRowTile, CeilDiv(rows, tasks));
    pool->ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
      MatMatTile(w, x, y, rows, cols, 0, batch, static_cast<int32_t>(lo),
                 static_cast<int32_t>(hi), act);
    });
  }
}

}  // namespace

int64_t ParallelTasks(const runtime::ThreadPool* pool, int64_t work) {
  if (pool == nullptr) return 1;
  return std::clamp<int64_t>(work / kMinTaskWork, 1, pool->num_threads());
}

void MatMat(const float* w, const float* x, float* y, int32_t batch,
            int32_t rows, int32_t cols, runtime::ThreadPool* pool) {
  MatMatImpl(w, x, y, batch, rows, cols, PostAct::kNone, pool);
}

void MatVecBlocked(const float* w, const float* x, float* y, int32_t rows,
                   int32_t cols, runtime::ThreadPool* pool) {
  MatMatImpl(w, x, y, 1, rows, cols, PostAct::kNone, pool);
}

void LayerNormBatch(const float* x, const float* gain, const float* bias,
                    float* out, int32_t batch, int32_t n,
                    runtime::ThreadPool* pool) {
  // A grain of the whole batch (one task) runs inline.
  const int64_t tasks = ParallelTasks(pool, static_cast<int64_t>(batch) * n);
  const int64_t grain = CeilDiv(batch, tasks);
  runtime::ParallelFor(pool, 0, batch, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      LayerNorm(x + b * n, gain, bias, out + b * n, n);
    }
  });
}

void FusedMatMatAct(const float* w, const float* x, float* y, int32_t batch,
                    int32_t rows, int32_t cols, bool use_relu,
                    runtime::ThreadPool* pool) {
  MatMatImpl(w, x, y, batch, rows, cols,
             use_relu ? PostAct::kRelu : PostAct::kGelu, pool);
}

}  // namespace ops
}  // namespace aptserve
