// SIMD dispatch agreement: every dispatched ops.h entry point against the
// pinned scalar reference (ops::scalar), at sizes straddling the vector
// width so tail lanes and remainder loops are exercised. Elementwise
// kernels must match bit-for-bit (the vector path uses the same mul+add
// structure); reduction kernels (Dot, LayerNorm, and everything built on
// them) may reorder the accumulation and are held to a relative bound;
// transcendental kernels (Softmax, Gelu) run on a polynomial exp and are
// held to their own documented bound plus an offset-invariance pin.
//
// These tests are meaningful on BOTH CI ISA legs: with -DAPT_FORCE_SCALAR=ON
// the dispatched entry points must be exactly the scalar reference; with a
// vector backend they must agree within the documented bounds. The vector
// leg additionally sets APTSERVE_REQUIRE_SIMD=1 so a silently-scalar build
// (missing flags, failed runtime probe) fails loudly instead of vacuously
// passing the agreement tests.

#include "engine/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace aptserve {
namespace {

// Sizes straddling every lane boundary of interest: 8 (AVX2), 4 (NEON),
// 32 (the AVX2 Dot unrolled chunk), plus larger odd sizes.
const int32_t kSizes[] = {1,  2,  3,  7,  8,   9,   15,  16,  17,
                          31, 32, 33, 63, 64,  65,  100, 255, 256, 257};

std::vector<float> RandomVec(Rng* rng, int32_t n, double scale = 1.0) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, scale));
  return v;
}

// Bound for reduction kernels: generous against FP reassociation, far
// below any indexing/tail bug (which shows up as O(1) errors).
void ExpectClose(const float* want, const float* got, int32_t n,
                 double tol = 1e-4) {
  for (int32_t i = 0; i < n; ++i) {
    ASSERT_NEAR(want[i], got[i], tol * (1.0 + std::abs(want[i])))
        << "element " << i << " of " << n;
  }
}

void ExpectExact(const float* want, const float* got, int32_t n) {
  for (int32_t i = 0; i < n; ++i) {
    ASSERT_EQ(want[i], got[i]) << "element " << i << " of " << n;
  }
}

TEST(SimdDispatchTest, IsaReportCoherent) {
  const std::string isa = ops::ActiveIsa();
  EXPECT_TRUE(isa == "avx2+fma" || isa == "neon" || isa == "scalar") << isa;
  if (isa == "scalar") {
    EXPECT_EQ(ops::VectorWidthFloats(), 1);
  } else {
    EXPECT_GT(ops::VectorWidthFloats(), 1);
  }
}

TEST(SimdDispatchTest, RequireSimdEnvHonored) {
  // CI's vector leg exports APTSERVE_REQUIRE_SIMD=1: the build must have
  // resolved a real vector backend or the leg is not testing what it
  // claims to.
  if (std::getenv("APTSERVE_REQUIRE_SIMD") != nullptr) {
    EXPECT_STRNE(ops::ActiveIsa(), "scalar")
        << "APTSERVE_REQUIRE_SIMD is set but the build dispatches to scalar";
  }
}

TEST(SimdDispatchTest, DotAgreesWithScalar) {
  Rng rng(11);
  for (int32_t n : kSizes) {
    const std::vector<float> a = RandomVec(&rng, n);
    const std::vector<float> b = RandomVec(&rng, n);
    const float want = ops::scalar::Dot(a.data(), b.data(), n);
    const float got = ops::Dot(a.data(), b.data(), n);
    ASSERT_NEAR(want, got, 1e-4 * (1.0 + std::abs(want))) << "n=" << n;
  }
}

TEST(SimdDispatchTest, DotIsDeterministic) {
  Rng rng(12);
  const std::vector<float> a = RandomVec(&rng, 257);
  const std::vector<float> b = RandomVec(&rng, 257);
  const float first = ops::Dot(a.data(), b.data(), 257);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(first, ops::Dot(a.data(), b.data(), 257));
  }
}

TEST(SimdDispatchTest, MatVecAgreesWithScalar) {
  Rng rng(13);
  for (int32_t cols : kSizes) {
    const int32_t rows = 5;
    const std::vector<float> w = RandomVec(&rng, rows * cols);
    const std::vector<float> x = RandomVec(&rng, cols);
    std::vector<float> want(rows), got(rows);
    ops::scalar::MatVec(w.data(), x.data(), want.data(), rows, cols);
    ops::MatVec(w.data(), x.data(), got.data(), rows, cols);
    ExpectClose(want.data(), got.data(), rows);
  }
}

void ExpectSameBits(const float* want, const float* got, int32_t n) {
  for (int32_t i = 0; i < n; ++i) {
    uint32_t w = 0, g = 0;
    std::memcpy(&w, &want[i], sizeof(w));
    std::memcpy(&g, &got[i], sizeof(g));
    ASSERT_EQ(w, g) << "element " << i << " of " << n << ": " << want[i]
                    << " vs " << got[i];
  }
}

TEST(SimdDispatchTest, ScoreKeysBitIdenticalToDot) {
  // ScoreKeys must equal the per-key Dot * scale bit for bit: the AVX2
  // path rebuilds each key's Dot accumulator and reduces eight keys at
  // once through HSum's add tree, then runs Dot's scalar tail. Key counts
  // cover empty, partial and full 8-key groups plus remainders; lengths
  // cover the 32-float main loop, 8-float tails and a scalar tail (36);
  // strides wider than the length skip the rest of each key row.
  Rng rng(21);
  const int32_t kKeyCounts[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 257};
  const int32_t kLens[] = {8, 16, 24, 32, 36, 64, 128};
  const float scale = 0.1767767f;
  for (int32_t len : kLens) {
    for (int32_t pad : {0, 5, 96}) {
      const int64_t stride = len + pad;
      for (int32_t n_keys : kKeyCounts) {
        const std::vector<float> q = RandomVec(&rng, len);
        const std::vector<float> keys =
            RandomVec(&rng, static_cast<int32_t>(n_keys * stride + 1));
        std::vector<float> want(n_keys + 1), got(n_keys + 1, -7.0f);
        for (int32_t j = 0; j < n_keys; ++j) {
          want[j] = ops::Dot(q.data(), keys.data() + j * stride, len) * scale;
        }
        want[n_keys] = -7.0f;  // untouched past the last key
        ops::ScoreKeys(q.data(), keys.data(), stride, n_keys, len, scale,
                       got.data());
        ExpectSameBits(want.data(), got.data(), n_keys + 1);
      }
    }
  }
}

TEST(SimdDispatchTest, WeightedSumBitIdentical) {
  // The vector path keeps four 8-lane running sums in registers across the
  // rows; each element still sees one multiply and one add per row, in row
  // order from zero — the scalar reference, which is the attention loop
  // `o[k] += a * v[k]` over the value rows.
  Rng rng(23);
  for (int32_t len : {1, 7, 8, 12, 16, 30, 32, 36, 64, 100}) {
    for (int32_t n_rows : {0, 1, 2, 9, 64, 257}) {
      const int64_t stride = len + 3;
      const std::vector<float> rows =
          RandomVec(&rng, static_cast<int32_t>(n_rows * stride + 1));
      const std::vector<float> w = RandomVec(&rng, n_rows + 1);
      std::vector<float> loop(len + 1, 0.0f);
      for (int32_t j = 0; j < n_rows; ++j) {
        for (int32_t k = 0; k < len; ++k) {
          loop[k] += w[j] * rows[j * stride + k];
        }
      }
      loop[len] = -7.0f;  // untouched past `len`
      std::vector<float> want(len + 1, -7.0f), got(len + 1, -7.0f);
      ops::scalar::WeightedSum(w.data(), rows.data(), stride, n_rows, len,
                               want.data());
      ops::WeightedSum(w.data(), rows.data(), stride, n_rows, len,
                       got.data());
      ExpectSameBits(loop.data(), want.data(), len + 1);
      ExpectSameBits(want.data(), got.data(), len + 1);
    }
  }
}

TEST(SimdDispatchTest, ElementwiseBitIdentical) {
  Rng rng(15);
  for (int32_t n : kSizes) {
    const std::vector<float> base = RandomVec(&rng, n);
    const std::vector<float> add = RandomVec(&rng, n);

    std::vector<float> a = base, b = base;
    ops::scalar::AddInPlace(a.data(), add.data(), n);
    ops::AddInPlace(b.data(), add.data(), n);
    ExpectExact(a.data(), b.data(), n);

    a = base, b = base;
    ops::scalar::ScaleInPlace(a.data(), 0.37f, n);
    ops::ScaleInPlace(b.data(), 0.37f, n);
    ExpectExact(a.data(), b.data(), n);

    a = base, b = base;
    ops::scalar::Relu(a.data(), n);
    ops::Relu(b.data(), n);
    ExpectExact(a.data(), b.data(), n);
  }
}

TEST(SimdDispatchTest, SoftmaxAgreesWithScalar) {
  // The vector path replaces libm exp with a ~2-ulp polynomial and sums
  // lane-major, so agreement is bounded, not exact. Outputs are
  // probabilities (≤ 1), so the absolute part of the bound dominates.
  Rng rng(16);
  for (int32_t n : kSizes) {
    const std::vector<float> base = RandomVec(&rng, n, 2.0);
    std::vector<float> a = base, b = base;
    ops::scalar::Softmax(a.data(), n);
    ops::Softmax(b.data(), n);
    ExpectClose(a.data(), b.data(), n, 1e-5);
    float sum = 0.0f;
    for (int32_t i = 0; i < n; ++i) sum += b[i];
    ASSERT_NEAR(sum, 1.0f, 1e-5) << "n=" << n;
  }
}

TEST(SimdDispatchTest, SoftmaxIsDeterministic) {
  Rng rng(21);
  const std::vector<float> base = RandomVec(&rng, 257, 2.0);
  std::vector<float> first = base;
  ops::Softmax(first.data(), 257);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<float> again = base;
    ops::Softmax(again.data(), 257);
    ExpectExact(first.data(), again.data(), 257);
  }
}

TEST(SimdDispatchTest, GeluAgreesWithScalar) {
  // Same tanh-form constants as the reference; tanh itself is evaluated
  // through the polynomial exp, hence a bound instead of exactness.
  Rng rng(22);
  for (int32_t n : kSizes) {
    const std::vector<float> base = RandomVec(&rng, n, 3.0);
    std::vector<float> a = base, b = base;
    ops::scalar::Gelu(a.data(), n);
    ops::Gelu(b.data(), n);
    ExpectClose(a.data(), b.data(), n, 1e-5);
  }
}

TEST(SimdDispatchTest, GeluOffsetInvariant) {
  // The fused MatMat tile applies Gelu to kRowTile sub-ranges; that is
  // only bit-identical to the unfused full-range call if every element's
  // result is independent of where the vector/tail boundary falls. Apply
  // in deliberately misaligned chunks and require exact agreement.
  Rng rng(23);
  const int32_t n = 257;
  const std::vector<float> base = RandomVec(&rng, n, 3.0);
  std::vector<float> full = base;
  ops::Gelu(full.data(), n);
  for (int32_t chunk : {1, 3, 5, 13, 32}) {
    std::vector<float> pieces = base;
    for (int32_t lo = 0; lo < n; lo += chunk) {
      ops::Gelu(pieces.data() + lo, std::min(chunk, n - lo));
    }
    ExpectExact(full.data(), pieces.data(), n);
  }
}

TEST(SimdDispatchTest, ArgMaxAlwaysScalar) {
  // ArgMax still forwards to the reference; pin that so a future
  // vectorization must come with its own tie-breaking guarantee.
  Rng rng(24);
  for (int32_t n : kSizes) {
    const std::vector<float> base = RandomVec(&rng, n, 2.0);
    ASSERT_EQ(ops::scalar::ArgMax(base.data(), n), ops::ArgMax(base.data(), n));
  }
}

TEST(SimdDispatchTest, LayerNormAgreesWithScalar) {
  Rng rng(17);
  for (int32_t n : kSizes) {
    const std::vector<float> x = RandomVec(&rng, n, 3.0);
    const std::vector<float> gain = RandomVec(&rng, n);
    const std::vector<float> bias = RandomVec(&rng, n);
    std::vector<float> want(n), got(n);
    ops::scalar::LayerNorm(x.data(), gain.data(), bias.data(), want.data(), n);
    ops::LayerNorm(x.data(), gain.data(), bias.data(), got.data(), n);
    ExpectClose(want.data(), got.data(), n, 5e-4);
  }
}

TEST(SimdDispatchTest, BlockedKernelsAgreeWithScalar) {
  // The blocked tier funnels through the dispatched Dot/LayerNorm, so vs
  // the *scalar* reference it inherits the reduction bound (and is exact
  // on the force-scalar leg).
  Rng rng(18);
  for (int32_t cols : {3, 8, 33, 65, 100}) {
    const int32_t batch = 4, rows = 6;
    const std::vector<float> w = RandomVec(&rng, rows * cols);
    const std::vector<float> x = RandomVec(&rng, batch * cols);
    const std::vector<float> gain = RandomVec(&rng, cols);
    const std::vector<float> bias = RandomVec(&rng, cols);

    std::vector<float> want(static_cast<size_t>(batch) * rows);
    std::vector<float> got(want.size());

    for (int32_t b = 0; b < batch; ++b) {
      ops::scalar::MatVec(w.data(), x.data() + b * cols, want.data() + b * rows,
                          rows, cols);
    }
    ops::MatMat(w.data(), x.data(), got.data(), batch, rows, cols);
    ExpectClose(want.data(), got.data(), batch * rows);

    ops::MatVecBlocked(w.data(), x.data(), got.data(), rows, cols);
    ExpectClose(want.data(), got.data(), rows);

    std::vector<float> norm_want(static_cast<size_t>(batch) * cols);
    std::vector<float> norm_got(norm_want.size());
    for (int32_t b = 0; b < batch; ++b) {
      ops::scalar::LayerNorm(x.data() + b * cols, gain.data(), bias.data(),
                             norm_want.data() + b * cols, cols);
    }
    ops::LayerNormBatch(x.data(), gain.data(), bias.data(), norm_got.data(),
                        batch, cols);
    ExpectClose(norm_want.data(), norm_got.data(), batch * cols, 5e-4);

    for (int32_t b = 0; b < batch; ++b) {
      ops::scalar::MatVec(w.data(), x.data() + b * cols, want.data() + b * rows,
                          rows, cols);
    }
    ops::scalar::Relu(want.data(), batch * rows);
    ops::FusedMatMatAct(w.data(), x.data(), got.data(), batch, rows, cols,
                        /*use_relu=*/true);
    ExpectClose(want.data(), got.data(), batch * rows);
  }
}

TEST(SimdDispatchTest, ForcedScalarDispatchIsExact) {
  // When the build carries no vector backend, dispatch must be the scalar
  // reference bit-for-bit — every entry point, not just the elementwise
  // ones. (On a vector build this test is vacuous and skipped.)
  if (std::string(ops::ActiveIsa()) != "scalar") {
    GTEST_SKIP() << "vector backend active";
  }
  Rng rng(19);
  for (int32_t n : kSizes) {
    const std::vector<float> a = RandomVec(&rng, n);
    const std::vector<float> b = RandomVec(&rng, n);
    ASSERT_EQ(ops::scalar::Dot(a.data(), b.data(), n),
              ops::Dot(a.data(), b.data(), n));
    std::vector<float> want(n), got(n);
    ops::scalar::LayerNorm(a.data(), b.data(), b.data(), want.data(), n);
    ops::LayerNorm(a.data(), b.data(), b.data(), got.data(), n);
    ExpectExact(want.data(), got.data(), n);

    std::vector<float> sa = a, sb = a;
    ops::scalar::Softmax(sa.data(), n);
    ops::Softmax(sb.data(), n);
    ExpectExact(sa.data(), sb.data(), n);

    sa = a, sb = a;
    ops::scalar::Gelu(sa.data(), n);
    ops::Gelu(sb.data(), n);
    ExpectExact(sa.data(), sb.data(), n);
  }
}

}  // namespace
}  // namespace aptserve
