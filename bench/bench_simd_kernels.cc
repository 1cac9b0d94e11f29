// Micro-bench of the SIMD kernel dispatch (engine/ops.h): GFLOP/s of each
// dispatched kernel against the pinned scalar reference (ops::scalar) at
// transformer-shaped sizes. The "isa" field stamps which vector backend the
// build resolved (ops::ActiveIsa()); when it is "scalar" — forced via
// -DAPT_FORCE_SCALAR=ON or an unsupported host — the snapshot says so
// honestly (vector_active=false, speedups ~1x) instead of pretending a
// vector win.
//
// Results land in BENCH_bench_simd_kernels.json (committed copy under
// bench/results/ tracks the perf trajectory across PRs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "engine/ops.h"

using namespace aptserve;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Defeats dead-code elimination of the benched kernels.
volatile float g_sink = 0.0f;

/// Runs `fn` repeatedly until ~`min_seconds` of wall clock accumulates and
/// returns seconds per call.
double TimePerCall(const std::function<void()>& fn,
                   double min_seconds = 0.15) {
  fn();  // warm-up (page in buffers, settle dispatch)
  int64_t calls = 1;
  for (;;) {
    const double start = NowSeconds();
    for (int64_t i = 0; i < calls; ++i) fn();
    const double elapsed = NowSeconds() - start;
    if (elapsed >= min_seconds) return elapsed / static_cast<double>(calls);
    calls = elapsed <= 0.0 ? calls * 8
                           : static_cast<int64_t>(
                                 calls * (1.2 * min_seconds / elapsed)) +
                                 1;
  }
}

struct KernelResult {
  std::string kernel;
  double flops_per_call = 0.0;
  double dispatch_s = 0.0;
  double scalar_s = 0.0;

  double Gflops(double seconds) const {
    return seconds > 0 ? flops_per_call / seconds / 1e9 : 0.0;
  }
  double Speedup() const {
    return dispatch_s > 0 ? scalar_s / dispatch_s : 0.0;
  }
};

void Record(const KernelResult& r) {
  std::printf("  %-22s %8.2f GF/s dispatch  %8.2f GF/s scalar  %5.2fx\n",
              r.kernel.c_str(), r.Gflops(r.dispatch_s), r.Gflops(r.scalar_s),
              r.Speedup());
  bench::JsonObject e;
  e.Str("kernel", r.kernel)
      .Str("isa", ops::ActiveIsa())
      .Num("flops_per_call", r.flops_per_call)
      .Num("dispatch_gflops", r.Gflops(r.dispatch_s))
      .Num("scalar_gflops", r.Gflops(r.scalar_s))
      .Num("speedup_vs_scalar", r.Speedup());
  bench::BenchJson::Instance().AddEntry(std::move(e));
}

}  // namespace

int main() {
  const std::string isa = ops::ActiveIsa();
  const bool vector_active = isa != "scalar";
  std::printf("bench_simd_kernels: isa=%s width=%d floats\n", isa.c_str(),
              ops::VectorWidthFloats());
  bench::BenchJson::Instance().config()
      .Str("isa", isa)
      .Int("vector_width_floats", ops::VectorWidthFloats())
      .Bool("vector_active", vector_active);

  // Transformer-shaped operands: d_model-by-d_ff projections over a
  // prefill-sized batch (the MatMat path every forward pass funnels into).
  const int32_t batch = 32, rows = 512, cols = 512;
  Rng rng(123);
  auto rand_vec = [&](int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (float& x : v) x = static_cast<float>(rng.Normal());
    return v;
  };
  const std::vector<float> w = rand_vec(static_cast<int64_t>(rows) * cols);
  const std::vector<float> x = rand_vec(static_cast<int64_t>(batch) * cols);
  const std::vector<float> gain = rand_vec(cols);
  const std::vector<float> bias = rand_vec(cols);
  std::vector<float> y(static_cast<size_t>(batch) *
                       std::max(rows, cols));

  std::vector<KernelResult> results;

  {
    KernelResult r;
    r.kernel = "Dot";
    r.flops_per_call = 2.0 * cols;
    r.dispatch_s = TimePerCall(
        [&] { g_sink = ops::Dot(w.data(), x.data(), cols); });
    r.scalar_s = TimePerCall(
        [&] { g_sink = ops::scalar::Dot(w.data(), x.data(), cols); });
    results.push_back(r);
  }
  {
    KernelResult r;
    r.kernel = "MatVec";
    r.flops_per_call = 2.0 * rows * cols;
    r.dispatch_s = TimePerCall(
        [&] { ops::MatVec(w.data(), x.data(), y.data(), rows, cols); });
    r.scalar_s = TimePerCall([&] {
      ops::scalar::MatVec(w.data(), x.data(), y.data(), rows, cols);
    });
    results.push_back(r);
  }
  {
    KernelResult r;
    r.kernel = "MatMat";
    r.flops_per_call = 2.0 * batch * rows * cols;
    r.dispatch_s = TimePerCall([&] {
      ops::MatMat(w.data(), x.data(), y.data(), batch, rows, cols);
    });
    // Scalar reference for the blocked kernel: the per-row loop it is
    // contractually bit-identical to, on the reference tier.
    r.scalar_s = TimePerCall([&] {
      for (int32_t b = 0; b < batch; ++b) {
        ops::scalar::MatVec(w.data(), x.data() + b * cols,
                            y.data() + b * rows, rows, cols);
      }
    });
    results.push_back(r);
  }
  {
    KernelResult r;
    r.kernel = "LayerNorm";
    // ~9 flops/element: two reduction passes plus normalize.
    r.flops_per_call = 9.0 * cols;
    r.dispatch_s = TimePerCall([&] {
      ops::LayerNorm(x.data(), gain.data(), bias.data(), y.data(), cols);
    });
    r.scalar_s = TimePerCall([&] {
      ops::scalar::LayerNorm(x.data(), gain.data(), bias.data(), y.data(),
                             cols);
    });
    results.push_back(r);
  }
  {
    KernelResult r;
    r.kernel = "LayerNormBatch";
    r.flops_per_call = 9.0 * batch * cols;
    r.dispatch_s = TimePerCall([&] {
      ops::LayerNormBatch(x.data(), gain.data(), bias.data(), y.data(), batch,
                          cols);
    });
    r.scalar_s = TimePerCall([&] {
      for (int32_t b = 0; b < batch; ++b) {
        ops::scalar::LayerNorm(x.data() + b * cols, gain.data(), bias.data(),
                               y.data() + b * cols, cols);
      }
    });
    results.push_back(r);
  }
  {
    KernelResult r;
    r.kernel = "FusedMatMatAct";
    r.flops_per_call = (2.0 * cols + 1.0) * batch * rows;
    r.dispatch_s = TimePerCall([&] {
      ops::FusedMatMatAct(w.data(), x.data(), y.data(), batch, rows, cols,
                          /*use_relu=*/true);
    });
    r.scalar_s = TimePerCall([&] {
      for (int32_t b = 0; b < batch; ++b) {
        ops::scalar::MatVec(w.data(), x.data() + b * cols, y.data() + b * rows,
                            rows, cols);
        ops::scalar::Relu(y.data() + b * rows, rows);
      }
    });
    results.push_back(r);
  }

  for (const KernelResult& r : results) Record(r);
  if (!vector_active) {
    std::printf("  (scalar dispatch: speedups are honesty-stamped ~1x)\n");
  }
  return 0;
}
