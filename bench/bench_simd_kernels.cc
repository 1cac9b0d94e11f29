// Micro-bench of the SIMD kernel dispatch (engine/ops.h): GFLOP/s of each
// dispatched kernel against the pinned scalar reference (ops::scalar) at
// transformer-shaped sizes. The "isa" field stamps which vector backend the
// build resolved (ops::ActiveIsa()); when it is "scalar" — forced via
// -DAPT_FORCE_SCALAR=ON or an unsupported host — the snapshot says so
// honestly (vector_active=false, speedups ~1x) instead of pretending a
// vector win. It also times model set-up: Rng::FillNormal against a
// per-call std::normal_distribution loop, and ModelWeights::Random at the
// default and Small configs.
//
// Every arm is timed in kRepeats repeats, the arms of a row alternating
// repeat by repeat so host drift hits them alike; a row records each arm's
// median and interquartile range, and the config stamps the host (hardware
// threads, ISA, compiler).
//
// Results land in BENCH_bench_simd_kernels.json (committed copy under
// bench/results/ tracks the perf trajectory across PRs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "engine/model_weights.h"
#include "engine/ops.h"

using namespace aptserve;

namespace {

constexpr int kRepeats = 7;

#ifdef __clang__
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "GCC " __VERSION__;
#endif

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Defeats dead-code elimination of the benched kernels.
volatile float g_sink = 0.0f;

/// Runs `fn` repeatedly until ~`min_seconds` of wall clock accumulates and
/// returns seconds per call.
double TimePerCall(const std::function<void()>& fn, double min_seconds) {
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

/// One timed variant of a row.
struct Arm {
  std::string label;
  std::function<void()> fn;
  SampleSet seconds;  ///< Seconds per call, one sample per repeat.
};

/// Times every arm kRepeats times, alternating arms within each repeat.
void TimeArms(std::vector<Arm>* arms, double min_seconds = 0.03) {
  for (Arm& a : *arms) a.fn();  // warm-up (page in buffers, settle dispatch)
  for (int r = 0; r < kRepeats; ++r) {
    for (Arm& a : *arms) a.seconds.Add(TimePerCall(a.fn, min_seconds));
  }
}

/// Records a row. `convert` maps seconds per call into the row's unit
/// (e.g. GFLOP/s); quartiles are taken after the conversion.
void Record(const std::string& name, const std::string& unit,
            const std::vector<Arm>& arms,
            const std::function<double(double)>& convert) {
  bench::JsonObject e;
  e.Str("kernel", name).Str("isa", ops::ActiveIsa()).Str("unit", unit)
      .Int("repeats", kRepeats);
  std::printf("  %-24s", name.c_str());
  std::vector<double> medians;
  for (const Arm& a : arms) {
    SampleSet v;
    for (double s : a.seconds.samples()) v.Add(convert(s));
    medians.push_back(v.Median());
    e.Num(a.label, v.Median())
        .Num(a.label + "_q1", v.Quantile(0.25))
        .Num(a.label + "_q3", v.Quantile(0.75));
    std::printf("  %s %10.4g %s [%.4g, %.4g]", a.label.c_str(), v.Median(),
                unit.c_str(), v.Quantile(0.25), v.Quantile(0.75));
  }
  if (medians.size() == 2) {
    // The first arm's speedup over the second: a ratio of rates for GF/s,
    // of times for every other unit.
    const bool higher_is_better = unit == "GF/s";
    const double ratio = higher_is_better ? medians[0] / medians[1]
                                          : medians[1] / medians[0];
    e.Num("speedup", ratio);
    std::printf("  %5.2fx", ratio);
  }
  std::printf("\n");
  bench::BenchJson::Instance().AddEntry(std::move(e));
}

/// A kernel row: dispatched kernel against the scalar reference, GF/s.
void KernelRow(const std::string& name, double flops_per_call,
               std::function<void()> dispatch, std::function<void()> scalar) {
  std::vector<Arm> arms = {{"dispatch_gflops", std::move(dispatch), {}},
                           {"scalar_gflops", std::move(scalar), {}}};
  TimeArms(&arms);
  Record(name, "GF/s", arms,
         [&](double s) { return s > 0 ? flops_per_call / s / 1e9 : 0.0; });
}

}  // namespace

int main() {
  const std::string isa = ops::ActiveIsa();
  const bool vector_active = isa != "scalar";
  std::printf("bench_simd_kernels: isa=%s width=%d floats, %d repeats "
              "(median [q1, q3])\n",
              isa.c_str(), ops::VectorWidthFloats(), kRepeats);
  bench::BenchJson::Instance().config()
      .Str("isa", isa)
      .Int("vector_width_floats", ops::VectorWidthFloats())
      .Bool("vector_active", vector_active)
      .Str("compiler", kCompiler)
      .Int("repeats", kRepeats);

  // Transformer-shaped operands: d_model-by-d_ff projections over a
  // prefill-sized batch (the MatMat path every forward pass funnels into).
  const int32_t batch = 32, rows = 512, cols = 512;
  Rng rng(123);
  auto rand_vec = [&](int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    rng.FillNormal(v.data(), n, 1.0f);
    return v;
  };
  const std::vector<float> w = rand_vec(static_cast<int64_t>(rows) * cols);
  const std::vector<float> x = rand_vec(static_cast<int64_t>(batch) * cols);
  const std::vector<float> gain = rand_vec(cols);
  const std::vector<float> bias = rand_vec(cols);
  std::vector<float> y(static_cast<size_t>(batch) *
                       std::max(rows, cols));

  KernelRow(
      "Dot", 2.0 * cols,
      [&] { g_sink = ops::Dot(w.data(), x.data(), cols); },
      [&] { g_sink = ops::scalar::Dot(w.data(), x.data(), cols); });
  KernelRow(
      "MatVec", 2.0 * rows * cols,
      [&] { ops::MatVec(w.data(), x.data(), y.data(), rows, cols); },
      [&] { ops::scalar::MatVec(w.data(), x.data(), y.data(), rows, cols); });
  // Scalar reference for the blocked kernel: the per-row loop it is
  // contractually bit-identical to, on the reference tier.
  KernelRow(
      "MatMat", 2.0 * batch * rows * cols,
      [&] { ops::MatMat(w.data(), x.data(), y.data(), batch, rows, cols); },
      [&] {
        for (int32_t b = 0; b < batch; ++b) {
          ops::scalar::MatVec(w.data(), x.data() + b * cols,
                              y.data() + b * rows, rows, cols);
        }
      });
  // ~9 flops/element: two reduction passes plus normalize.
  KernelRow(
      "LayerNorm", 9.0 * cols,
      [&] {
        ops::LayerNorm(x.data(), gain.data(), bias.data(), y.data(), cols);
      },
      [&] {
        ops::scalar::LayerNorm(x.data(), gain.data(), bias.data(), y.data(),
                               cols);
      });
  KernelRow(
      "LayerNormBatch", 9.0 * batch * cols,
      [&] {
        ops::LayerNormBatch(x.data(), gain.data(), bias.data(), y.data(),
                            batch, cols);
      },
      [&] {
        for (int32_t b = 0; b < batch; ++b) {
          ops::scalar::LayerNorm(x.data() + b * cols, gain.data(),
                                 bias.data(), y.data() + b * cols, cols);
        }
      });
  KernelRow(
      "FusedMatMatAct", (2.0 * cols + 1.0) * batch * rows,
      [&] {
        ops::FusedMatMatAct(w.data(), x.data(), y.data(), batch, rows, cols,
                            /*use_relu=*/true);
      },
      [&] {
        for (int32_t b = 0; b < batch; ++b) {
          ops::scalar::MatVec(w.data(), x.data() + b * cols,
                              y.data() + b * rows, rows, cols);
          ops::scalar::Relu(y.data() + b * rows, rows);
        }
      });

  // Model set-up. FillNormal writes the same floats as the per-call loop
  // (rng_test pins that); here only the time differs.
  {
    const int64_t n = static_cast<int64_t>(rows) * cols;
    std::vector<float> out(static_cast<size_t>(n));
    Rng fill_rng(7);
    std::mt19937_64 std_gen(7);
    std::normal_distribution<double> std_normal(0.0, 1.0);
    std::vector<Arm> arms = {
        {"fill_normal_ns",
         [&] {
           fill_rng.FillNormal(out.data(), n, 0.05f);
           g_sink = out[0];
         },
         {}},
        {"std_per_call_ns",
         [&] {
           for (float& v : out) {
             v = static_cast<float>(std_normal(std_gen)) * 0.05f;
           }
           g_sink = out[0];
         },
         {}}};
    TimeArms(&arms);
    Record("Rng::FillNormal", "ns/value", arms,
           [&](double s) { return s / static_cast<double>(n) * 1e9; });
  }
  const std::pair<const char*, ModelConfig> models[] = {
      {"ModelWeights::Random default", ModelConfig{}},
      {"ModelWeights::Random Small", ModelConfig::Small()}};
  for (const auto& [name, config] : models) {
    std::vector<Arm> arms = {
        {"build_ms",
         [&config = config] {
           g_sink = ModelWeights::Random(config, 42).token_embedding.data()[0];
         },
         {}}};
    TimeArms(&arms, /*min_seconds=*/0.0);
    Record(name, "ms", arms, [](double s) { return s * 1e3; });
  }

  if (!vector_active) {
    std::printf("  (scalar dispatch: speedups are honesty-stamped ~1x)\n");
  }
  return 0;
}
