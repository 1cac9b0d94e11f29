// Table 6 reproduction: wall-clock execution time of Apt-Serve's greedy
// scheduling algorithm against the number of candidate requests (50 to
// 1600). Unlike the simulation benches this measures the real algorithm
// implementation with google-benchmark. BM_GreedyVsExactValue adds the
// solver-quality ablation: greedy vs exact-DP solution value on
// serving-scale instances, the empirical gap behind the factor-2 bound.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/greedy_solver.h"

namespace aptserve {
namespace {

std::vector<CandidateInfo> MakeCandidates(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CandidateInfo> cands;
  cands.reserve(n);
  for (int i = 0; i < n; ++i) {
    CandidateInfo c;
    c.id = i;
    c.pending_s = rng.Uniform(0.001, 10.0);
    c.m_tokens = static_cast<int32_t>(rng.UniformInt(16, 2048));
    c.m_blocks = 2 * ((c.m_tokens + 15) / 16);
    c.slo_violated = rng.Uniform() < 0.1;
    cands.push_back(c);
  }
  return cands;
}

void BM_GreedyScheduling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  QuantificationConfig qc;
  qc.rho_seconds_per_token = 2.4e-5;  // OPT-13B analytic rho
  qc.num_requests_in_system = n;
  QuantificationModel model(qc);
  GreedySolver solver(&model);
  const auto cands = MakeCandidates(n, 42);
  // Capacity comparable to an A100-40G pool (~1500 blocks).
  const int32_t capacity = 1526;
  for (auto _ : state) {
    auto sol = solver.Solve(cands, capacity);
    benchmark::DoNotOptimize(sol.total_value);
  }
  state.SetLabel("Table 6 row: " + std::to_string(n) + " candidates");
}

BENCHMARK(BM_GreedyScheduling)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

// The exact DP oracle, for contrast (exponentially heavier in capacity).
void BM_ExactScheduling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  QuantificationConfig qc;
  qc.rho_seconds_per_token = 2.4e-5;
  qc.num_requests_in_system = n;
  QuantificationModel model(qc);
  const auto cands = MakeCandidates(n, 42);
  for (auto _ : state) {
    auto sol = SolveExact(model, cands, 1526);
    benchmark::DoNotOptimize(sol.total_value);
  }
}

BENCHMARK(BM_ExactScheduling)->Arg(50)->Arg(100)->Unit(
    benchmark::kMillisecond);

// The solver-quality instances: one Rng(1234) stream draws the n = 10, 50,
// 100, 200 candidate sets in that order, so the set for `n` is the one
// drawn after every smaller size's.
std::vector<CandidateInfo> QualityCandidates(int n) {
  Rng rng(1234);
  std::vector<CandidateInfo> cands;
  for (int size : {10, 50, 100, 200}) {
    cands.clear();
    for (int i = 0; i < size; ++i) {
      CandidateInfo c;
      c.id = i;
      c.pending_s = rng.Uniform(0.01, 8.0);
      c.m_tokens = static_cast<int32_t>(rng.UniformInt(32, 1600));
      c.m_blocks = 2 * ((c.m_tokens + 15) / 16);
      cands.push_back(c);
    }
    if (size == n) break;
  }
  return cands;
}

// Counters greedy_value, exact_value and ratio (greedy / exact; theory
// guarantees >= 0.5) at half an A100-40G pool, which forces contention.
void BM_GreedyVsExactValue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  QuantificationConfig qc;
  qc.rho_seconds_per_token = 2.4e-5;
  qc.num_requests_in_system = n;
  QuantificationModel model(qc);
  GreedySolver solver(&model);
  const auto cands = QualityCandidates(n);
  const int32_t capacity = 1526 / 2;
  double greedy = 0.0, exact = 0.0;
  for (auto _ : state) {
    greedy = solver.Solve(cands, capacity).total_value;
    exact = SolveExact(model, cands, capacity).total_value;
    benchmark::DoNotOptimize(greedy);
    benchmark::DoNotOptimize(exact);
  }
  state.counters["greedy_value"] = greedy;
  state.counters["exact_value"] = exact;
  state.counters["ratio"] = exact > 0 ? greedy / exact : 1.0;
}

BENCHMARK(BM_GreedyVsExactValue)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aptserve

BENCHMARK_MAIN();
