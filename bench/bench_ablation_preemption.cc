// Ablation (DESIGN.md): preemption mode — vLLM's recompute (used by the
// paper's experiments) vs swap to host memory over PCIe. Recompute burns
// GPU FLOPs proportional to context length; swap burns PCIe bandwidth
// proportional to cache bytes. The crossover depends on context length and
// preemption frequency.
#include "bench/bench_util.h"

using namespace aptserve;
using namespace aptserve::bench;

namespace {

struct Row {
  SloReport rep;
  int64_t swaps = 0;
  int64_t prefills = 0;
};

Row RunMode(const DatasetProfile& profile, double rate, const SloSpec& slo,
            PreemptionMode mode) {
  TraceConfig tc;
  tc.profile = profile;
  tc.num_requests = 500;
  tc.rate_per_sec = rate;
  tc.cv = 5.0;  // bursty: preemption actually happens
  tc.seed = 71;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) std::abort();
  AptConfig ac;
  ac.slo = slo;
  AptScheduler sched(ac);
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cm(model, ClusterSpec::ForModel(model));
  auto backend = CostModelBackend::Create(cm, {});
  if (!backend.ok()) std::abort();
  ServingLoopConfig loop;
  loop.preemption_mode = mode;
  auto result = ServingLoop(backend->get(), loop).Run(*trace, &sched, slo);
  if (!result.ok()) std::abort();
  return Row{result->report, result->swap_ins, result->prefill_iterations};
}

}  // namespace

int main() {
  std::printf("=== Ablation: preemption mode, recompute vs swap "
              "(Apt-Serve, OPT-13B, CV=5) ===\n");
  std::printf("%-10s %6s | %12s %12s | %12s %12s %8s\n", "dataset", "rate",
              "recomp SLO%", "swap SLO%", "recomp pref", "swap pref",
              "swaps");
  struct Case {
    DatasetProfile profile;
    double rate;
    SloSpec slo;
  };
  for (const Case& c :
       {Case{DatasetProfile::ShareGpt(), 4.0, SloSpec{1.0, 1.0}},
        Case{DatasetProfile::ShareGpt(), 8.0, SloSpec{1.0, 1.0}},
        Case{DatasetProfile::LongBench(), 1.5, SloSpec{4.0, 1.0}},
        Case{DatasetProfile::LongBench(), 3.0, SloSpec{4.0, 1.0}}}) {
    const Row rec =
        RunMode(c.profile, c.rate, c.slo, PreemptionMode::kRecompute);
    const Row swp = RunMode(c.profile, c.rate, c.slo, PreemptionMode::kSwap);
    std::printf("%-10s %6.1f | %12.1f %12.1f | %12ld %12ld %8ld\n",
                c.profile.name.c_str(), c.rate, 100 * rec.rep.slo_attainment,
                100 * swp.rep.slo_attainment, rec.prefills, swp.prefills,
                swp.swaps);
    std::fflush(stdout);
  }
  std::printf("\nMeasured finding (see EXPERIMENTS.md): although swap "
              "eliminates most recompute\nprefills, it *hurts* Apt-Serve's "
              "attainment — the recompute path is exactly where\nthe "
              "scheduler converts evicted requests to hidden cache for "
              "free (half-memory\nresume), while a swap-in demands the full "
              "original footprint back. Recompute\npreemption composes "
              "better with the hybrid cache, supporting the paper's choice."
              "\n");
  return 0;
}
