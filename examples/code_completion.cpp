// Code-completion scenario (the paper's HumanEval workload): short prompts,
// short completions, tight SLOs (TTFT 0.5s, P99 TBT 0.5s). This regime
// favors chunked-prefill coalescing (Sarathi/FastGen); the example shows
// Apt-Serve-S — Apt's hybrid cache and value-based composition layered on
// Sarathi's coalesced batching (§6.7) — taking the best of both.
//
// Build & run:  ./build/examples/code_completion
#include <cstdio>
#include <memory>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

using namespace aptserve;

int main() {
  const SloSpec slo{0.5, 0.5};
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cost(model, ClusterSpec::ForModel(model));

  std::printf("Code completion serving (HumanEval, OPT-13B)\n");
  std::printf("%10s %10s %12s %10s %10s\n", "rate(r/s)", "vLLM", "Sarathi",
              "Apt", "Apt-S");
  for (double rate : {4.0, 6.0, 8.0, 10.0, 14.0}) {
    TraceConfig tc;
    tc.profile = DatasetProfile::HumanEval();
    tc.num_requests = 400;
    tc.rate_per_sec = rate;
    tc.seed = 3;
    auto trace = BuildTrace(tc);
    if (!trace.ok()) return 1;

    std::printf("%10.1f", rate);
    for (int k = 0; k < 4; ++k) {
      std::unique_ptr<Scheduler> sched;
      switch (k) {
        case 0:
          sched = std::make_unique<FcfsScheduler>();
          break;
        case 1:
          sched = std::make_unique<SarathiScheduler>();
          break;
        case 2: {
          AptConfig c;
          c.slo = slo;
          sched = std::make_unique<AptScheduler>(c);
          break;
        }
        default: {
          AptSarathiConfig c;
          c.slo = slo;
          sched = std::make_unique<AptSarathiScheduler>(c);
        }
      }
      auto backend = CostModelBackend::Create(cost, {});
      if (!backend.ok()) return 1;
      auto result = ServingLoop(backend->get(), ServingLoopConfig{})
                        .Run(*trace, sched.get(), slo);
      if (!result.ok()) return 1;
      std::printf(" %10.1f", 100 * result->report.slo_attainment);
    }
    std::printf("\n");
  }
  std::printf("\nShort outputs mean short cache lifetimes, so coalesced "
              "batching already helps;\nApt-Serve-S adds hybrid-cache "
              "admission and value-based composition on top.\n");
  return 0;
}
