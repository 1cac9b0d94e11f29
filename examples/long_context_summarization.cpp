// Summarization scenario (the paper's LongBench workload): long prompts
// under bursty traffic. Demonstrates how the hybrid cache absorbs bursts
// that overflow a KV-only pool: we sweep burstiness (Gamma CV) at a fixed
// mean rate and compare Apt-Serve with and without the hidden cache,
// plus vLLM — the Table 4 / Figure 9 story as a runnable scenario.
//
// Build & run:  ./build/examples/long_context_summarization
#include <cstdio>

#include "baselines/fcfs_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

using namespace aptserve;

namespace {

SloReport Serve(double cv, Scheduler* sched, const SloSpec& slo) {
  TraceConfig tc;
  tc.profile = DatasetProfile::LongBench();
  tc.num_requests = 300;
  tc.rate_per_sec = 1.5;
  tc.cv = cv;
  tc.seed = 5;
  auto trace = BuildTrace(tc);
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cost(model, ClusterSpec::ForModel(model));
  auto result = [&]() -> StatusOr<ServingLoopResult> {
    APT_ASSIGN_OR_RETURN(auto backend, CostModelBackend::Create(cost, {}));
    return ServingLoop(backend.get(), ServingLoopConfig{})
        .Run(*trace, sched, slo);
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return result->report;
}

}  // namespace

int main() {
  const SloSpec slo{4.0, 1.0};  // long prompts get a relaxed TTFT SLO
  std::printf("Long-context summarization (LongBench, OPT-13B, 1.5 req/s)\n");
  std::printf("%6s %14s %16s %12s\n", "CV", "vLLM SLO(%)",
              "Apt KV-only(%)", "Apt hybrid(%)");
  for (double cv : {1.0, 3.0, 5.0, 10.0}) {
    FcfsScheduler vllm;
    AptConfig kv_cfg;
    kv_cfg.slo = slo;
    kv_cfg.enable_hidden = false;
    AptScheduler kv_only(kv_cfg);
    AptConfig hy_cfg;
    hy_cfg.slo = slo;
    AptScheduler hybrid(hy_cfg);
    const double v = 100 * Serve(cv, &vllm, slo).slo_attainment;
    const double k = 100 * Serve(cv, &kv_only, slo).slo_attainment;
    const double h = 100 * Serve(cv, &hybrid, slo).slo_attainment;
    std::printf("%6.0f %14.1f %16.1f %12.1f\n", cv, v, k, h);
  }
  std::printf("\nBurstier arrivals (higher CV) hit the memory wall harder; "
              "the hidden cache's 2x\nadmission capacity absorbs the bursts "
              "that collapse KV-only serving.\n");
  return 0;
}
