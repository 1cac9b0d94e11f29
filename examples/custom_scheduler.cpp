// Extending the library: writing your own scheduler.
//
// The Scheduler interface is the seam the whole system is built around —
// this example implements SJF (shortest-prompt-first) admission with
// KV-only caching in ~40 lines, plugs it into the serving loop over the
// analytic cost-model backend, and races it against FCFS and Apt-Serve.
// Use this as the template for experimenting with new policies on the
// same substrate the paper's evaluation uses.
//
// Build & run:  ./build/examples/custom_scheduler
#include <algorithm>
#include <cstdio>

#include "baselines/fcfs_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

using namespace aptserve;

namespace {

/// Shortest-Job-First admission: prefer the waiting requests with the
/// smallest prompts (cheap prefills, small caches). Decodes run for all.
class SjfScheduler : public Scheduler {
 public:
  BatchPlan PlanIteration(const SchedulerInput& input) override {
    BatchPlan plan;
    std::vector<const SimRequest*> waiting(input.waiting);
    std::sort(waiting.begin(), waiting.end(),
              [](const SimRequest* a, const SimRequest* b) {
                return a->PrefillTarget() < b->PrefillTarget();
              });
    int32_t free_blocks = input.pool->num_free();
    int64_t tokens = 0;
    for (const SimRequest* w : waiting) {
      const int32_t target = w->PrefillTarget();
      if (tokens + target > 2048 && !plan.items.empty()) break;
      const int32_t need =
          input.assigner->BlocksNeeded(CacheType::kKV, target);
      if (need > free_blocks) continue;
      plan.items.push_back({w->spec.id, CacheType::kKV, target});
      free_blocks -= need;
      tokens += target;
    }
    if (!plan.items.empty()) return plan;
    for (const SimRequest* r : input.running) {
      plan.items.push_back({r->spec.id, r->cache_type, 0});
    }
    return plan;
  }
  std::string name() const override { return "SJF"; }
};

}  // namespace

int main() {
  const SloSpec slo{1.0, 1.0};
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cost(model, ClusterSpec::ForModel(model));

  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 400;
  tc.rate_per_sec = 4.0;
  tc.seed = 8;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) return 1;

  FcfsScheduler fcfs;
  SjfScheduler sjf;
  AptConfig ac;
  ac.slo = slo;
  AptScheduler apt(ac);

  std::printf("Custom scheduler demo (ShareGPT @ 4 req/s, OPT-13B)\n");
  for (Scheduler* sched :
       {static_cast<Scheduler*>(&fcfs), static_cast<Scheduler*>(&sjf),
        static_cast<Scheduler*>(&apt)}) {
    // Each run gets a fresh backend: the pool starts empty every time.
    auto backend = CostModelBackend::Create(cost, CostModelBackend::Options{});
    if (!backend.ok()) return 1;
    auto result = ServingLoop(backend->get(), ServingLoopConfig{})
                      .Run(*trace, sched, slo);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", sched->name().c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("[%-10s] SLO=%5.1f%% TTFT=%5.1f%% TBT=%5.1f%%\n",
                sched->name().c_str(),
                100 * result->report.slo_attainment,
                100 * result->report.ttft_attainment,
                100 * result->report.tbt_attainment);
  }
  std::printf("\nSJF beats FCFS (smaller head-of-line cost) but lacks the "
              "hybrid cache and the\npending-time value model; Apt-Serve "
              "wins on both axes.\n");
  return 0;
}
