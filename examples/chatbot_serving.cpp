// Chatbot serving scenario (the paper's ShareGPT workload): find each
// system's effective throughput — the highest request rate it sustains at
// 90% SLO attainment — by sweeping rates, then print the winner's margin.
// This is the paper's headline metric (§6.3) on the chatbot workload.
//
// Build & run:  ./build/examples/chatbot_serving
#include <cstdio>
#include <memory>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

using namespace aptserve;

namespace {

double AttainmentAt(double rate, Scheduler* sched, const SloSpec& slo) {
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 400;
  tc.rate_per_sec = rate;
  tc.seed = 99;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) return 0.0;
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cost(model, ClusterSpec::ForModel(model));
  // One serving instance: the shared serving loop over the analytic
  // (roofline cost-model) backend.
  auto backend = CostModelBackend::Create(cost, CostModelBackend::Options{});
  if (!backend.ok()) return 0.0;
  auto result =
      ServingLoop(backend->get(), ServingLoopConfig{}).Run(*trace, sched, slo);
  return result.ok() ? result->report.slo_attainment : 0.0;
}

/// Bisects the 90%-attainment knee between lo and hi req/s.
double FindEffectiveThroughput(const std::string& kind, const SloSpec& slo) {
  double lo = 0.25, hi = 16.0;
  for (int iter = 0; iter < 7; ++iter) {
    const double mid = 0.5 * (lo + hi);
    std::unique_ptr<Scheduler> sched;
    if (kind == "vLLM") {
      sched = std::make_unique<FcfsScheduler>();
    } else if (kind == "Sarathi") {
      sched = std::make_unique<SarathiScheduler>();
    } else {
      AptConfig c;
      c.slo = slo;
      sched = std::make_unique<AptScheduler>(c);
    }
    if (AttainmentAt(mid, sched.get(), slo) >= 0.9) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

int main() {
  const SloSpec slo{1.0, 1.0};
  std::printf("Chatbot serving (ShareGPT, OPT-13B, 1x A100-40G)\n");
  std::printf("Effective throughput = max rate with >= 90%% of requests "
              "meeting TTFT<=1s and P99 TBT<=1s\n\n");
  double vllm = 0;
  for (const char* kind : {"vLLM", "Sarathi", "Apt"}) {
    const double t = FindEffectiveThroughput(kind, slo);
    if (std::string(kind) == "vLLM") vllm = t;
    std::printf("%-8s effective throughput: %5.2f req/s", kind, t);
    if (std::string(kind) != "vLLM" && vllm > 0) {
      std::printf("   (%.1fx vLLM)", t / vllm);
    }
    std::printf("\n");
  }
  return 0;
}
