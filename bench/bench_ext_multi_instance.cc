// Extension bench (paper §8 future work): multi-instance serving. Sweeps
// fleet sizes and dispatch policies with vLLM-style FCFS vs Apt-Serve per
// instance, reporting fleet-level SLO attainment.
#include "bench/bench_util.h"
#include "serve/multi_instance.h"

using namespace aptserve;
using namespace aptserve::bench;

int main() {
  const SloSpec slo{1.0, 1.0};
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cm(model, ClusterSpec::ForModel(model));
  const BackendFactory backend =
      [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    APT_ASSIGN_OR_RETURN(auto b, CostModelBackend::Create(cm, {}));
    return std::unique_ptr<ExecutionBackend>(std::move(b));
  };

  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 600;
  tc.seed = 55;

  std::printf("=== Extension: multi-instance serving (ShareGPT, OPT-13B "
              "per instance) ===\n");
  std::printf("%10s %6s %14s %12s %12s\n", "rate(r/s)", "N", "dispatch",
              "vLLM(%)", "Apt(%)");
  for (double rate : {6.0, 12.0}) {
    tc.rate_per_sec = rate;
    auto trace = BuildTrace(tc);
    if (!trace.ok()) return 1;
    for (int32_t n : {1, 2, 4}) {
      for (RoutePolicy policy :
           {RoutePolicy::kRoundRobin, RoutePolicy::kLeastLoaded,
            RoutePolicy::kPowerOfTwo}) {
        if (n == 1 && policy != RoutePolicy::kRoundRobin) continue;
        RouterConfig rc;
        rc.n_instances = n;
        rc.policy = policy;
        MultiInstanceRunner mi(Router(rc, &cm), ServingLoopConfig{});
        auto rf = mi.Run(*trace,
                         [] { return std::make_unique<FcfsScheduler>(); },
                         backend, slo);
        auto ra = mi.Run(*trace,
                         [&] {
                           AptConfig c;
                           c.slo = slo;
                           return std::make_unique<AptScheduler>(c);
                         },
                         backend, slo);
        if (!rf.ok() || !ra.ok()) return 1;
        std::printf("%10.1f %6d %14s %12.1f %12.1f\n", rate, n,
                    RoutePolicyName(policy),
                    100 * rf->combined.slo_attainment,
                    100 * ra->combined.slo_attainment);
        std::fflush(stdout);
      }
    }
  }
  std::printf("\nExpected shape: attainment scales with fleet size; "
              "least-loaded/power-of-two beat\nround-robin under skewed "
              "prompt lengths; Apt per instance dominates FCFS per "
              "instance at\nevery fleet size.\n");
  return 0;
}
