// Extension bench (paper §7 future work): output-length prediction feeding
// the admission decision. Compares standard Apt-Serve against the
// predictive variant (online learned output lengths; admission accounts
// for predicted final memory) across rates and prediction quantiles.
#include "bench/bench_util.h"

using namespace aptserve;
using namespace aptserve::bench;

namespace {

SloReport RunApt(const RunSpec& spec, bool predict, double quantile) {
  TraceConfig tc;
  tc.profile = spec.profile;
  tc.num_requests = spec.num_requests;
  tc.rate_per_sec = spec.rate;
  tc.seed = spec.seed;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) std::abort();
  AptConfig c;
  c.slo = spec.slo;
  c.enable_prediction = predict;
  c.prediction_quantile = quantile;
  AptScheduler sched(c);
  CostModel cm(spec.model, ClusterSpec::ForModel(spec.model));
  auto backend = CostModelBackend::Create(cm, {});
  if (!backend.ok()) std::abort();
  auto result = ServingLoop(backend->get(), ServingLoopConfig{})
                    .Run(*trace, &sched, spec.slo);
  if (!result.ok()) std::abort();
  return result->report;
}

}  // namespace

int main() {
  std::printf("=== Extension: prediction-based admission (ShareGPT, "
              "OPT-13B) ===\n");
  std::printf("%10s %10s %12s %12s %12s | %14s %14s\n", "rate(r/s)",
              "base(%)", "pred q=0.5", "pred q=0.7", "pred q=0.9",
              "base preempts", "pred preempts");
  for (double rate : {3.0, 5.0, 7.0}) {
    RunSpec spec;
    spec.rate = rate;
    spec.num_requests = 500;
    const SloReport base = RunApt(spec, false, 0.5);
    const SloReport q5 = RunApt(spec, true, 0.5);
    const SloReport q7 = RunApt(spec, true, 0.7);
    const SloReport q9 = RunApt(spec, true, 0.9);
    std::printf("%10.1f %10.1f %12.1f %12.1f %12.1f | %14ld %14ld\n", rate,
                100 * base.slo_attainment, 100 * q5.slo_attainment,
                100 * q7.slo_attainment, 100 * q9.slo_attainment,
                base.preemptions, q5.preemptions);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: predictive admission trims the "
              "admit-then-evict churn (fewer\npreemptions); higher "
              "quantiles are increasingly conservative and eventually "
              "under-admit.\n");
  return 0;
}
