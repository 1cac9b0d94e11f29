// Ablation (DESIGN.md): cache block size. Small blocks reduce internal
// fragmentation (more admissible requests per GB) but increase map
// overhead; large blocks waste the tail of every request's last block —
// the §2.2 tradeoff that motivated block-wise storage in the first place.
#include "bench/bench_util.h"

using namespace aptserve;
using namespace aptserve::bench;

int main() {
  const SloSpec slo{1.0, 1.0};
  std::printf("=== Ablation: block size (ShareGPT @ 5 req/s, OPT-13B, "
              "Apt-Serve) ===\n");
  std::printf("%12s %12s %12s %14s %12s\n", "block_size", "pool_blocks",
              "SLO(%)", "peak_blocks", "util(%)");
  for (int32_t block_size : {4, 8, 16, 32, 64, 128}) {
    TraceConfig tc;
    tc.profile = DatasetProfile::ShareGpt();
    tc.num_requests = 500;
    tc.rate_per_sec = 5.0;
    tc.seed = 77;
    auto trace = BuildTrace(tc);
    if (!trace.ok()) return 1;
    AptConfig ac;
    ac.slo = slo;
    AptScheduler sched(ac);
    const ModelSpec model = ModelSpec::Opt13B();
    CostModel cm(model, ClusterSpec::ForModel(model));
    CostModelBackend::Options opts;
    opts.block_size = block_size;
    auto backend = CostModelBackend::Create(cm, opts);
    if (!backend.ok()) return 1;
    auto result = ServingLoop(backend->get(), ServingLoopConfig{})
                      .Run(*trace, &sched, slo);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const int32_t pool_blocks = (*backend)->pool_blocks();
    std::printf("%12d %12d %12.1f %14d %12.1f\n", block_size, pool_blocks,
                100 * result->report.slo_attainment, result->peak_blocks,
                100.0 * result->peak_blocks / pool_blocks);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: attainment is stable across moderate block "
              "sizes and degrades for\nvery large blocks (fragmentation "
              "shrinks the effective pool).\n");
  return 0;
}
