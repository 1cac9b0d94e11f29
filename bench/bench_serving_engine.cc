// End-to-end on the REAL engine: serve a burst of requests on the mini
// transformer under FCFS vs Apt-Serve with a deliberately small pool, so
// the hybrid cache and value-based scheduling act on real memory and real
// compute (measured rho; virtual timeline = measured compute seconds).
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "baselines/fcfs_scheduler.h"
#include "bench/bench_util.h"
#include "core/apt_scheduler.h"
#include "engine/rho_calibrator.h"
#include "serve/inference_backend.h"
#include "serve/serving_loop.h"
#include "workload/arrival.h"

using namespace aptserve;

namespace {

std::vector<Request> BurstTrace(int32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> trace;
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(24, 96));
    r.output_len = static_cast<int32_t>(rng.UniformInt(8, 48));
    r.arrival = 0.0;  // burst: everyone arrives at once
    trace.push_back(r);
  }
  return trace;
}

}  // namespace

int main() {
  ModelConfig model = ModelConfig::Small();
  model.max_seq_len = 256;
  const uint64_t weight_seed = 42;
  const int32_t num_blocks = 160;  // tight pool: ~10 KV requests of ~64 tokens
  const SloSpec slo{1e9, 1e9};  // timing varies by host; report latencies
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;  // a serial CPU gains nothing from a cap
  loop.max_iterations = 2'000'000;

  auto trace = BurstTrace(24, 17);
  std::printf("=== Real-engine serving: 24-request burst on the mini "
              "transformer (tight pool) ===\n");
  std::printf("%-12s %14s %14s %14s %12s %12s\n", "scheduler",
              "compute(s)", "mean TTFT(s)", "p99 TTFT(s)", "preempts",
              "conversions");
  for (int k = 0; k < 2; ++k) {
    // rho for the scheduler's quantification model, measured on this
    // engine geometry (the paper's offline profiling pass, Eq. 6).
    auto calib = CalibrateRho(model, weight_seed,
                              {std::min(16, model.max_seq_len / 4),
                               std::min(48, model.max_seq_len / 2)},
                              2);
    if (!calib.ok()) {
      std::fprintf(stderr, "calibrate: %s\n",
                   calib.status().ToString().c_str());
      return 1;
    }
    const double rho = calib->rho_seconds_per_token;
    InferenceBackendOptions opts;
    opts.rho_seconds_per_token = rho;
    InferenceBackend backend(model, weight_seed, num_blocks, /*block_size=*/8,
                             SamplingParams{}, opts);
    FcfsScheduler fcfs;
    AptConfig ac;
    ac.slo = SloSpec{2.0, 2.0};  // drives the value model, not the report
    AptScheduler apt(ac);
    Scheduler* sched = k == 0 ? static_cast<Scheduler*>(&fcfs)
                              : static_cast<Scheduler*>(&apt);
    auto result = ServingLoop(&backend, loop).Run(trace, sched, slo);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", sched->name().c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %14.2f %14.2f %14.2f %12ld %12ld\n",
                sched->name().c_str(), result->compute_seconds,
                result->report.mean_ttft, result->report.p99_ttft,
                result->report.preemptions, result->report.conversions);
    bench::JsonObject e;
    e.Str("scheduler", sched->name())
        .Int("num_requests", static_cast<int64_t>(trace.size()))
        .Num("compute_seconds", result->compute_seconds)
        .Num("mean_ttft_s", result->report.mean_ttft)
        .Num("p99_ttft_s", result->report.p99_ttft)
        .Num("tokens_per_sec",
             result->compute_seconds > 0
                 ? result->tokens_generated / result->compute_seconds
                 : 0.0)
        .Int("tokens_generated", result->tokens_generated)
        .Int("preemptions", result->report.preemptions)
        .Int("conversions", result->report.conversions)
        .Num("rho_seconds_per_token", rho);
    bench::BenchJson::Instance().AddEntry(std::move(e));
    if (k == 1) {
      std::printf("measured rho = %.1f us/token (real Eq. 6 calibration "
                  "fed to the scheduler)\n",
                  1e6 * rho);
    }
    std::fflush(stdout);
  }
  std::printf("\nExpected shape: Apt-Serve admits more of the burst "
              "concurrently (hidden cache)\nand orders admissions by value, "
              "cutting mean/tail TTFT on identical hardware.\n");
  return 0;
}
