// End-to-end serving on the real engine (the shared ServingLoop over an
// owning InferenceBackend): real transformer compute driven by each
// scheduler, with real hybrid-cache memory management.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "engine/rho_calibrator.h"
#include "serve/inference_backend.h"
#include "serve/serving_loop.h"
#include "workload/arrival.h"

namespace aptserve {
namespace {

std::vector<Request> TinyTrace(int32_t n, double rate, uint64_t seed = 4) {
  Rng rng(seed);
  auto arrivals = PoissonArrivals(rate, n, &rng);
  EXPECT_TRUE(arrivals.ok());
  std::vector<Request> trace;
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 24));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 12));
    r.arrival = (*arrivals)[i];
    trace.push_back(r);
  }
  return trace;
}

const SloSpec kSlo{5.0, 5.0};

/// Tiny model, weight seed 42, `num_blocks` blocks of 8 tokens. `rho` = 0
/// (no calibration pass) keeps unit tests fast.
std::unique_ptr<InferenceBackend> MakeBackend(int32_t num_blocks = 96,
                                              double rho = 0.0) {
  InferenceBackendOptions opts;
  opts.rho_seconds_per_token = rho;
  return std::make_unique<InferenceBackend>(ModelConfig::Tiny(),
                                            /*weight_seed=*/42, num_blocks,
                                            /*block_size=*/8, SamplingParams{},
                                            opts);
}

StatusOr<ServingLoopResult> Serve(InferenceBackend* backend,
                                  const std::vector<Request>& trace,
                                  Scheduler* sched) {
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;  // a serial CPU backend gains nothing
  loop.max_iterations = 2'000'000;
  return ServingLoop(backend, loop).Run(trace, sched, kSlo);
}

class InferenceServingSchedulerTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Scheduler> Make(const SloSpec& slo) {
    const std::string& kind = GetParam();
    if (kind == "fcfs") return std::make_unique<FcfsScheduler>();
    if (kind == "sarathi") {
      SarathiConfig c;
      c.token_budget = 64;
      c.chunk_size = 16;
      return std::make_unique<SarathiScheduler>(c);
    }
    AptConfig c;
    c.slo = slo;
    c.max_prefill_tokens = 128;
    return std::make_unique<AptScheduler>(c);
  }
};

TEST_P(InferenceServingSchedulerTest, ServesTraceToCompletion) {
  auto backend = MakeBackend();
  auto sched = Make(kSlo);
  auto trace = TinyTrace(24, 1000.0);  // effectively all-at-once
  auto result = Serve(backend.get(), trace, sched.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.ttfts.count(), 24u);
  EXPECT_GT(result->tokens_generated, 0);
  EXPECT_GT(result->compute_seconds, 0.0);
  // Pool fully drained at the end.
  EXPECT_EQ(backend->engine().pool().num_allocated(), 0);
}

TEST_P(InferenceServingSchedulerTest, MemoryPressureStillCompletes) {
  auto backend = MakeBackend(24);  // tight: forces preemption / hidden usage
  auto sched = Make(kSlo);
  auto trace = TinyTrace(16, 1000.0, 9);
  auto result = Serve(backend.get(), trace, sched.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.ttfts.count(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, InferenceServingSchedulerTest,
                         ::testing::Values("fcfs", "sarathi", "apt"),
                         [](const auto& info) { return info.param; });

TEST(InferenceServingTest, GeneratedTokenCountsMatchTrace) {
  auto backend = MakeBackend();
  FcfsScheduler sched;
  auto trace = TinyTrace(10, 1000.0, 2);
  int64_t expected_tokens = 0;
  for (const auto& r : trace) expected_tokens += r.output_len;
  auto result = Serve(backend.get(), trace, &sched);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tokens_generated, expected_tokens);
}

TEST(InferenceServingTest, RejectsOversizedRequest) {
  auto backend = MakeBackend();
  FcfsScheduler sched;
  Request r;
  r.id = 0;
  r.prompt_len = ModelConfig::Tiny().max_seq_len;
  r.output_len = 8;
  auto result = Serve(backend.get(), {r}, &sched);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(InferenceServingTest, CalibratedRhoIsPositive) {
  // The paper's offline profiling pass (Eq. 6) on the serving model, its
  // rho carried to the scheduler through the backend's cost model.
  const ModelConfig model = ModelConfig::Tiny();
  auto calib = CalibrateRho(model, /*seed=*/42,
                            {std::min(16, model.max_seq_len / 4),
                             std::min(48, model.max_seq_len / 2)},
                            2);
  ASSERT_TRUE(calib.ok()) << calib.status().ToString();
  EXPECT_GT(calib->rho_seconds_per_token, 0.0);
  auto backend = MakeBackend(96, calib->rho_seconds_per_token);
  AptConfig ac;
  ac.slo = kSlo;
  AptScheduler sched(ac);
  auto result = Serve(backend.get(), TinyTrace(6, 1000.0, 5), &sched);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace aptserve
