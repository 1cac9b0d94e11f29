// Determinism of the InferenceBackend serving path: with virtual timing
// (fixed per-item latency instead of measured wall time) the whole run is a
// pure function of the seeds — same trace, same scheduler, same seeds must
// give identical tokens, TTFT/TBT samples, and report.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_scheduler.h"
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

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

const SloSpec kSlo{5.0, 5.0};

/// Serves `trace` on a fresh Tiny engine (weight seed 42, `num_blocks`
/// blocks of 8) with virtual timing and rho = 0 (a measured rho would be
/// timing-dependent). Finished token streams land in `tokens`.
StatusOr<ServingLoopResult> Serve(const std::vector<Request>& trace,
                                  Scheduler* sched, TokenMap* tokens,
                                  int32_t num_blocks = 96,
                                  uint64_t prompt_seed = 7) {
  InferenceBackendOptions opts;
  opts.prompt_seed = prompt_seed;
  opts.virtual_timing = true;
  InferenceBackend backend(ModelConfig::Tiny(), /*weight_seed=*/42,
                           num_blocks, /*block_size=*/8, SamplingParams{},
                           opts);
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  loop.max_iterations = 2'000'000;
  auto result = ServingLoop(&backend, loop).Run(trace, sched, kSlo);
  *tokens = backend.TakeFinishedTokens();
  return result;
}

std::unique_ptr<Scheduler> Make(const std::string& kind, const SloSpec& slo) {
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

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, SameSeedsSameTokensAndLatencies) {
  const auto trace = TinyTrace(20, 50.0);

  StatusOr<ServingLoopResult> runs[2] = {Status::Internal("unset"),
                                         Status::Internal("unset")};
  TokenMap tokens[2];
  for (int i = 0; i < 2; ++i) {
    // Fresh engine, same weight/prompt seeds.
    auto sched = Make(GetParam(), kSlo);
    runs[i] = Serve(trace, sched.get(), &tokens[i]);
    ASSERT_TRUE(runs[i].ok()) << runs[i].status().ToString();
  }
  const ServingLoopResult& a = *runs[0];
  const ServingLoopResult& b = *runs[1];

  // Same tokens, request by request.
  ASSERT_EQ(tokens[0].size(), tokens[1].size());
  ASSERT_EQ(tokens[0].size(), trace.size());
  for (const auto& [id, toks] : tokens[0]) {
    auto it = tokens[1].find(id);
    ASSERT_NE(it, tokens[1].end());
    EXPECT_EQ(toks, it->second) << "tokens diverged for request " << id;
  }

  // Same virtual timeline: identical TTFT/TBT samples and aggregates.
  EXPECT_EQ(a.tokens_generated, b.tokens_generated);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.report.preemptions, b.report.preemptions);
  EXPECT_EQ(a.report.iterations, b.report.iterations);
  EXPECT_EQ(a.report.total_serving_time, b.report.total_serving_time);
  EXPECT_EQ(a.report.slo_attainment, b.report.slo_attainment);
  EXPECT_EQ(a.report.mean_ttft, b.report.mean_ttft);
  EXPECT_EQ(a.report.ttfts.samples(), b.report.ttfts.samples());
  EXPECT_EQ(a.report.p99_tbts.samples(), b.report.p99_tbts.samples());
}

TEST_P(DeterminismTest, DifferentPromptSeedChangesTokens) {
  const auto trace = TinyTrace(8, 1000.0, 6);
  auto sa = Make(GetParam(), kSlo);
  auto sb = Make(GetParam(), kSlo);
  TokenMap ta, tb;
  auto ra = Serve(trace, sa.get(), &ta);
  auto rb = Serve(trace, sb.get(), &tb, 96, /*prompt_seed=*/1234);
  ASSERT_TRUE(ra.ok() && rb.ok());
  bool any_diff = false;
  for (const auto& [id, toks] : ta) {
    auto it = tb.find(id);
    ASSERT_NE(it, tb.end());
    if (toks != it->second) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "prompt seed had no effect on any sequence";
}

INSTANTIATE_TEST_SUITE_P(Schedulers, DeterminismTest,
                         ::testing::Values("fcfs", "sarathi", "apt"),
                         [](const auto& info) { return info.param; });

TEST(VirtualTimingTest, MemoryPressureRunStaysDeterministic) {
  const auto trace = TinyTrace(16, 1000.0, 9);
  StatusOr<ServingLoopResult> runs[2] = {Status::Internal("unset"),
                                         Status::Internal("unset")};
  for (int i = 0; i < 2; ++i) {
    FcfsScheduler sched;
    TokenMap tokens;
    // 24 blocks: tight, forces preemption under load.
    runs[i] = Serve(trace, &sched, &tokens, /*num_blocks=*/24);
    ASSERT_TRUE(runs[i].ok()) << runs[i].status().ToString();
  }
  EXPECT_GT(runs[0]->report.preemptions + runs[0]->report.conversions, 0);
  EXPECT_EQ(runs[0]->report.total_serving_time,
            runs[1]->report.total_serving_time);
  EXPECT_EQ(runs[0]->report.ttfts.samples(),
            runs[1]->report.ttfts.samples());
}

}  // namespace
}  // namespace aptserve
