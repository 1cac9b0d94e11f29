// End-to-end tests of the iteration-level serving simulator (the shared
// ServingLoop over a CostModelBackend): completion, metric sanity,
// memory-pressure behaviour (preemption / batch-limit accounting) and
// determinism, across all scheduler implementations.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/fcfs_scheduler.h"
#include "baselines/random_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

CostModel MakeCostModel() {
  const ModelSpec model = ModelSpec::Opt13B();
  const ClusterSpec cluster = ClusterSpec::ForModel(model);
  return CostModel(model, cluster);
}

/// One serving instance: a fresh analytic backend under the shared loop.
StatusOr<ServingLoopResult> Simulate(const std::vector<Request>& trace,
                                     Scheduler* sched, const SloSpec& slo,
                                     const CostModelBackend::Options& opts = {}) {
  APT_ASSIGN_OR_RETURN(auto backend,
                       CostModelBackend::Create(MakeCostModel(), opts));
  return ServingLoop(backend.get(), ServingLoopConfig{}).Run(trace, sched, slo);
}

std::vector<Request> SmallTrace(double rate, int32_t n = 60,
                                uint64_t seed = 3) {
  TraceConfig cfg;
  cfg.profile = DatasetProfile::ShareGpt();
  cfg.num_requests = n;
  cfg.rate_per_sec = rate;
  cfg.seed = seed;
  auto trace = BuildTrace(cfg);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return *trace;
}

std::unique_ptr<Scheduler> MakeScheduler(const std::string& kind,
                                         const SloSpec& slo) {
  if (kind == "fcfs") return std::make_unique<FcfsScheduler>();
  if (kind == "random") return std::make_unique<RandomScheduler>();
  if (kind == "sarathi") return std::make_unique<SarathiScheduler>();
  if (kind == "fastgen") {
    return std::make_unique<SarathiScheduler>(SarathiConfig::FastGen());
  }
  if (kind == "apt") {
    AptConfig c;
    c.slo = slo;
    return std::make_unique<AptScheduler>(c);
  }
  AptSarathiConfig c;
  c.slo = slo;
  return std::make_unique<AptSarathiScheduler>(c);
}

class AllSchedulersTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllSchedulersTest, CompletesLightLoad) {
  SloSpec slo{1.0, 1.0};
  auto sched = MakeScheduler(GetParam(), slo);
  auto result = Simulate(SmallTrace(0.5), sched.get(), slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Light load: everything should finish and most requests meet SLOs.
  EXPECT_EQ(result->report.ttfts.count(), 60u);
  EXPECT_GT(result->report.slo_attainment, 0.8)
      << "scheduler " << sched->name();
}

TEST_P(AllSchedulersTest, CompletesHeavyLoad) {
  SloSpec slo{1.0, 1.0};
  auto sched = MakeScheduler(GetParam(), slo);
  auto result = Simulate(SmallTrace(20.0, 120), sched.get(), slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.ttfts.count(), 120u);
  // Under heavy load the serving time must exceed the arrival span.
  EXPECT_GT(result->report.total_serving_time, 120 / 20.0);
}

TEST_P(AllSchedulersTest, DeterministicAcrossRuns) {
  SloSpec slo{1.0, 1.0};
  auto trace = SmallTrace(2.0, 40);
  auto s1 = MakeScheduler(GetParam(), slo);
  auto s2 = MakeScheduler(GetParam(), slo);
  auto r1 = Simulate(trace, s1.get(), slo);
  auto r2 = Simulate(trace, s2.get(), slo);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->report.total_serving_time,
                   r2->report.total_serving_time);
  EXPECT_EQ(r1->report.iterations, r2->report.iterations);
  EXPECT_DOUBLE_EQ(r1->report.slo_attainment, r2->report.slo_attainment);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, AllSchedulersTest,
                         ::testing::Values("fcfs", "random", "sarathi",
                                           "fastgen", "apt", "apt_s"),
                         [](const auto& info) { return info.param; });

TEST(SimulatorTest, RejectsOversizedRequest) {
  SloSpec slo{1.0, 1.0};
  FcfsScheduler sched;
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 4;  // tiny pool
  Request r;
  r.id = 0;
  r.prompt_len = 1000;  // needs 63 hidden blocks > 4
  r.output_len = 10;
  r.arrival = 0.0;
  auto result = Simulate({r}, &sched, slo, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SimulatorTest, RejectsNonPositiveLengths) {
  SloSpec slo{1.0, 1.0};
  FcfsScheduler sched;
  Request r;
  r.id = 0;
  r.prompt_len = 0;
  r.output_len = 5;
  auto result = Simulate({r}, &sched, slo);
  EXPECT_FALSE(result.ok());
}

TEST(SimulatorTest, EmptyTraceYieldsEmptyReport) {
  SloSpec slo{1.0, 1.0};
  FcfsScheduler sched;
  auto result = Simulate({}, &sched, slo);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.iterations, 0);
}

TEST(SimulatorTest, SingleRequestLatencyBreakdown) {
  // One request alone in the system: TTFT ~= prefill cost, and every TBT
  // ~= one decode iteration.
  SloSpec slo{10.0, 10.0};
  FcfsScheduler sched;
  CostModel cm = MakeCostModel();
  Request r;
  r.id = 0;
  r.prompt_len = 512;
  r.output_len = 20;
  r.arrival = 0.0;
  auto result = Simulate({r}, &sched, slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& rep = result->report;
  EXPECT_EQ(rep.ttfts.count(), 1u);

  BatchWorkload prefill;
  prefill.prefill_tokens = 512;
  prefill.prefill_attend_tokens = 512LL * 513 / 2;
  EXPECT_NEAR(rep.ttfts.Max(), cm.IterationSeconds(prefill), 1e-9);
  // 19 decode iterations follow (the 20th token arrives at prefill end).
  EXPECT_EQ(rep.iterations, 1 + 19);
}

TEST(SimulatorTest, MemoryPressureTriggersPreemptionOrBatchLimit) {
  SloSpec slo{1.0, 1.0};
  FcfsScheduler sched;
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 200;  // deliberately small pool
  auto result = Simulate(SmallTrace(8.0, 80), &sched, slo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->report.batch_limit_time_ratio, 0.0);
  EXPECT_LE(result->peak_blocks, 200);
}

TEST(SimulatorTest, PoolBlocksDerivedFromClusterMemory) {
  auto blocks = CostModelBackend::DerivePoolBlocks(MakeCostModel(), {});
  ASSERT_TRUE(blocks.ok());
  // OPT-13B on A100-40G: (40e9*0.9 - 26e9) / (16 * 40*5120*2) ~= 1526.
  EXPECT_GT(*blocks, 1000);
  EXPECT_LT(*blocks, 2500);
}

}  // namespace
}  // namespace aptserve
