// Golden pin of one fixed single-instance run: ServingLoop over a
// CostModelBackend, the Apt scheduler, and a bursty (Gamma, cv 2) 2000-
// request ShareGPT trace loaded past the knee, so preemptions, conversions,
// batch-limit time and both SLO misses all occur. Every value was recorded
// from an earlier build of the loop and is compared exactly (doubles as hex
// floats). serving_loop_parity_test's legacy oracle shares
// MetricsCollector::Report with the loop, so only a recorded golden can
// catch a change to how the report itself is computed.
#include <gtest/gtest.h>

#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

TEST(ServingLoopGoldenTest, AptBurstyShareGptRunMatchesRecording) {
  const ModelSpec model = ModelSpec::Opt13B();
  const CostModel cm(model, ClusterSpec::ForModel(model));
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 2000;
  tc.rate_per_sec = 3.0;
  tc.cv = 2.0;
  tc.seed = 14;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const SloSpec slo{1.0, 1.0};
  AptConfig apt;
  apt.slo = slo;
  AptScheduler scheduler(apt);
  auto backend = CostModelBackend::Create(cm, CostModelBackend::Options{});
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  auto result = ServingLoop(backend->get(), ServingLoopConfig{})
                    .Run(*trace, &scheduler, slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const SloReport& r = result->report;
  EXPECT_EQ(r.slo_attainment, 0x1.e147ae147ae14p-1);
  EXPECT_EQ(r.ttft_attainment, 0x1.e872b020c49bap-1);
  EXPECT_EQ(r.tbt_attainment, 0x1.f6c8b43958106p-1);
  EXPECT_EQ(r.batch_limit_time_ratio, 0x1.d94e65e1b3c3ap-1);
  EXPECT_EQ(r.total_serving_time, 0x1.b57dedcf2e397p+9);
  EXPECT_EQ(r.iterations, 20889);
  EXPECT_EQ(r.mean_batch_size, 0x1.658e97025d81fp+4);
  EXPECT_EQ(r.preemptions, 1934);
  EXPECT_EQ(r.conversions, 38);
  EXPECT_EQ(r.mean_ttft, 0x1.34f532524d3d9p+3);
  EXPECT_EQ(r.p99_ttft, 0x1.7b9d4c201520dp+8);
  EXPECT_EQ(r.jain_fairness_ttft, 0x1.5fae07d0baf9cp-6);
  EXPECT_EQ(r.eligible_requests, 2000);
  EXPECT_EQ(r.slo_met_requests, 1880);
  EXPECT_EQ(r.goodput_rps, 0x1.1305b0c392383p+1);

  ASSERT_EQ(r.ttfts.count(), 2000u);
  EXPECT_EQ(r.ttfts.Quantile(0.5), 0x1.2415b006824p-3);
  EXPECT_EQ(r.ttfts.Quantile(0.9), 0x1.3a1c4c6062d38p-1);
  EXPECT_EQ(r.ttfts.P99(), 0x1.7b9d4c201520dp+8);
  EXPECT_EQ(r.ttfts.Max(), 0x1.6753d036bb0b9p+9);
  ASSERT_EQ(r.p99_tbts.count(), 2000u);
  EXPECT_EQ(r.p99_tbts.Quantile(0.5), 0x1.4cd4530f44cc4p-3);
  EXPECT_EQ(r.p99_tbts.Quantile(0.9), 0x1.0fb5dfbceb99cp-2);
  EXPECT_EQ(r.p99_tbts.P99(), 0x1.a732e3c97f0a9p+1);
  EXPECT_EQ(r.p99_tbts.Max(), 0x1.1b1f257b6ac7ap+8);

  EXPECT_EQ(result->prefill_iterations, 3117);
  EXPECT_EQ(result->decode_iterations, 17772);
  EXPECT_EQ(result->mixed_iterations, 0);
  EXPECT_EQ(result->peak_blocks, 1525);
  EXPECT_EQ(result->tokens_generated, 466813);
}

}  // namespace
}  // namespace aptserve
