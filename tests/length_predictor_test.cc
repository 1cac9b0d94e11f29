#include "core/length_predictor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

TEST(LengthPredictorTest, FallsBackToDefaultWhenEmpty) {
  OutputLengthPredictor p;
  EXPECT_DOUBLE_EQ(p.PredictMean(100, 64.0), 64.0);
  EXPECT_DOUBLE_EQ(p.PredictQuantile(100, 0.9, 64.0), 64.0);
}

TEST(LengthPredictorTest, GlobalFallbackBeforeBucketFills) {
  OutputLengthPredictor p(2048, 8);
  // Feed a different bucket (long prompts) until the global estimator has
  // enough mass.
  for (int i = 0; i < 20; ++i) p.Observe(2000, 100);
  // Short-prompt bucket is empty -> global mean used.
  EXPECT_NEAR(p.PredictMean(10), 100.0, 1e-9);
}

TEST(LengthPredictorTest, BucketsSeparateRegimes) {
  OutputLengthPredictor p(2048, 8);
  for (int i = 0; i < 50; ++i) {
    p.Observe(100, 400);   // short prompts -> long outputs
    p.Observe(1900, 20);   // long prompts -> short outputs
  }
  EXPECT_NEAR(p.PredictMean(100), 400.0, 1.0);
  EXPECT_NEAR(p.PredictMean(1900), 20.0, 1.0);
  EXPECT_EQ(p.observations(), 100);
}

TEST(LengthPredictorTest, QuantileIsConservative) {
  OutputLengthPredictor p(2048, 4);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    p.Observe(100, static_cast<int32_t>(rng.UniformInt(50, 150)));
  }
  EXPECT_GT(p.PredictQuantile(100, 0.9), p.PredictMean(100));
  EXPECT_LT(p.PredictQuantile(100, 0.1), p.PredictMean(100));
}

TEST(LengthPredictorTest, PromptLengthsClampToBuckets) {
  OutputLengthPredictor p(100, 4);
  p.Observe(-5, 10);
  p.Observe(1000, 10);  // beyond max_prompt_len clamps to the last bucket
  EXPECT_EQ(p.observations(), 2);
}

// The predictive scheduler must still serve correctly and learn online.
TEST(PredictiveAptTest, ServesAndLearns) {
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 200;
  tc.rate_per_sec = 5.0;
  tc.seed = 21;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok());
  const SloSpec slo{1.0, 1.0};
  AptConfig cfg;
  cfg.slo = slo;
  cfg.prediction_quantile = 0.5;
  AptScheduler sched(cfg);
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cm(model, ClusterSpec::ForModel(model));
  auto backend = CostModelBackend::Create(cm, {});
  ASSERT_TRUE(backend.ok());
  auto result =
      ServingLoop(backend->get(), ServingLoopConfig{}).Run(*trace, &sched, slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.ttfts.count(), 200u);
  // The predictor observed (nearly) every completed request.
  EXPECT_GT(sched.predictor().observations(), 150);
}

TEST(PredictiveAptTest, PredictionReducesPreemptionsUnderPressure) {
  // Long outputs + tight memory: admitting on current size alone
  // over-commits and preempts later; predicted-size admission should not
  // preempt more.
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 250;
  tc.rate_per_sec = 6.0;
  tc.seed = 33;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok());
  const SloSpec slo{1.0, 1.0};
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cm(model, ClusterSpec::ForModel(model));

  AptConfig base;
  base.slo = slo;
  AptConfig pred = base;
  pred.prediction_quantile = 0.5;
  AptScheduler s_base(base), s_pred(pred);
  auto b_base = CostModelBackend::Create(cm, {});
  auto b_pred = CostModelBackend::Create(cm, {});
  ASSERT_TRUE(b_base.ok() && b_pred.ok());
  auto r_base = ServingLoop(b_base->get(), ServingLoopConfig{})
                    .Run(*trace, &s_base, slo);
  auto r_pred = ServingLoop(b_pred->get(), ServingLoopConfig{})
                    .Run(*trace, &s_pred, slo);
  ASSERT_TRUE(r_base.ok() && r_pred.ok());
  EXPECT_LE(r_pred->report.preemptions,
            r_base->report.preemptions * 1.2 + 10);
}

}  // namespace
}  // namespace aptserve
