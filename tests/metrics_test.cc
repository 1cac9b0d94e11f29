#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <initializer_list>

namespace aptserve {
namespace {

/// Stamps tokens on `rec` at `times`, handing each token its predecessor's
/// time as the previous-token time, the way the serving loop does.
void Emit(RequestRecord* rec, std::initializer_list<TimePoint> times) {
  TimePoint prev = 0.0;
  for (TimePoint t : times) {
    rec->OnToken(t, prev);
    prev = t;
  }
}

Request Req(RequestId id, TimePoint arrival) {
  Request r;
  r.id = id;
  r.prompt_len = 10;
  r.output_len = 5;
  r.arrival = arrival;
  return r;
}

TEST(RequestRecordTest, SloChecks) {
  SloSpec slo{1.0, 0.5};
  RequestRecord rec;
  rec.spec = Req(0, 0.0);
  rec.ttft = 0.8;
  rec.tbt_samples = {0.1, 0.2, 0.3};
  EXPECT_TRUE(rec.MeetsTtft(slo));
  EXPECT_TRUE(rec.MeetsTbt(slo));
  EXPECT_TRUE(rec.MeetsSlo(slo));
  rec.ttft = 1.2;
  EXPECT_FALSE(rec.MeetsTtft(slo));
  EXPECT_FALSE(rec.MeetsSlo(slo));
}

TEST(RequestRecordTest, P99TbtIsTailSensitive) {
  RequestRecord rec;
  for (int i = 0; i < 49; ++i) rec.tbt_samples.push_back(0.05);
  rec.tbt_samples.push_back(5.0);  // one stall
  EXPECT_GT(rec.P99Tbt(), 0.05);
  SloSpec slo{1.0, 1.0};
  EXPECT_FALSE(rec.MeetsTbt(slo));
}

TEST(RequestRecordTest, NoTbtSamplesVacuouslyMet) {
  RequestRecord rec;
  rec.ttft = 0.2;
  EXPECT_TRUE(rec.MeetsTbt(SloSpec{1.0, 0.001}));
}

TEST(RequestRecordTest, NoFirstTokenFailsTtft) {
  RequestRecord rec;  // ttft = -1
  EXPECT_FALSE(rec.MeetsTtft(SloSpec{100.0, 1.0}));
}

TEST(MetricsCollectorTest, TokenTimelineProducesTtftAndTbt) {
  MetricsCollector mc;
  RequestRecord* registered = mc.RegisterRequest(Req(1, 10.0));
  // TTFT = 0.5, then TBT gaps 0.2 and 1.0.
  Emit(registered, {10.5, 10.7, 11.7});
  registered->finish_time = 11.7;
  EXPECT_EQ(mc.Find(1), registered);
  EXPECT_EQ(mc.Find(2), nullptr);
  const auto& rec = mc.records().at(1);
  EXPECT_DOUBLE_EQ(rec.ttft, 0.5);
  ASSERT_EQ(rec.tbt_samples.size(), 2u);
  EXPECT_NEAR(rec.tbt_samples[0], 0.2, 1e-12);
  EXPECT_NEAR(rec.tbt_samples[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(rec.finish_time, 11.7);
}

TEST(MetricsCollectorTest, ReportAggregates) {
  SloSpec slo{1.0, 1.0};
  MetricsCollector mc;
  // Request 1 meets both; request 2 misses TTFT; request 3 misses TBT.
  Emit(mc.RegisterRequest(Req(1, 0.0)), {0.5, 0.6});
  Emit(mc.RegisterRequest(Req(2, 0.0)), {3.0, 3.1});
  Emit(mc.RegisterRequest(Req(3, 0.0)), {0.5, 4.0});
  auto rep = mc.Report(slo);
  EXPECT_NEAR(rep.slo_attainment, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.ttft_attainment, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.tbt_attainment, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(rep.ttfts.count(), 3u);
}

TEST(MetricsCollectorTest, BatchLimitRatio) {
  MetricsCollector mc;
  Emit(mc.RegisterRequest(Req(1, 0.0)), {1.0});
  mc.OnIteration(2.0, 4, false);
  mc.OnIteration(1.0, 8, true);
  mc.OnIteration(1.0, 8, true);
  auto rep = mc.Report(SloSpec{});
  EXPECT_DOUBLE_EQ(rep.batch_limit_time_ratio, 0.5);
  EXPECT_DOUBLE_EQ(rep.total_serving_time, 4.0);
  EXPECT_EQ(rep.iterations, 3);
  EXPECT_NEAR(rep.mean_batch_size, (4 + 8 + 8) / 3.0, 1e-12);
}

TEST(MetricsCollectorTest, PreemptionAndConversionCounts) {
  MetricsCollector mc;
  Emit(mc.RegisterRequest(Req(1, 0.0)), {0.1});
  mc.OnPreemption();
  mc.OnPreemption();
  mc.OnConversion();
  auto rep = mc.Report(SloSpec{});
  EXPECT_EQ(rep.preemptions, 2);
  EXPECT_EQ(rep.conversions, 1);
}

TEST(MetricsCollectorTest, EmptyReport) {
  MetricsCollector mc;
  auto rep = mc.Report(SloSpec{});
  EXPECT_EQ(rep.slo_attainment, 0.0);
  EXPECT_EQ(rep.iterations, 0);
}


TEST(JainFairnessTest, EqualValuesAreOne) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0.0, 0.0}), 1.0);
}

TEST(JainFairnessTest, SingleHogApproachesOneOverN) {
  EXPECT_NEAR(JainFairnessIndex({100.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainFairnessTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 0.0);
}

TEST(JainFairnessTest, ReportedInSloReport) {
  MetricsCollector mc;
  RequestRecord* first = mc.RegisterRequest(Req(1, 0.0));
  RequestRecord* second = mc.RegisterRequest(Req(2, 0.0));
  Emit(first, {1.0});   // TTFT 1
  Emit(second, {1.0});  // TTFT 1
  auto rep = mc.Report(SloSpec{});
  EXPECT_DOUBLE_EQ(rep.jain_fairness_ttft, 1.0);
}

// ---------------------------------------------------------------------------
// Per-request SLOs, goodput and rejection accounting (the fleet router's
// admission/attainment math).
// ---------------------------------------------------------------------------

TEST(RequestRecordTest, PerRequestDeadlineOverridesRunLevelSlo) {
  SloSpec slo{1.0, 1.0};
  RequestRecord rec;
  rec.spec = Req(0, 0.0);
  rec.ttft = 0.8;
  // Tighter own deadline: the run-level SLO would pass, the request's own
  // must fail.
  rec.spec.slo_ttft_s = 0.5;
  EXPECT_DOUBLE_EQ(rec.TtftBound(slo), 0.5);
  EXPECT_FALSE(rec.MeetsTtft(slo));
  // Looser own deadline rescues a run-level miss.
  rec.ttft = 1.5;
  rec.spec.slo_ttft_s = 2.0;
  EXPECT_TRUE(rec.MeetsTtft(slo));
  // Negative (unset) inherits the run level.
  rec.spec.slo_ttft_s = -1.0;
  EXPECT_DOUBLE_EQ(rec.TtftBound(slo), 1.0);
  EXPECT_FALSE(rec.MeetsTtft(slo));
  // Per-request TBT bound works the same way.
  rec.tbt_samples = {0.7};
  EXPECT_TRUE(rec.MeetsTbt(slo));
  rec.spec.slo_tbt_p99_s = 0.5;
  EXPECT_FALSE(rec.MeetsTbt(slo));
}

TEST(RequestRecordTest, DeadlineExactlyMetCounts) {
  SloSpec slo{1.0, 0.5};
  RequestRecord rec;
  rec.spec = Req(0, 0.0);
  rec.ttft = 1.0;  // exactly the bound
  EXPECT_TRUE(rec.MeetsTtft(slo));
  rec.spec.slo_ttft_s = 0.25;
  rec.ttft = 0.25;  // exactly the per-request bound
  EXPECT_TRUE(rec.MeetsTtft(slo));
  rec.tbt_samples = {0.5};  // P99 == bound
  EXPECT_TRUE(rec.MeetsTbt(slo));
  EXPECT_TRUE(rec.MeetsSlo(slo));
}

TEST(MetricsCollectorTest, GoodputCountsSloMetPerServingSecond) {
  SloSpec slo{1.0, 1.0};
  MetricsCollector mc;
  Emit(mc.RegisterRequest(Req(1, 0.0)), {0.5});  // meets
  Emit(mc.RegisterRequest(Req(2, 0.0)), {3.0});  // misses TTFT
  mc.OnIteration(2.0, 2, false);
  mc.OnIteration(2.0, 2, false);
  auto rep = mc.Report(slo);
  EXPECT_EQ(rep.slo_met_requests, 1);
  EXPECT_EQ(rep.eligible_requests, 2);
  EXPECT_DOUBLE_EQ(rep.goodput_rps, 1.0 / 4.0);
}

TEST(MetricsCollectorTest, GoodputZeroWithoutServingTime) {
  MetricsCollector mc;
  Emit(mc.RegisterRequest(Req(1, 0.0)), {0.1});
  auto rep = mc.Report(SloSpec{1.0, 1.0});
  EXPECT_DOUBLE_EQ(rep.goodput_rps, 0.0);
}

TEST(MetricsCollectorTest, BestEffortExcludedFromAttainmentAndGoodput) {
  SloSpec slo{1.0, 1.0};
  MetricsCollector mc;
  Request fast = Req(1, 0.0);
  Emit(mc.RegisterRequest(fast), {0.5});  // meets, eligible
  Request be = Req(2, 0.0);
  be.best_effort = true;
  Emit(mc.RegisterRequest(be), {0.1});  // would meet, but best-effort
  mc.OnIteration(1.0, 2, false);
  auto rep = mc.Report(slo);
  EXPECT_EQ(rep.eligible_requests, 1);
  EXPECT_EQ(rep.best_effort_requests, 1);
  EXPECT_EQ(rep.slo_met_requests, 1);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 1.0);  // over eligible only
  EXPECT_DOUBLE_EQ(rep.goodput_rps, 1.0);
  // Latency samples still cover everyone.
  EXPECT_EQ(rep.ttfts.count(), 2u);
}

TEST(FoldRejectedTest, RejectedEnterAttainmentDenominator) {
  SloReport rep;
  rep.eligible_requests = 3;
  rep.slo_attainment = 1.0;
  rep.ttft_attainment = 1.0;
  rep.tbt_attainment = 2.0 / 3.0;
  rep.goodput_rps = 0.5;
  FoldRejectedIntoReport(1, &rep);
  EXPECT_EQ(rep.rejected_requests, 1);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(rep.ttft_attainment, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(rep.tbt_attainment, (2.0 / 3.0) * (3.0 / 4.0));
  // Goodput is unchanged: rejected requests consume no serving time.
  EXPECT_DOUBLE_EQ(rep.goodput_rps, 0.5);
}

TEST(FoldRejectedTest, FoldingTwiceComposes) {
  SloReport rep;
  rep.eligible_requests = 2;
  rep.slo_attainment = 1.0;
  FoldRejectedIntoReport(1, &rep);
  FoldRejectedIntoReport(1, &rep);
  EXPECT_EQ(rep.rejected_requests, 2);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 2.0 / 4.0);
}

TEST(FoldRejectedTest, EdgeCases) {
  // No rejects: no-op.
  SloReport rep;
  rep.eligible_requests = 5;
  rep.slo_attainment = 0.8;
  FoldRejectedIntoReport(0, &rep);
  EXPECT_EQ(rep.rejected_requests, 0);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 0.8);
  // Everything rejected: attainment pinned at zero.
  SloReport all_rejected;
  FoldRejectedIntoReport(10, &all_rejected);
  EXPECT_EQ(all_rejected.rejected_requests, 10);
  EXPECT_DOUBLE_EQ(all_rejected.slo_attainment, 0.0);
}

}  // namespace
}  // namespace aptserve
