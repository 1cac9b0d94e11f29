#include "serve/multi_instance.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/fcfs_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

CostModel Opt13() {
  const ModelSpec m = ModelSpec::Opt13B();
  return CostModel(m, ClusterSpec::ForModel(m));
}

/// One fresh analytic backend per instance.
BackendFactory CostBackends(const CostModel* cm) {
  return [cm](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    APT_ASSIGN_OR_RETURN(auto b, CostModelBackend::Create(*cm, {}));
    return std::unique_ptr<ExecutionBackend>(std::move(b));
  };
}

RouterConfig Fleet(int32_t n, RoutePolicy policy) {
  RouterConfig rc;
  rc.n_instances = n;
  rc.policy = policy;
  return rc;
}

std::vector<Request> MakeTrace(double rate, int n = 200, uint64_t seed = 6) {
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = n;
  tc.rate_per_sec = rate;
  tc.seed = seed;
  auto t = BuildTrace(tc);
  EXPECT_TRUE(t.ok());
  return *t;
}

TEST(DispatchTest, RoundRobinCycles) {
  const Router router(Fleet(3, RoutePolicy::kRoundRobin));
  auto a = router.Route(MakeTrace(2.0, 9)).assignment;
  EXPECT_EQ(a, (std::vector<int32_t>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
}

TEST(DispatchTest, LeastLoadedBalancesTokens) {
  const Router router(Fleet(2, RoutePolicy::kLeastLoaded));
  auto trace = MakeTrace(50.0, 400);  // dense arrivals, window matters
  auto a = router.Route(trace).assignment;
  int64_t tokens[2] = {0, 0};
  for (size_t i = 0; i < trace.size(); ++i) {
    tokens[a[i]] += trace[i].prompt_len;
  }
  const double imbalance =
      std::abs(double(tokens[0]) - double(tokens[1])) /
      double(tokens[0] + tokens[1]);
  EXPECT_LT(imbalance, 0.1);
}

TEST(DispatchTest, PowerOfTwoUsesAllInstancesAndIsDeterministic) {
  const Router router(Fleet(4, RoutePolicy::kPowerOfTwo));
  auto trace = MakeTrace(10.0, 200);
  auto a1 = router.Route(trace).assignment;
  auto a2 = router.Route(trace).assignment;
  EXPECT_EQ(a1, a2);  // seeded
  std::set<int32_t> used(a1.begin(), a1.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(DispatchTest, SingleInstanceAllZero) {
  const Router router(Fleet(1, RoutePolicy::kLeastLoaded));
  auto a = router.Route(MakeTrace(2.0, 10)).assignment;
  for (int32_t v : a) EXPECT_EQ(v, 0);
}

TEST(MultiInstanceTest, TwoInstancesSustainRoughlyTwiceTheRate) {
  const SloSpec slo{1.0, 1.0};
  // A rate that collapses one instance but should be fine split over two.
  auto trace = MakeTrace(4.0, 300, 12);

  const CostModel cm = Opt13();
  FcfsScheduler single_sched;
  auto single = CostModelBackend::Create(cm, {});
  ASSERT_TRUE(single.ok());
  auto r1 = ServingLoop(single->get(), ServingLoopConfig{})
                .Run(trace, &single_sched, slo);
  ASSERT_TRUE(r1.ok());

  MultiInstanceRunner mi(Router(Fleet(2, RoutePolicy::kLeastLoaded), &cm),
                         ServingLoopConfig{});
  auto r2 = mi.Run(trace, [] { return std::make_unique<FcfsScheduler>(); },
                   CostBackends(&cm), slo);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_GT(r2->combined.slo_attainment, r1->report.slo_attainment + 0.2);
  EXPECT_EQ(r2->requests_per_instance[0] + r2->requests_per_instance[1],
            300);
}

TEST(MultiInstanceTest, AptOnFleetBeatsFcfsOnFleet) {
  const SloSpec slo{1.0, 1.0};
  auto trace = MakeTrace(8.0, 300, 14);
  const CostModel cm = Opt13();
  MultiInstanceRunner mi(Router(Fleet(2, RoutePolicy::kLeastLoaded), &cm),
                         ServingLoopConfig{});
  auto rf = mi.Run(trace, [] { return std::make_unique<FcfsScheduler>(); },
                   CostBackends(&cm), slo);
  auto ra = mi.Run(trace,
                   [&] {
                     AptConfig c;
                     c.slo = slo;
                     return std::make_unique<AptScheduler>(c);
                   },
                   CostBackends(&cm), slo);
  ASSERT_TRUE(rf.ok() && ra.ok());
  EXPECT_GT(ra->combined.slo_attainment, rf->combined.slo_attainment);
}

TEST(MergeReportsTest, WeightsByRequestCount) {
  SloReport a, b;
  a.slo_attainment = 1.0;
  a.ttft_attainment = 1.0;
  a.tbt_attainment = 1.0;
  a.total_serving_time = 10.0;
  a.batch_limit_time_ratio = 0.5;
  a.iterations = 10;
  a.mean_batch_size = 4.0;
  a.preemptions = 1;
  a.ttfts.Add(0.1);
  b.slo_attainment = 0.5;
  b.ttft_attainment = 0.5;
  b.tbt_attainment = 0.5;
  b.total_serving_time = 30.0;
  b.batch_limit_time_ratio = 0.0;
  b.iterations = 30;
  b.mean_batch_size = 8.0;
  b.preemptions = 2;
  b.ttfts.Add(0.3);
  auto merged = MergeReports({a, b}, {100, 300});
  EXPECT_DOUBLE_EQ(merged.slo_attainment, (1.0 * 100 + 0.5 * 300) / 400);
  EXPECT_DOUBLE_EQ(merged.total_serving_time, 30.0);  // parallel max
  EXPECT_DOUBLE_EQ(merged.batch_limit_time_ratio, 5.0 / 40.0);
  EXPECT_EQ(merged.iterations, 40);
  EXPECT_DOUBLE_EQ(merged.mean_batch_size, (4.0 * 10 + 8.0 * 30) / 40);
  EXPECT_EQ(merged.preemptions, 3);
  EXPECT_EQ(merged.ttfts.count(), 2u);
}

TEST(MergeReportsTest, EmptyFleet) {
  auto merged = MergeReports({}, {});
  EXPECT_EQ(merged.slo_attainment, 0.0);
  EXPECT_EQ(merged.iterations, 0);
}

}  // namespace
}  // namespace aptserve
