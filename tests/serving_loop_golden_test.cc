// Golden pins of two fixed cost-model runs, both with the Apt scheduler on
// bursty (Gamma, cv 2) ShareGPT traces loaded past the knee, so
// preemptions, conversions, batch-limit time and both SLO misses all
// occur: a 2000-request single-instance ServingLoop run, and a 600-request
// two-instance FleetController run whose migration planner moves requests
// (most of them mid-generation) between instances. Every value was
// recorded from an earlier build of the loop and is compared exactly
// (doubles as hex floats). serving_loop_parity_test's legacy oracle shares
// MetricsCollector::Report with the loop, so only a recorded golden can
// catch a change to how the report itself is computed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
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

/// FNV-1a over every request's TBT samples, requests in id order: each
/// request contributes its id, its sample count and the bytes of each gap.
uint64_t TbtDigest(const MultiInstanceResult& r) {
  std::vector<std::pair<RequestId, const RequestRecord*>> recs;
  for (const auto& records : r.records_per_instance) {
    for (const auto& [id, rec] : records) recs.emplace_back(id, &rec);
  }
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& [id, rec] : recs) {
    const int64_t n = static_cast<int64_t>(rec->tbt_samples.size());
    mix(&id, sizeof(id));
    mix(&n, sizeof(n));
    for (double gap : rec->tbt_samples) mix(&gap, sizeof(gap));
  }
  return h;
}

// A two-instance Apt fleet with the migration planner shedding queue depth
// from the hotter instance: preempted requests that already emitted tokens
// move between instances mid-run, so this pins the TTFT/TBT history (and
// the inter-token clock) that travels through Extract/Receive.
TEST(ServingLoopGoldenTest, MigratingAptFleetMatchesRecording) {
  const ModelSpec model = ModelSpec::Opt13B();
  const CostModel cm(model, ClusterSpec::ForModel(model));
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 600;
  tc.rate_per_sec = 9.0;
  tc.cv = 2.0;
  tc.seed = 16;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const SloSpec slo{1.0, 1.0};
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.router.policy = RoutePolicy::kRoundRobin;
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 2.0;
  cfg.tick_interval_s = 0.5;
  FleetController controller(cfg, &cm);
  const SchedulerFactory schedulers = [&slo] {
    AptConfig apt;
    apt.slo = slo;
    return std::make_unique<AptScheduler>(apt);
  };
  const BackendFactory backends =
      [&cm](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    APT_ASSIGN_OR_RETURN(
        std::unique_ptr<CostModelBackend> backend,
        CostModelBackend::Create(cm, CostModelBackend::Options{}));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
  auto result = controller.Run(*trace, schedulers, backends, slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const FleetMetrics& fm = result->fleet;
  const SloReport& r = result->serve.combined;
  // 45 moves, 39 of them requests that had already emitted tokens.
  EXPECT_EQ(fm.migrations, 45);
  EXPECT_EQ(r.slo_attainment, 0x1.e147ae147ae14p-1);
  EXPECT_EQ(r.ttft_attainment, 0x1.e8f5c28f5c28fp-1);
  EXPECT_EQ(r.tbt_attainment, 0x1.f851eb851eb85p-1);
  EXPECT_EQ(r.batch_limit_time_ratio, 0x1.93215a15da34bp-1);
  EXPECT_EQ(r.total_serving_time, 0x1.18d7c49797c1dp+7);
  EXPECT_EQ(r.iterations, 7013);
  EXPECT_EQ(r.mean_batch_size, 0x1.4285f7e56ce3fp+4);
  EXPECT_EQ(r.preemptions, 630);
  EXPECT_EQ(r.conversions, 117);
  EXPECT_EQ(r.mean_ttft, 0x1.71a55a86dbf6p+1);
  EXPECT_EQ(r.p99_ttft, 0x1.32620dcbd8457p+6);
  EXPECT_EQ(r.eligible_requests, 600);
  EXPECT_EQ(r.slo_met_requests, 564);
  EXPECT_EQ(r.goodput_rps, 0x1.010e072585d04p+2);

  ASSERT_EQ(r.ttfts.count(), 600u);
  EXPECT_EQ(r.ttfts.Quantile(0.5), 0x1.0c8fa9e45bbp-3);
  EXPECT_EQ(r.ttfts.P99(), 0x1.32620dcbd8457p+6);
  ASSERT_EQ(r.p99_tbts.count(), 600u);
  EXPECT_EQ(r.p99_tbts.Quantile(0.5), 0x1.4f7c0d95022d4p-3);
  EXPECT_EQ(r.p99_tbts.P99(), 0x1.08dbf87685cfp+0);
  EXPECT_EQ(result->serve.tokens_generated, 141366);
  size_t records = 0;
  for (const auto& inst : result->serve.records_per_instance) {
    records += inst.size();
  }
  EXPECT_EQ(records, 600u);
  EXPECT_EQ(TbtDigest(result->serve), 0x98758fe019b7261aull);
}

}  // namespace
}  // namespace aptserve
