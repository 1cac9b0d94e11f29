// The benchmark's probes are pure witnesses: a decorated scheduler/backend
// pair under virtual timing must serve exactly like the undecorated one —
// the same token streams, SloReport and PrefixStats, bit for bit — on the
// offline configuration (ServingLoop::Run) and the prefix configuration
// (the routed fleet with prefix sharing).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "probes.h"
#include "serve/serving_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

using aptserve::Request;

void ExpectSameReport(const aptserve::SloReport& a,
                      const aptserve::SloReport& b) {
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.ttft_attainment, b.ttft_attainment);
  EXPECT_EQ(a.tbt_attainment, b.tbt_attainment);
  EXPECT_EQ(a.batch_limit_time_ratio, b.batch_limit_time_ratio);
  EXPECT_EQ(a.total_serving_time, b.total_serving_time);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.conversions, b.conversions);
  EXPECT_EQ(a.ttfts.samples(), b.ttfts.samples());
  EXPECT_EQ(a.p99_tbts.samples(), b.p99_tbts.samples());
  EXPECT_EQ(a.slo_met_requests, b.slo_met_requests);
  EXPECT_EQ(a.eligible_requests, b.eligible_requests);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
}

void ExpectSamePrefix(const aptserve::PrefixStats& a,
                      const aptserve::PrefixStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.matched_tokens, b.matched_tokens);
  EXPECT_EQ(a.shared_blocks, b.shared_blocks);
  EXPECT_EQ(a.cow_matches, b.cow_matches);
  EXPECT_EQ(a.inserted_blocks, b.inserted_blocks);
  EXPECT_EQ(a.evicted_blocks, b.evicted_blocks);
}

struct OfflineRun {
  aptserve::ServingLoopResult result;
  TokenMap tokens;
};

OfflineRun ServeOffline(const WorkloadSpec& spec,
                        const std::vector<Request>& trace, ProbeSet* probes) {
  OfflineRun run;
  std::unique_ptr<aptserve::ExecutionBackend> backend =
      MakeEngine(spec, /*virtual_timing=*/true, spec.prefix_sharing,
                 kEngineThreads, &run.tokens);
  std::unique_ptr<aptserve::Scheduler> scheduler = AptFactory(spec.slo)();
  if (probes != nullptr) {
    InstanceProbe* probe = probes->Add();
    probe->has_backend = true;
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), probe);
    backend = std::make_unique<TimedBackend>(std::move(backend), probe);
  }
  aptserve::ServingLoop loop(backend.get(), aptserve::ServingLoopConfig{});
  auto result = loop.Run(trace, scheduler.get(), spec.slo);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.result = std::move(*result);
  return run;
}

TEST(ProbesIdentityTest, OfflineDecoratedRunIsBitIdentical) {
  auto spec = FindWorkload("offline");
  ASSERT_TRUE(spec.ok());
  spec->num_requests = 24;
  auto trace = BuildWorkloadTrace(*spec, /*seed=*/3, /*seconds=*/1.0);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const OfflineRun plain = ServeOffline(*spec, *trace, nullptr);
  ProbeSet probes(TokenFrame::kLoop, /*timed=*/true);
  const OfflineRun probed = ServeOffline(*spec, *trace, &probes);

  ASSERT_EQ(plain.tokens.size(), trace->size());
  EXPECT_EQ(plain.tokens, probed.tokens);
  ExpectSameReport(plain.result.report, probed.result.report);
  ExpectSamePrefix(plain.result.prefix, probed.result.prefix);
  EXPECT_EQ(plain.result.tokens_generated, probed.result.tokens_generated);

  // The probe saw every emitted token, at the loop's own timestamps.
  const InstanceProbe& probe = probes.probes().front();
  EXPECT_EQ(probe.token_gaps, 0);
  EXPECT_FALSE(probe.plan_us.empty());
  for (const auto& [id, rec] : plain.result.records) {
    auto it = probe.token_times.find(id);
    ASSERT_NE(it, probe.token_times.end());
    ASSERT_EQ(it->second.size(), rec.tbt_samples.size() + 1);
    EXPECT_EQ(it->second.front() - rec.spec.arrival, rec.ttft);
  }
}

aptserve::MultiInstanceResult ServePrefixFleet(
    const WorkloadSpec& spec, const std::vector<Request>& trace,
    ProbeSet* probes, TokenMap* tokens) {
  std::vector<TokenMap> sinks(spec.instances);
  aptserve::BackendFactory backends =
      [&](int32_t i)
      -> aptserve::StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
    return MakeEngine(spec, /*virtual_timing=*/true, spec.prefix_sharing,
                      kEngineThreads, &sinks[static_cast<size_t>(i)]);
  };
  aptserve::SchedulerFactory schedulers = AptFactory(spec.slo);
  if (probes != nullptr) {
    backends = probes->Wrap(backends);
    schedulers = probes->Wrap(schedulers);
  }
  aptserve::MultiInstanceRunner runner(aptserve::Router(RouterFor(spec)),
                                       aptserve::ServingLoopConfig{});
  auto result = runner.Run(trace, schedulers, backends, spec.slo);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  for (TokenMap& sink : sinks) {
    for (auto& [id, toks] : sink) (*tokens)[id] = std::move(toks);
  }
  return result.ok() ? *result : aptserve::MultiInstanceResult{};
}

TEST(ProbesIdentityTest, PrefixFleetDecoratedRunIsBitIdentical) {
  auto spec = FindWorkload("prefix");
  ASSERT_TRUE(spec.ok());
  auto trace = BuildWorkloadTrace(*spec, /*seed=*/5, /*seconds=*/0.5);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  TokenMap plain_tokens, probed_tokens;
  const auto plain = ServePrefixFleet(*spec, *trace, nullptr, &plain_tokens);
  ProbeSet probes(TokenFrame::kLoop, /*timed=*/true);
  const auto probed = ServePrefixFleet(*spec, *trace, &probes, &probed_tokens);

  ASSERT_EQ(plain_tokens.size(), trace->size());
  EXPECT_EQ(plain_tokens, probed_tokens);
  ExpectSameReport(plain.combined, probed.combined);
  ExpectSamePrefix(plain.prefix, probed.prefix);
  EXPECT_GT(plain.prefix.hits, 0);
  EXPECT_EQ(plain.prefill_tokens_skipped, probed.prefill_tokens_skipped);
  EXPECT_EQ(plain.requests_per_instance, probed.requests_per_instance);
  ASSERT_EQ(probes.probes().size(), static_cast<size_t>(spec->instances));
}

}  // namespace
}  // namespace perfbench
