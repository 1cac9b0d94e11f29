// The inter-token clock across live migration. A request's previous-token
// time travels with it through Extract -> Receive, so the first TBT sample
// it records on the destination instance is measured from the last token
// it emitted on the source; a request that migrates before its first token
// carries no TBT history at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"

namespace aptserve {
namespace {

/// Decodes every running request and fully prefills every waiting one,
/// except the ids in `hold` (left queued). Ids in `preempt` are
/// recompute-preempted on the next plan, keeping their cache type.
class ScriptedScheduler : public Scheduler {
 public:
  BatchPlan PlanIteration(const SchedulerInput& input) override {
    BatchPlan plan;
    const auto listed = [](const std::vector<RequestId>& ids, RequestId id) {
      return std::find(ids.begin(), ids.end(), id) != ids.end();
    };
    for (const SimRequest* r : input.running) {
      if (listed(preempt, r->spec.id)) {
        plan.preempt.push_back({r->spec.id, r->cache_type});
      } else {
        plan.items.push_back({r->spec.id, r->cache_type, 0});
      }
    }
    for (const SimRequest* w : input.waiting) {
      if (listed(hold, w->spec.id)) continue;
      plan.items.push_back({w->spec.id, w->cache_type,
                            w->PrefillTarget() - w->prefill_progress});
    }
    preempt.clear();
    return plan;
  }

  std::string name() const override { return "scripted-test"; }

  std::vector<RequestId> hold;
  std::vector<RequestId> preempt;
};

Request Make(RequestId id, double arrival, int32_t prompt, int32_t output) {
  Request r;
  r.id = id;
  r.prompt_len = prompt;
  r.output_len = output;
  r.arrival = arrival;
  return r;
}

class MigrationClockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const CostModelBackend::Options opts;
    auto backend_a = CostModelBackend::Create(cm_, opts);
    auto backend_b = CostModelBackend::Create(cm_, opts);
    ASSERT_TRUE(backend_a.ok() && backend_b.ok());
    backend_a_ = std::move(*backend_a);
    backend_b_ = std::move(*backend_b);
    a_ = std::make_unique<ServingLoopState>(backend_a_.get(),
                                            ServingLoopConfig{});
    b_ = std::make_unique<ServingLoopState>(backend_b_.get(),
                                            ServingLoopConfig{});
  }

  /// One executed iteration on `s`; returns the clock at its emit, which
  /// is the time stamped on every token of that iteration.
  static double StepExecuted(ServingLoopState* s) {
    auto progress = s->Step();
    EXPECT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(*progress, ServingLoopState::Progress::kExecuted);
    return s->now();
  }

  /// Steps `s` until every request on it is finished.
  static void Drain(ServingLoopState* s) {
    for (int32_t i = 0; i < 1000 && !s->AllServed(); ++i) {
      ASSERT_TRUE(s->Step().ok());
    }
    ASSERT_TRUE(s->AllServed());
  }

  const ModelSpec model_ = ModelSpec::Opt13B();
  const CostModel cm_{model_, ClusterSpec::ForModel(model_)};
  std::unique_ptr<CostModelBackend> backend_a_;
  std::unique_ptr<CostModelBackend> backend_b_;
  std::unique_ptr<ServingLoopState> a_;
  std::unique_ptr<ServingLoopState> b_;
  ScriptedScheduler sched_a_;
  ScriptedScheduler sched_b_;
  const SloSpec slo_{10.0, 10.0};
};

TEST_F(MigrationClockTest, PreemptedRequestKeepsItsInterTokenClock) {
  ASSERT_TRUE(a_->Start({Make(1, 0.0, 64, 6)}, &sched_a_, slo_).ok());
  ASSERT_TRUE(b_->Start({}, &sched_b_, slo_).ok());

  // Three tokens on A: the prefill's first token, then two decodes.
  const double a1 = StepExecuted(a_.get());
  const double a2 = StepExecuted(a_.get());
  const double a3 = StepExecuted(a_.get());
  // Recompute preemption: the cache is discarded, the request requeues.
  sched_a_.preempt = {1};
  ASSERT_TRUE(a_->Step().ok());
  ASSERT_EQ(a_->MigratableWaiting(), std::vector<RequestId>{1});

  auto moved = a_->Extract(1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_TRUE(b_->Receive(std::move(*moved), a_->now()).ok());
  ASSERT_TRUE(b_->Step().ok());  // fast-forward to the availability
  // The resume prefill on B recomputes the cache and emits token four.
  const double b4 = StepExecuted(b_.get());
  const double b5 = StepExecuted(b_.get());
  Drain(b_.get());

  auto result_a = a_->Finish();
  auto result_b = b_->Finish();
  ASSERT_TRUE(result_a.ok() && result_b.ok());
  EXPECT_EQ(result_a->records.count(1), 0u);
  const RequestRecord& rec = result_b->records.at(1);
  EXPECT_EQ(rec.ttft, a1);
  ASSERT_EQ(rec.tbt_samples.size(), 5u);
  EXPECT_EQ(rec.tbt_samples[0], a2 - a1);
  EXPECT_EQ(rec.tbt_samples[1], a3 - a2);
  // The first gap on B spans the preemption and the move.
  EXPECT_GT(b4, a3);
  EXPECT_EQ(rec.tbt_samples[2], b4 - a3);
  EXPECT_EQ(rec.tbt_samples[3], b5 - b4);
}

TEST_F(MigrationClockTest, RequestMovedBeforeItsFirstTokenCarriesNoTbt) {
  const Request r = Make(2, 0.25, 64, 2);
  ASSERT_TRUE(a_->Start({r}, &sched_a_, slo_).ok());
  ASSERT_TRUE(b_->Start({}, &sched_b_, slo_).ok());
  sched_a_.hold = {2};
  ASSERT_TRUE(a_->Step().ok());  // fast-forward to the arrival
  ASSERT_TRUE(a_->Step().ok());  // held: an idle iteration on A

  auto moved = a_->Extract(2);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_LT(moved->record.ttft, 0.0);
  EXPECT_TRUE(moved->record.tbt_samples.empty());
  ASSERT_TRUE(b_->Receive(std::move(*moved), a_->now()).ok());
  ASSERT_TRUE(b_->Step().ok());  // fast-forward to the availability
  const double b1 = StepExecuted(b_.get());
  const double b2 = StepExecuted(b_.get());
  ASSERT_TRUE(b_->AllServed());

  auto result_a = a_->Finish();
  auto result_b = b_->Finish();
  ASSERT_TRUE(result_a.ok() && result_b.ok());
  const RequestRecord& rec = result_b->records.at(2);
  EXPECT_EQ(rec.ttft, b1 - r.arrival);
  ASSERT_EQ(rec.tbt_samples.size(), 1u);
  EXPECT_EQ(rec.tbt_samples[0], b2 - b1);
}

// Extract releases the sender's slot: however often a request bounces
// between two instances, each keeps slots only for the requests it owns.
TEST_F(MigrationClockTest, BouncedRequestLeavesNoSlotBehind) {
  ASSERT_TRUE(
      a_->Start({Make(1, 0.0, 64, 2), Make(3, 0.0, 32, 2)}, &sched_a_, slo_)
          .ok());
  ASSERT_TRUE(b_->Start({}, &sched_b_, slo_).ok());
  sched_a_.hold = {1};
  sched_b_.hold = {1};
  StepExecuted(a_.get());  // request 3's prefill
  StepExecuted(a_.get());  // and its last decode
  ASSERT_EQ(a_->NumServed(), 1);

  ServingLoopState* from = a_.get();
  ServingLoopState* to = b_.get();
  for (int32_t hop = 0; hop < 50; ++hop) {
    auto moved = from->Extract(1);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ASSERT_TRUE(to->Receive(std::move(*moved), to->now()).ok());
    // A owns finished request 3 throughout; the holder also owns 1.
    const auto owned = [&](const ServingLoopState* s) {
      return size_t{s == a_.get()} + size_t{s == to};
    };
    EXPECT_LE(from->NumRegistered(), owned(from)) << "hop " << hop;
    EXPECT_LE(to->NumRegistered(), owned(to)) << "hop " << hop;
    EXPECT_TRUE(from->MigratableWaiting().empty()) << "hop " << hop;
    EXPECT_EQ(to->MigratableWaiting(), std::vector<RequestId>{1});
    std::swap(from, to);
  }
  // After an even number of hops request 1 is home; B owns nothing but
  // still closes its run.
  EXPECT_EQ(b_->NumRegistered(), 0u);
  EXPECT_TRUE(b_->AllServed());
  EXPECT_TRUE(b_->EverRegistered());
  sched_a_.hold.clear();
  Drain(a_.get());
  auto result_a = a_->Finish();
  auto result_b = b_->Finish();
  ASSERT_TRUE(result_a.ok() && result_b.ok());
  EXPECT_EQ(result_a->records.size(), 2u);
  EXPECT_TRUE(result_b->records.empty());
}

}  // namespace
}  // namespace aptserve
