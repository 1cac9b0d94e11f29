// ServingLoopState's live queue counts. NumWaiting/NumRunning are derived
// from the admission queue plus the not-yet-available requests; this suite
// recounts both by brute force over every registered slot after each
// Step, Inject, Extract and Receive (and the migration candidates, in
// registration order) of a two-instance run that covers
// swap-mode preemption (swap-out and swap-in), finishes, mid-run
// injection and live migration in both directions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"

namespace aptserve {

struct ServingLoopStateTestPeer {
  /// (waiting, running) over every slot (migrated-out ones are released).
  static std::pair<int32_t, int32_t> BruteForceCounts(
      const ServingLoopState& s) {
    int32_t waiting = 0, running = 0;
    for (const auto& slot : s.slots_) {
      if (slot->sr.phase == RequestPhase::kWaiting) ++waiting;
      if (slot->sr.phase == RequestPhase::kRunning) ++running;
    }
    return {waiting, running};
  }

  /// MigratableWaiting's answer by a scan of every owned slot, which are
  /// kept in registration order.
  static std::vector<RequestId> BruteForceMigratable(
      const ServingLoopState& s) {
    std::vector<RequestId> ids;
    for (const auto& slot : s.slots_) {
      if (slot->sr.phase == RequestPhase::kWaiting && !slot->sr.swapped) {
        ids.push_back(slot->sr.spec.id);
      }
    }
    return ids;
  }
};

namespace {

/// Schedules everything it sees; every `period`-th call it also preempts
/// the most recently admitted running request with its own cache type,
/// which swap mode turns into a swap-out (and a later swap-in).
class SwappingScheduler : public Scheduler {
 public:
  explicit SwappingScheduler(int32_t period) : period_(period) {}

  BatchPlan PlanIteration(const SchedulerInput& input) override {
    BatchPlan plan;
    const SimRequest* victim = nullptr;
    if (++calls_ % period_ == 0 && !input.running.empty()) {
      victim = input.running.back();
      plan.preempt.push_back({victim->spec.id, victim->cache_type});
    }
    for (const SimRequest* r : input.running) {
      if (r != victim) plan.items.push_back({r->spec.id, r->cache_type, 0});
    }
    for (const SimRequest* w : input.waiting) {
      const int32_t remaining = w->PrefillTarget() - w->prefill_progress;
      plan.items.push_back({w->spec.id, w->cache_type,
                            std::max(remaining, 1)});
    }
    return plan;
  }

  std::string name() const override { return "swapping-test"; }

 private:
  int32_t period_;
  int64_t calls_ = 0;
};

Request Make(RequestId id, double arrival, int32_t prompt, int32_t output) {
  Request r;
  r.id = id;
  r.prompt_len = prompt;
  r.output_len = output;
  r.arrival = arrival;
  return r;
}

void ExpectCountsMatch(const ServingLoopState& s, const char* where) {
  const auto [waiting, running] = ServingLoopStateTestPeer::BruteForceCounts(s);
  EXPECT_EQ(s.NumWaiting(), waiting) << where;
  EXPECT_EQ(s.NumRunning(), running) << where;
  EXPECT_EQ(s.MigratableWaiting(),
            ServingLoopStateTestPeer::BruteForceMigratable(s))
      << where;
  EXPECT_EQ(s.NumUnfinished(), waiting + running) << where;
}

TEST(ServingLoopQueueTest, LiveCountsMatchBruteForceThroughSwapAndMigration) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 64;  // a few requests fill it: memory walls
  auto backend_a = CostModelBackend::Create(cm, opts);
  auto backend_b = CostModelBackend::Create(cm, opts);
  ASSERT_TRUE(backend_a.ok() && backend_b.ok());
  ServingLoopConfig loop;
  loop.preemption_mode = PreemptionMode::kSwap;
  ServingLoopState a(backend_a->get(), loop);
  ServingLoopState b(backend_b->get(), loop);

  // A: a burst at t=0 plus a tail still pending when the run starts.
  std::vector<Request> trace_a;
  for (int32_t i = 0; i < 12; ++i) trace_a.push_back(Make(i, 0.0, 100, 30));
  for (int32_t i = 12; i < 20; ++i) {
    trace_a.push_back(Make(i, 0.05 * (i - 11), 60, 20));
  }
  std::vector<Request> trace_b = {Make(100, 0.0, 80, 25),
                                  Make(101, 0.1, 80, 25)};
  SwappingScheduler sched_a(4), sched_b(5);
  const SloSpec slo{10.0, 10.0};
  ASSERT_TRUE(a.Start(trace_a, &sched_a, slo).ok());
  ASSERT_TRUE(b.Start(trace_b, &sched_b, slo).ok());
  ExpectCountsMatch(a, "A after Start");
  ExpectCountsMatch(b, "B after Start");

  int64_t migrations = 0, injected = 0;
  RequestId next_id = 200;
  // Moves the first migratable request of `from` onto `to`.
  const auto migrate = [&](ServingLoopState& from, ServingLoopState& to) {
    const std::vector<RequestId> ids = from.MigratableWaiting();
    if (ids.empty()) return;
    auto moved = from.Extract(ids.front());
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ExpectCountsMatch(from, "after Extract");
    ASSERT_TRUE(to.Receive(std::move(*moved), to.now()).ok());
    ExpectCountsMatch(to, "after Receive");
    ++migrations;
  };

  for (int32_t round = 0; round < 20000; ++round) {
    if (a.AllServed() && b.AllServed()) break;
    for (ServingLoopState* s : {&a, &b}) {
      if (s->AllServed()) continue;
      auto progress = s->Step();
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      ExpectCountsMatch(*s, "after Step");
    }
    if (round % 7 == 3) migrate(a, b);
    if (round % 11 == 5) migrate(b, a);
    if (round % 13 == 0 && injected < 10) {
      // Available a little ahead of A's clock: pending, then admitted.
      const Request r = Make(next_id++, a.now() + 0.02, 50, 15);
      ASSERT_TRUE(a.Inject(r, r.arrival, r.arrival).ok());
      ExpectCountsMatch(a, "after Inject");
      ++injected;
    }
  }
  ASSERT_TRUE(a.AllServed());
  ASSERT_TRUE(b.AllServed());
  EXPECT_EQ(a.NumWaiting() + a.NumRunning(), 0);
  EXPECT_EQ(b.NumWaiting() + b.NumRunning(), 0);
  EXPECT_GT(migrations, 0);
  EXPECT_EQ(injected, 10);

  auto result_a = a.Finish();
  auto result_b = b.Finish();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();
  EXPECT_GT(result_a->swap_outs + result_b->swap_outs, 0)
      << "the run must exercise swap-mode preemption";
  EXPECT_EQ(result_a->swap_outs, result_a->swap_ins);
  EXPECT_EQ(result_b->swap_outs, result_b->swap_ins);
}

}  // namespace
}  // namespace aptserve
