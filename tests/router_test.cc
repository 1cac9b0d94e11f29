// Fleet Router tests: legacy-policy parity (the router must reproduce the
// pre-router dispatch bit-for-bit, pinned against a copy of the old
// implementation kept as a second reference), the new least-outstanding-work and
// prefix-affinity policies, SLO admission control, and the cross-backend
// agreement of routed fleets (via tests/backend_diff_util.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "backend_diff_util.h"
#include "baselines/fcfs_scheduler.h"
#include "common/rng.h"
#include "serve/cost_model_backend.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "serve/router.h"
#include "workload/shared_prefix.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

// ---------------------------------------------------------------------------
// The pre-router dispatch pass (the original round-robin / least-loaded /
// power-of-two implementation), kept as an independent reference.
// ---------------------------------------------------------------------------

std::vector<int32_t> LegacyDispatchTrace(const std::vector<Request>& trace,
                                         RoutePolicy policy, int32_t n,
                                         double load_window_s,
                                         uint64_t dispatch_seed) {
  std::vector<int32_t> assignment(trace.size(), 0);
  if (n == 1) return assignment;

  std::vector<std::deque<std::pair<TimePoint, int64_t>>> window(n);
  std::vector<int64_t> backlog(n, 0);
  Rng rng(dispatch_seed);

  auto expire = [&](TimePoint now) {
    for (int32_t i = 0; i < n; ++i) {
      while (!window[i].empty() &&
             window[i].front().first < now - load_window_s) {
        backlog[i] -= window[i].front().second;
        window[i].pop_front();
      }
    }
  };
  auto assign = [&](size_t req_idx, int32_t inst) {
    assignment[req_idx] = inst;
    window[inst].emplace_back(trace[req_idx].arrival,
                              trace[req_idx].prompt_len);
    backlog[inst] += trace[req_idx].prompt_len;
  };

  for (size_t r = 0; r < trace.size(); ++r) {
    expire(trace[r].arrival);
    switch (policy) {
      case RoutePolicy::kRoundRobin:
        assign(r, static_cast<int32_t>(r % n));
        break;
      case RoutePolicy::kLeastLoaded: {
        int32_t best = 0;
        for (int32_t i = 1; i < n; ++i) {
          if (backlog[i] < backlog[best]) best = i;
        }
        assign(r, best);
        break;
      }
      case RoutePolicy::kPowerOfTwo: {
        const int32_t a = static_cast<int32_t>(rng.UniformInt(0, n - 1));
        int32_t b = static_cast<int32_t>(rng.UniformInt(0, n - 2));
        if (b >= a) ++b;
        assign(r, backlog[a] <= backlog[b] ? a : b);
        break;
      }
      default:
        ADD_FAILURE() << "no pre-router policy " << RoutePolicyName(policy);
        return assignment;
    }
  }
  return assignment;
}

CostModel Opt13() {
  const ModelSpec m = ModelSpec::Opt13B();
  return CostModel(m, ClusterSpec::ForModel(m));
}

std::vector<Request> MakeTrace(double rate, int n, uint64_t seed = 6) {
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = n;
  tc.rate_per_sec = rate;
  tc.seed = seed;
  auto t = BuildTrace(tc);
  EXPECT_TRUE(t.ok());
  return *t;
}

std::vector<Request> ConversationTrace(int32_t fan_out, int32_t turns = 4,
                                       int32_t tokens_per_turn = 16,
                                       int32_t system_prompt = 16) {
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = system_prompt;
  cfg.num_conversations = fan_out;
  cfg.turns_per_conversation = turns;
  cfg.tokens_per_turn = tokens_per_turn;
  cfg.output_len_mean = 4;
  cfg.vocab_size = ModelConfig::Tiny().vocab_size;
  cfg.think_time_s = 2.0;
  cfg.conversation_stagger_s = 0.25;
  auto trace = BuildSharedPrefixTrace(cfg);
  EXPECT_TRUE(trace.ok());
  return *trace;
}

BackendFactory CostBackendFactory(const CostModel& cm, bool sharing,
                                  int32_t block_size = 4,
                                  int32_t pool_blocks = 512) {
  return [&cm, sharing, block_size,
          pool_blocks](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.block_size = block_size;
    o.pool_blocks_override = pool_blocks;
    o.enable_prefix_sharing = sharing;
    o.token_vocab = ModelConfig::Tiny().vocab_size;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, o));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
}

BackendFactory EngineBackendFactory(bool sharing, int32_t block_size = 4,
                                    int32_t pool_blocks = 512) {
  return [sharing, block_size,
          pool_blocks](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions o;
    o.virtual_timing = true;
    o.enable_prefix_sharing = sharing;
    return std::unique_ptr<ExecutionBackend>(
        std::make_unique<InferenceBackend>(ModelConfig::Tiny(),
                                           /*weight_seed=*/42, pool_blocks,
                                           block_size, SamplingParams{}, o));
  };
}

// ---------------------------------------------------------------------------
// Legacy-policy parity.
// ---------------------------------------------------------------------------

class LegacyPolicyParity : public ::testing::TestWithParam<RoutePolicy> {};

TEST_P(LegacyPolicyParity, RouterReproducesPrePrDispatchBitForBit) {
  RouterConfig cfg;
  cfg.policy = GetParam();
  cfg.load_window_s = 30.0;
  cfg.dispatch_seed = 99;
  for (int32_t n : {1, 2, 3, 5}) {
    cfg.n_instances = n;
    for (double rate : {0.5, 8.0, 50.0}) {
      const auto trace = MakeTrace(rate, 160, 7 + n);
      const auto legacy = LegacyDispatchTrace(
          trace, cfg.policy, n, cfg.load_window_s, cfg.dispatch_seed);
      // A Router built from the same settings (admission off) must agree
      // with the pre-router implementation.
      const RouteDecision d = Router(cfg).Route(trace);
      EXPECT_EQ(legacy, d.assignment);
      EXPECT_EQ(d.rejected, 0);
      EXPECT_EQ(d.admitted, static_cast<int64_t>(trace.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, LegacyPolicyParity,
                         ::testing::Values(RoutePolicy::kRoundRobin,
                                           RoutePolicy::kLeastLoaded,
                                           RoutePolicy::kPowerOfTwo),
                         [](const auto& info) {
                           switch (info.param) {
                             case RoutePolicy::kRoundRobin:
                               return "RoundRobin";
                             case RoutePolicy::kLeastLoaded:
                               return "LeastLoaded";
                             default:
                               return "PowerOfTwo";
                           }
                         });

// ---------------------------------------------------------------------------
// Least-outstanding-work.
// ---------------------------------------------------------------------------

TEST(RouterPolicyTest, LeastOutstandingWorkAvoidsTheBusyInstance) {
  // One huge request lands on instance 0; the following burst must drain
  // to instance 1 until the predicted backlogs equalize.
  std::vector<Request> trace;
  Request big;
  big.id = 0;
  big.prompt_len = 4000;
  big.output_len = 64;
  big.arrival = 0.0;
  trace.push_back(big);
  for (int i = 1; i <= 6; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = 32;
    r.output_len = 8;
    r.arrival = 0.001 * i;  // well inside the big request's service time
    trace.push_back(r);
  }

  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kLeastOutstandingWork;
  rc.default_output_len = 8.0;  // estimates track prompt size, not decode
  const CostModel cm = Opt13();
  const Router router(rc, &cm);
  const RouteDecision d = router.Route(trace);
  EXPECT_EQ(d.assignment[0], 0);
  // The burst starts on the idle instance...
  EXPECT_EQ(d.assignment[1], 1);
  EXPECT_EQ(d.assignment[2], 1);
  // ...and LOW balances *predicted seconds*: the gap between the two
  // instances' routed work never exceeds one request's service time.
  double work[2] = {0.0, 0.0};
  double max_service = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const double s = router.EstimatedServiceSeconds(trace[i]);
    work[d.assignment[i]] += s;
    max_service = std::max(max_service, s);
  }
  EXPECT_LE(std::abs(work[0] - work[1]), max_service);
}

TEST(RouterPolicyTest, LeastOutstandingWorkUsesThePredictor) {
  // Same prompt lengths, but a predictor trained to expect very long
  // outputs for them inflates the work estimate; the router must still
  // balance (alternate) instead of dog-piling one instance.
  OutputLengthPredictor predictor;
  for (int i = 0; i < 50; ++i) predictor.Observe(64, 512);

  std::vector<Request> trace;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = 64;
    r.output_len = 8;
    r.arrival = 0.01 * i;
    trace.push_back(r);
  }
  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kLeastOutstandingWork;
  const CostModel cm = Opt13();
  const Router with(rc, &cm, &predictor);
  const Router without(rc, &cm);
  // Predicted service time grows with the trained output length.
  EXPECT_GT(with.EstimatedServiceSeconds(trace[0]),
            without.EstimatedServiceSeconds(trace[0]));
  const RouteDecision d = with.Route(trace);
  int32_t per[2] = {0, 0};
  for (int32_t a : d.assignment) ++per[a];
  EXPECT_EQ(per[0], 4);
  EXPECT_EQ(per[1], 4);
}

// ---------------------------------------------------------------------------
// Prefix affinity.
// ---------------------------------------------------------------------------

TEST(RouterPolicyTest, PrefixAffinityKeepsConversationsTogether) {
  // Turns of one conversation share a growing prefix; affinity must pin
  // every turn after the first to the first turn's instance.
  const auto trace = ConversationTrace(/*fan_out=*/5);
  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  rc.affinity_max_imbalance_s = 1e9;  // no cap: pure affinity
  const CostModel cm = Opt13();
  const RouteDecision d = Router(rc, &cm).Route(trace);

  // Group turns by conversation via their shared growing prefix: the
  // trace generator emits fan_out conversations whose turn k prompt
  // length is system + (k+1)*turn_tokens.
  std::map<std::vector<int32_t>, std::set<int32_t>> conv_instances;
  for (size_t i = 0; i < trace.size(); ++i) {
    std::vector<int32_t> conv_key(trace[i].token_ids.begin(),
                                  trace[i].token_ids.begin() + 20);
    conv_instances[conv_key].insert(d.assignment[i]);
  }
  EXPECT_EQ(conv_instances.size(), 5u);
  for (const auto& [key, instances] : conv_instances) {
    (void)key;
    EXPECT_EQ(instances.size(), 1u)
        << "a conversation was split across instances";
  }
}

TEST(RouterPolicyTest, AffinityImbalanceCapSpreadsAHotPrefix) {
  // Every request shares the same long prefix. Unbounded affinity piles
  // everything on instance 0; the cap forces spill to other instances.
  std::vector<Request> trace;
  Rng rng(3);
  std::vector<int32_t> shared;
  for (int i = 0; i < 64; ++i) {
    shared.push_back(static_cast<int32_t>(rng.UniformInt(0, 1000)));
  }
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = 72;
    r.token_ids = shared;
    for (int j = 0; j < 8; ++j) {
      r.token_ids.push_back(static_cast<int32_t>(rng.UniformInt(0, 1000)));
    }
    r.output_len = 16;
    r.arrival = 0.01 * i;
    trace.push_back(r);
  }

  RouterConfig rc;
  rc.n_instances = 4;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  const CostModel cm = Opt13();

  rc.affinity_max_imbalance_s = 1e9;
  const RouteDecision uncapped = Router(rc, &cm).Route(trace);
  std::set<int32_t> uncapped_used(uncapped.assignment.begin(),
                                  uncapped.assignment.end());
  EXPECT_EQ(uncapped_used.size(), 1u) << "pure affinity should funnel";

  rc.affinity_max_imbalance_s = 0.05;
  const RouteDecision capped = Router(rc, &cm).Route(trace);
  std::set<int32_t> capped_used(capped.assignment.begin(),
                                capped.assignment.end());
  EXPECT_GT(capped_used.size(), 1u) << "the cap must force spill";
}

TEST(RouterPolicyTest, AffinityWithoutTokenIdsFallsBackToLeastWork) {
  const auto trace = MakeTrace(10.0, 40, 5);  // length-only trace
  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kPrefixAffinity;
  const CostModel cm = Opt13();
  const RouteDecision affinity = Router(rc, &cm).Route(trace);
  rc.policy = RoutePolicy::kLeastOutstandingWork;
  const RouteDecision low = Router(rc, &cm).Route(trace);
  EXPECT_EQ(affinity.assignment, low.assignment);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(RouterAdmissionTest, RejectsRequestsThatCannotMeetTheirDeadline) {
  // A wall of work, then a request with an impossible deadline.
  std::vector<Request> trace;
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = 2000;
    r.output_len = 64;
    r.arrival = 0.001 * i;
    trace.push_back(r);
  }
  Request tight;
  tight.id = 4;
  tight.prompt_len = 256;
  tight.output_len = 8;
  tight.arrival = 0.01;
  tight.slo_ttft_s = 1e-4;  // cannot be met behind any backlog
  trace.push_back(tight);

  RouterConfig rc;
  rc.n_instances = 1;
  rc.policy = RoutePolicy::kLeastOutstandingWork;
  rc.admission = AdmissionMode::kReject;
  rc.default_slo = SloSpec{1e9, 1e9};  // only the tight request can fail
  const CostModel cm = Opt13();
  const RouteDecision d = Router(rc, &cm).Route(trace);
  EXPECT_EQ(d.rejected, 1);
  EXPECT_EQ(d.assignment[4], RouteDecision::kRejected);
  EXPECT_EQ(d.admitted, 4);
}

TEST(RouterAdmissionTest, SpillsToIdleInstanceBeforeRejecting) {
  // Round-robin would bounce request 2 back to the busy instance 0; with
  // admission on, the predicted deadline miss must spill it to the idle
  // instance 1 instead of turning it away.
  std::vector<Request> trace;
  Request big;
  big.id = 0;
  big.prompt_len = 4000;
  big.output_len = 64;
  big.arrival = 0.0;
  trace.push_back(big);
  Request small1;
  small1.id = 1;
  small1.prompt_len = 32;
  small1.output_len = 8;
  small1.arrival = 0.001;
  trace.push_back(small1);
  Request small2 = small1;  // round-robin target: the busy instance 0
  small2.id = 2;
  small2.arrival = 0.002;
  small2.slo_ttft_s = 0.5;  // misses behind `big`, fine on an idle instance
  trace.push_back(small2);

  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kRoundRobin;
  rc.admission = AdmissionMode::kReject;
  rc.default_slo = SloSpec{1e9, 1e9};
  rc.default_output_len = 8.0;
  const CostModel cm = Opt13();
  const RouteDecision d = Router(rc, &cm).Route(trace);
  EXPECT_EQ(d.rejected, 0);
  EXPECT_EQ(d.assignment[0], 0);
  EXPECT_EQ(d.assignment[1], 1);
  EXPECT_EQ(d.assignment[2], 1) << "deadline miss must spill, not reject";
}

TEST(RouterAdmissionTest, RejectionsFoldIntoFleetAttainmentAndGoodput) {
  const SloSpec slo{1.0, 1.0};
  const CostModel cm = Opt13();
  auto trace = MakeTrace(4.0, 60, 12);
  // Give half the trace an impossible per-request deadline.
  for (size_t i = 0; i < trace.size(); i += 2) trace[i].slo_ttft_s = 1e-7;

  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kLeastOutstandingWork;
  rc.admission = AdmissionMode::kReject;
  // Untagged requests have an unmissable default deadline, so exactly the
  // tagged half is rejected (no backlog cascade in this pin).
  rc.default_slo = SloSpec{1e9, 1e9};
  MultiInstanceRunner runner(Router(rc, &cm), ServingLoopConfig{});
  auto result =
      runner.Run(trace, [] { return std::make_unique<FcfsScheduler>(); },
                 CostBackendFactory(cm, false, 16, -1), slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->rejected_requests, 30);
  EXPECT_EQ(result->combined.rejected_requests, 30);
  // No request lost: admitted shards + rejected == trace.
  int64_t admitted = 0;
  for (int32_t c : result->requests_per_instance) admitted += c;
  EXPECT_EQ(admitted + result->rejected_requests,
            static_cast<int64_t>(trace.size()));
  // Rejected requests are attainment misses: the folded attainment is the
  // per-served attainment scaled by served / total.
  EXPECT_LE(result->combined.slo_attainment, 0.5);
  EXPECT_GT(result->combined.goodput_rps, 0.0);
}

TEST(RouterAdmissionTest, DeprioritizeServesBestEffort) {
  const SloSpec slo{1.0, 1.0};
  const CostModel cm = Opt13();
  auto trace = MakeTrace(4.0, 40, 12);
  for (size_t i = 0; i < trace.size(); i += 2) trace[i].slo_ttft_s = 1e-7;

  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kLeastOutstandingWork;
  rc.admission = AdmissionMode::kDeprioritize;
  rc.default_slo = SloSpec{1e9, 1e9};  // only the tagged half deprioritizes
  MultiInstanceRunner runner(Router(rc, &cm), ServingLoopConfig{});
  auto result =
      runner.Run(trace, [] { return std::make_unique<FcfsScheduler>(); },
                 CostBackendFactory(cm, false, 16, -1), slo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Everyone is served; the deprioritized half is excluded from
  // attainment/goodput but still produces latency samples.
  EXPECT_EQ(result->rejected_requests, 0);
  EXPECT_EQ(result->deprioritized_requests, 20);
  EXPECT_EQ(result->combined.best_effort_requests, 20);
  EXPECT_EQ(result->combined.eligible_requests, 20);
  int64_t admitted = 0;
  for (int32_t c : result->requests_per_instance) admitted += c;
  EXPECT_EQ(admitted, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(result->combined.ttfts.count(), trace.size());
}

// ---------------------------------------------------------------------------
// Routed fleets across backends (uses the differential harness).
// ---------------------------------------------------------------------------

TEST(RouterFleetTest, AffinityBeatsRoundRobinOnPrefillTokens) {
  // The acceptance-criterion shape at test scale: prefix-affinity must cut
  // computed prefill tokens by >= 1.5x vs round-robin on a shared-prefix
  // fleet workload (both fleets share-enabled, cost-model backend).
  const auto trace = ConversationTrace(/*fan_out=*/5);
  const CostModel cm = Opt13();
  const SloSpec slo{10.0, 10.0};

  auto run = [&](RoutePolicy policy) {
    RouterConfig rc;
    rc.n_instances = 2;
    rc.policy = policy;
    rc.block_size = 4;
    MultiInstanceRunner runner(Router(rc, &cm), ServingLoopConfig{});
    auto result =
        runner.Run(trace, [] { return std::make_unique<FcfsScheduler>(); },
                   CostBackendFactory(cm, true), slo);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  };

  const MultiInstanceResult rr = run(RoutePolicy::kRoundRobin);
  const MultiInstanceResult aff = run(RoutePolicy::kPrefixAffinity);
  ASSERT_GT(rr.prefill_tokens_computed, 0);
  ASSERT_GT(aff.prefill_tokens_skipped, rr.prefill_tokens_skipped);
  const double reduction =
      static_cast<double>(rr.prefill_tokens_computed) /
      static_cast<double>(aff.prefill_tokens_computed);
  EXPECT_GE(reduction, 1.5) << "affinity reduction " << reduction << "x";
}

TEST(RouterFleetTest, RoutedShardsAgreeAcrossBackends) {
  // Route once (routing is backend-independent), then run every shard
  // through the differential harness: completion order, prefill skips and
  // PrefixStats must match between the analytic and engine backends.
  const auto trace = ConversationTrace(/*fan_out=*/3, /*turns=*/3,
                                       /*tokens_per_turn=*/8,
                                       /*system_prompt=*/16);
  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  const CostModel cm = Opt13();
  const RouteDecision d = Router(rc, &cm).Route(trace);

  for (int32_t inst = 0; inst < rc.n_instances; ++inst) {
    std::vector<Request> shard;
    for (size_t i = 0; i < trace.size(); ++i) {
      if (d.assignment[i] == inst) shard.push_back(trace[i]);
    }
    if (shard.empty()) continue;
    testing_util::DiffOptions opts;
    opts.block_size = 4;
    opts.pool_blocks = 256;
    auto diff = testing_util::RunBackendDiff(shard, opts);
    ASSERT_TRUE(diff.ok()) << diff.status().ToString();
    testing_util::ExpectBackendAgreement(*diff);
  }
}

TEST(RouterFleetTest, FleetPrefixStatsIdenticalAcrossBackends) {
  // Whole-fleet version: run the same routed trace on a cost-model fleet
  // and an engine fleet; fleet-level and per-instance PrefixStats must be
  // identical (the acceptance criterion's cross-backend clause).
  const auto trace = ConversationTrace(/*fan_out=*/3, /*turns=*/3,
                                       /*tokens_per_turn=*/8,
                                       /*system_prompt=*/16);
  const CostModel cm = Opt13();
  const SloSpec slo{10.0, 10.0};
  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  MultiInstanceRunner runner(Router(rc, &cm), ServingLoopConfig{});

  auto cost = runner.Run(trace,
                         [] { return std::make_unique<FcfsScheduler>(); },
                         CostBackendFactory(cm, true, 4, 256), slo);
  auto engine = runner.Run(trace,
                           [] { return std::make_unique<FcfsScheduler>(); },
                           EngineBackendFactory(true, 4, 256), slo);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  EXPECT_EQ(cost->requests_per_instance, engine->requests_per_instance);
  EXPECT_EQ(cost->prefill_tokens_skipped, engine->prefill_tokens_skipped);
  EXPECT_EQ(cost->prefix.lookups, engine->prefix.lookups);
  EXPECT_EQ(cost->prefix.hits, engine->prefix.hits);
  EXPECT_EQ(cost->prefix.matched_tokens, engine->prefix.matched_tokens);
  EXPECT_EQ(cost->prefix.shared_blocks, engine->prefix.shared_blocks);
  EXPECT_EQ(cost->prefix.cow_matches, engine->prefix.cow_matches);
  for (int32_t i = 0; i < rc.n_instances; ++i) {
    EXPECT_EQ(cost->prefix_per_instance[i].hits,
              engine->prefix_per_instance[i].hits)
        << "instance " << i;
    EXPECT_EQ(cost->prefix_per_instance[i].matched_tokens,
              engine->prefix_per_instance[i].matched_tokens)
        << "instance " << i;
  }
}

}  // namespace
}  // namespace aptserve
