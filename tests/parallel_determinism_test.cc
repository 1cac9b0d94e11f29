// The runtime layer's determinism contract: with virtual timing, token
// streams, latency samples and SLO reports are bit-identical across thread
// counts — parallel batch execution must be observationally equivalent to
// the serial engine. Same for the multi-instance fleet: a parallel fleet
// run merges to exactly the serial fleet's report.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "serve/serving_loop.h"
#include "sim/cluster_spec.h"
#include "sim/cost_model.h"
#include "sim/model_spec.h"
#include "workload/arrival.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

std::vector<Request> TinyTrace(int32_t n, double rate, uint64_t seed = 4) {
  Rng rng(seed);
  auto arrivals = PoissonArrivals(rate, n, &rng);
  EXPECT_TRUE(arrivals.ok());
  std::vector<Request> trace;
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 24));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 12));
    r.arrival = (*arrivals)[i];
    trace.push_back(r);
  }
  return trace;
}

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

/// Serves `trace` on a fresh Tiny engine (weight seed 42, `num_blocks`
/// blocks of 8, `num_threads` runtime threads) with virtual timing and no
/// rho calibration. Finished token streams land in `tokens`.
StatusOr<ServingLoopResult> Serve(
    const std::vector<Request>& trace, Scheduler* sched, int32_t num_threads,
    TokenMap* tokens, int32_t num_blocks = 96,
    PreemptionMode preemption_mode = PreemptionMode::kRecompute,
    const SamplingParams& sampling = SamplingParams{}) {
  InferenceBackendOptions opts;
  opts.virtual_timing = true;
  opts.runtime.num_threads = num_threads;
  InferenceBackend backend(ModelConfig::Tiny(), /*weight_seed=*/42,
                           num_blocks, /*block_size=*/8, sampling, opts);
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  loop.max_iterations = 2'000'000;
  loop.preemption_mode = preemption_mode;
  auto result =
      ServingLoop(&backend, loop).Run(trace, sched, SloSpec{5.0, 5.0});
  *tokens = backend.TakeFinishedTokens();
  return result;
}

std::unique_ptr<Scheduler> Make(const std::string& kind, const SloSpec& slo) {
  if (kind == "fcfs") return std::make_unique<FcfsScheduler>();
  if (kind == "sarathi") {
    SarathiConfig c;
    c.token_budget = 64;
    c.chunk_size = 16;
    return std::make_unique<SarathiScheduler>(c);
  }
  AptConfig c;
  c.slo = slo;
  c.max_prefill_tokens = 128;
  return std::make_unique<AptScheduler>(c);
}

void ExpectIdenticalRuns(const ServingLoopResult& a, const TokenMap& a_tokens,
                         const ServingLoopResult& b, const TokenMap& b_tokens) {
  ASSERT_EQ(a_tokens.size(), b_tokens.size());
  for (const auto& [id, toks] : a_tokens) {
    auto it = b_tokens.find(id);
    ASSERT_NE(it, b_tokens.end());
    EXPECT_EQ(toks, it->second) << "tokens diverged for request " << id;
  }
  EXPECT_EQ(a.tokens_generated, b.tokens_generated);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.report.preemptions, b.report.preemptions);
  EXPECT_EQ(a.swap_outs, b.swap_outs);
  EXPECT_EQ(a.swap_ins, b.swap_ins);
  EXPECT_EQ(a.report.iterations, b.report.iterations);
  EXPECT_EQ(a.report.total_serving_time, b.report.total_serving_time);
  EXPECT_EQ(a.report.slo_attainment, b.report.slo_attainment);
  EXPECT_EQ(a.report.ttfts.samples(), b.report.ttfts.samples());
  EXPECT_EQ(a.report.p99_tbts.samples(), b.report.p99_tbts.samples());
}

class CrossThreadCountTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrossThreadCountTest, TokensAndReportsBitIdentical) {
  const auto trace = TinyTrace(20, 50.0);
  StatusOr<ServingLoopResult> runs[2] = {Status::Internal("unset"),
                                         Status::Internal("unset")};
  TokenMap tokens[2];
  const int32_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    auto sched = Make(GetParam(), SloSpec{5.0, 5.0});
    runs[i] = Serve(trace, sched.get(), thread_counts[i], &tokens[i]);
    ASSERT_TRUE(runs[i].ok()) << runs[i].status().ToString();
  }
  ExpectIdenticalRuns(*runs[0], tokens[0], *runs[1], tokens[1]);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, CrossThreadCountTest,
                         ::testing::Values("fcfs", "sarathi", "apt"),
                         [](const auto& info) { return info.param; });

TEST(CrossThreadCountSwapTest, SwapModeBitIdentical) {
  const auto trace = TinyTrace(16, 1000.0, 9);
  StatusOr<ServingLoopResult> runs[2] = {Status::Internal("unset"),
                                         Status::Internal("unset")};
  TokenMap tokens[2];
  const int32_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    FcfsScheduler sched;
    // 24 blocks: tight, forces preemption under load.
    runs[i] = Serve(trace, &sched, thread_counts[i], &tokens[i],
                    /*num_blocks=*/24, PreemptionMode::kSwap);
    ASSERT_TRUE(runs[i].ok()) << runs[i].status().ToString();
  }
  EXPECT_GT(runs[0]->swap_outs + runs[0]->report.preemptions, 0);
  ExpectIdenticalRuns(*runs[0], tokens[0], *runs[1], tokens[1]);
}

TEST(CrossThreadCountSwapTest, StochasticSamplingBitIdentical) {
  // Non-greedy sampling consumes the shared RNG stream per emitted token;
  // the serial sampling barrier must reproduce the exact draw order.
  const auto trace = TinyTrace(12, 200.0, 5);
  StatusOr<ServingLoopResult> runs[2] = {Status::Internal("unset"),
                                         Status::Internal("unset")};
  TokenMap tokens[2];
  const int32_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    FcfsScheduler sched;
    runs[i] = Serve(trace, &sched, thread_counts[i], &tokens[i], 96,
                    PreemptionMode::kRecompute, SamplingParams::TopK(8, 0.9));
    ASSERT_TRUE(runs[i].ok()) << runs[i].status().ToString();
  }
  ExpectIdenticalRuns(*runs[0], tokens[0], *runs[1], tokens[1]);
}

TEST(ParallelFleetTest, MergedReportBitIdenticalAcrossThreadCounts) {
  TraceConfig tc;
  tc.profile = DatasetProfile::ShareGpt();
  tc.num_requests = 120;
  tc.rate_per_sec = 4.0;
  tc.seed = 33;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok());
  const SloSpec slo{1.0, 1.0};
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cm(model, ClusterSpec::ForModel(model));

  SloReport reports[2];
  const int32_t thread_counts[2] = {1, 4};
  RouterConfig rc;
  rc.n_instances = 4;
  rc.policy = RoutePolicy::kLeastLoaded;
  for (int i = 0; i < 2; ++i) {
    RuntimeConfig runtime;
    runtime.num_threads = thread_counts[i];
    MultiInstanceRunner fleet(Router(rc, &cm), ServingLoopConfig{}, runtime);
    auto result = fleet.Run(
        *trace, [] { return std::make_unique<FcfsScheduler>(); },
        [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
          APT_ASSIGN_OR_RETURN(auto b, CostModelBackend::Create(cm, {}));
          return std::unique_ptr<ExecutionBackend>(std::move(b));
        },
        slo);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reports[i] = result->combined;
  }
  EXPECT_EQ(reports[0].slo_attainment, reports[1].slo_attainment);
  EXPECT_EQ(reports[0].total_serving_time, reports[1].total_serving_time);
  EXPECT_EQ(reports[0].iterations, reports[1].iterations);
  EXPECT_EQ(reports[0].mean_ttft, reports[1].mean_ttft);
  EXPECT_EQ(reports[0].ttfts.samples(), reports[1].ttfts.samples());
  EXPECT_EQ(reports[0].p99_tbts.samples(), reports[1].p99_tbts.samples());
}

TEST(EngineBatchApiTest, ExecuteStepsMatchesSerialSteps) {
  // Drive the engine's batch API directly: N requests prefilled then
  // decoded in lockstep batches must emit exactly the tokens of the
  // one-by-one serial engine.
  const ModelConfig cfg = ModelConfig::Tiny();
  constexpr int32_t kRequests = 6;
  constexpr int32_t kDecodes = 8;

  auto run = [&](int32_t num_threads, bool batched) {
    RuntimeConfig rt;
    rt.num_threads = num_threads;
    InferenceEngine engine(cfg, 42, 128, 8, rt);
    Rng prompt_rng(7);
    for (int32_t id = 0; id < kRequests; ++id) {
      std::vector<int32_t> prompt(4 + id);
      for (int32_t& t : prompt) {
        t = static_cast<int32_t>(prompt_rng.UniformInt(0, cfg.vocab_size - 1));
      }
      const CacheType type =
          id % 2 == 0 ? CacheType::kKV : CacheType::kHidden;
      EXPECT_TRUE(engine.AddRequest(id, std::move(prompt), type).ok());
    }
    if (batched) {
      std::vector<PendingStep> steps;
      for (int32_t id = 0; id < kRequests; ++id) {
        auto s = engine.PreparePrefillChunk(id, 1 << 20);
        EXPECT_TRUE(s.ok());
        steps.push_back(std::move(*s));
      }
      EXPECT_TRUE(engine.ExecuteSteps(&steps).ok());
      for (int32_t d = 0; d < kDecodes; ++d) {
        std::vector<PendingStep> batch;
        for (int32_t id = 0; id < kRequests; ++id) {
          auto s = engine.PrepareDecode(id);
          EXPECT_TRUE(s.ok());
          batch.push_back(std::move(*s));
        }
        EXPECT_TRUE(engine.ExecuteSteps(&batch).ok());
      }
    } else {
      for (int32_t id = 0; id < kRequests; ++id) {
        EXPECT_TRUE(engine.Prefill(id).ok());
      }
      for (int32_t d = 0; d < kDecodes; ++d) {
        for (int32_t id = 0; id < kRequests; ++id) {
          EXPECT_TRUE(engine.DecodeStep(id).ok());
        }
      }
    }
    std::vector<std::vector<int32_t>> tokens;
    for (int32_t id = 0; id < kRequests; ++id) {
      tokens.push_back(engine.Find(id)->tokens);
    }
    return tokens;
  };

  const auto serial = run(1, /*batched=*/false);
  const auto batched_serial = run(1, /*batched=*/true);
  const auto batched_parallel = run(4, /*batched=*/true);
  EXPECT_EQ(serial, batched_serial);
  EXPECT_EQ(serial, batched_parallel);
}

}  // namespace
}  // namespace aptserve
