// Compiles the umbrella header and exercises a minimal end-to-end flow
// through it — guards the public API surface against bitrot.
#include "src/apt_serve.h"

#include <gtest/gtest.h>

namespace aptserve {
namespace {

/// One serving instance: the shared loop over a fresh analytic backend.
StatusOr<ServingLoopResult> Simulate(const std::vector<Request>& trace,
                                     Scheduler* sched, const SloSpec& slo,
                                     const CostModelBackend::Options& opts = {}) {
  const ModelSpec model = ModelSpec::Opt13B();
  APT_ASSIGN_OR_RETURN(
      auto backend,
      CostModelBackend::Create(CostModel(model, ClusterSpec::ForModel(model)),
                               opts));
  return ServingLoop(backend.get(), ServingLoopConfig{}).Run(trace, sched, slo);
}

TEST(ApiSurfaceTest, UmbrellaHeaderEndToEnd) {
  // Workload -> scheduler -> serving loop over the analytic backend, all
  // through apt_serve.h.
  TraceConfig tc;
  tc.profile = DatasetProfile::HumanEval();
  tc.num_requests = 30;
  tc.rate_per_sec = 2.0;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok());
  const SloSpec slo{1.0, 1.0};
  AptConfig cfg;
  cfg.slo = slo;
  AptScheduler scheduler(cfg);
  auto result = Simulate(*trace, &scheduler, slo);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 30u);

  // Engine path through the same header.
  InferenceEngine engine(ModelConfig::Tiny(), 1, 32, 4);
  ASSERT_TRUE(engine.AddRequest(1, {1, 2, 3}, CacheType::kHidden).ok());
  auto tokens = engine.Generate(1, 4);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 7u);
}

// Hand-checked attention on a deliberately tiny configuration: a model
// with d_model = n_heads = 1 reduces attention at position 1 to
//   softmax(q*k0, q*k1) . (v0, v1),
// verifiable by hand through ForwardFull.
TEST(AttentionHandCheckTest, SingleHeadScalarAttention) {
  ModelConfig cfg;
  cfg.vocab_size = 4;
  cfg.d_model = 1;
  cfg.n_heads = 1;
  cfg.n_layers = 1;
  cfg.d_ff = 1;
  cfg.max_seq_len = 8;
  ModelWeights w = ModelWeights::Random(cfg, 3);
  // Overwrite with hand-picked values. LayerNorm of a single element is
  // always 0 * gain + bias; set gains/biases so the pipeline is tractable:
  // ln1 output == 1 (bias 1), making q = wq, k = wk, v = wv constants.
  w.token_embedding = Tensor({4, 1}, {0.0f, 1.0f, 2.0f, 3.0f});
  w.position_embedding = Tensor({8, 1}, {0, 0, 0, 0, 0, 0, 0, 0});
  auto& lw = w.layers[0];
  lw.ln1_gain = Tensor({1}, {1.0f});
  lw.ln1_bias = Tensor({1}, {1.0f});
  lw.wq = Tensor({1, 1}, {2.0f});
  lw.wk = Tensor({1, 1}, {3.0f});
  lw.wv = Tensor({1, 1}, {5.0f});
  lw.wo = Tensor({1, 1}, {1.0f});
  // Disable the FFN: w2 * relu(w1 * ln2) with w1 = 0 contributes 0.
  lw.w1 = Tensor({1, 1}, {0.0f});
  lw.w2 = Tensor({1, 1}, {0.0f});
  lw.ln2_gain = Tensor({1}, {1.0f});
  lw.ln2_bias = Tensor({1}, {0.0f});
  w.final_ln_gain = Tensor({1}, {1.0f});
  w.final_ln_bias = Tensor({1}, {1.0f});

  TransformerModel model(std::move(w));
  // Every position: ln1(x) = bias = 1 => q = 2, k = 3, v = 5 regardless of
  // token. Attention output = 5 (weighted average of identical values);
  // residual x' = x + wo * 5 = x + 5. Final LN output = 1 (bias), so
  // logits = token_embedding * 1 = {0, 1, 2, 3} for every input.
  auto logits = model.ForwardFull({1, 2});
  ASSERT_TRUE(logits.ok());
  ASSERT_EQ(logits->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR((*logits)[i], static_cast<float>(i), 1e-5);
  }
}

TEST(SimulatorEdgeTest, SimultaneousArrivalsAllServed) {
  std::vector<Request> trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(Request{i, 64, 8, 0.0});  // all at t = 0
  }
  const SloSpec slo{30.0, 30.0};
  FcfsScheduler sched;
  auto r = Simulate(trace, &sched, slo);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->report.ttfts.count(), 20u);
}

TEST(SimulatorEdgeTest, SingleTokenOutputsHaveNoTbt) {
  std::vector<Request> trace;
  for (int i = 0; i < 10; ++i) trace.push_back(Request{i, 32, 1, i * 0.1});
  const SloSpec slo{10.0, 10.0};
  FcfsScheduler sched;
  auto r = Simulate(trace, &sched, slo);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->report.p99_tbts.count(), 0u);  // nobody decoded twice
  EXPECT_DOUBLE_EQ(r->report.tbt_attainment, 1.0);  // vacuously met
}

TEST(SimulatorEdgeTest, PoolExactlyOneRequestWide) {
  // The pool holds exactly one KV request; FCFS must serialize them.
  std::vector<Request> trace;
  for (int i = 0; i < 4; ++i) trace.push_back(Request{i, 60, 4, 0.0});
  const SloSpec slo{1e6, 1e6};
  FcfsScheduler sched;
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 8;  // KV(64 tokens) = 8 blocks
  auto r = Simulate(trace, &sched, slo, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->report.ttfts.count(), 4u);
  EXPECT_LE(r->report.mean_batch_size, 1.01);
}

TEST(SimulatorEdgeTest, UnsortedTraceHandled) {
  std::vector<Request> trace = {{0, 32, 4, 5.0}, {1, 32, 4, 1.0},
                                {2, 32, 4, 3.0}};
  const SloSpec slo{10.0, 10.0};
  FcfsScheduler sched;
  auto r = Simulate(trace, &sched, slo);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->report.ttfts.count(), 3u);
}

}  // namespace
}  // namespace aptserve
