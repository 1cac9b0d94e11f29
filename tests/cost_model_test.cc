#include "sim/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace aptserve {
namespace {

CostModel Make() {
  const ModelSpec m = ModelSpec::Opt13B();
  return CostModel(m, ClusterSpec::ForModel(m));
}

TEST(CostModelTest, EmptyBatchCostsOverheadOnly) {
  CostModel cm = Make();
  EXPECT_DOUBLE_EQ(cm.IterationSeconds({}), cm.overhead());
}

TEST(CostModelTest, DecodeIsMemoryBoundAtSmallBatch) {
  CostModel cm = Make();
  BatchWorkload w;
  w.decode_reqs = 1;
  w.decode_kv_context_tokens = 100;
  // Dominated by streaming 26GB of weights.
  const double weights_time =
      cm.model().WeightBytes() / cm.cluster().EffectiveBandwidth();
  EXPECT_NEAR(cm.IterationSeconds(w), weights_time + cm.overhead(), 2e-3);
}

TEST(CostModelTest, DecodeLatencyGrowsWithContext) {
  CostModel cm = Make();
  BatchWorkload small, large;
  small.decode_reqs = large.decode_reqs = 32;
  small.decode_kv_context_tokens = 32 * 100;
  large.decode_kv_context_tokens = 32 * 1500;
  EXPECT_GT(cm.IterationSeconds(large), cm.IterationSeconds(small));
}

TEST(CostModelTest, HiddenContextReadsHalfTheBytesButAddsCompute) {
  CostModel cm = Make();
  BatchWorkload kv, hidden;
  kv.decode_reqs = hidden.decode_reqs = 8;
  kv.decode_kv_context_tokens = 8 * 50;
  hidden.decode_hidden_context_tokens = 8 * 50;
  // With a small batch x short contexts the iteration stays memory bound,
  // and hidden reads half the cache bytes -> not slower.
  EXPECT_LE(cm.IterationSeconds(hidden), cm.IterationSeconds(kv) + 1e-9);

  // At large batch x context, the K/V re-projection compute dominates and
  // hidden becomes slower — the cost the scheduler's penalty term models.
  BatchWorkload kv_big, hid_big;
  kv_big.decode_reqs = hid_big.decode_reqs = 200;
  kv_big.decode_kv_context_tokens = 200LL * 1500;
  hid_big.decode_hidden_context_tokens = 200LL * 1500;
  EXPECT_GT(cm.IterationSeconds(hid_big), cm.IterationSeconds(kv_big));
}

TEST(CostModelTest, PrefillComputeBoundAndSuperlinear) {
  CostModel cm = Make();
  auto prefill = [&](int64_t n) {
    BatchWorkload w;
    w.prefill_tokens = n;
    w.prefill_attend_tokens = n * (n + 1) / 2;
    return cm.IterationSeconds(w);
  };
  const double t512 = prefill(512);
  const double t1024 = prefill(1024);
  EXPECT_GT(t1024, 1.9 * t512);  // at least linear growth
  // Compute side dominates: flops time > bytes time for a 512-token prefill.
  const double flops_s = (cm.model().FlopsPerToken() * 512 +
                          cm.model().AttentionFlopsPerContextToken() * 512 *
                              513 / 2) /
                         cm.cluster().EffectiveFlops();
  EXPECT_NEAR(t512, flops_s + cm.overhead(), 1e-3);
}

TEST(CostModelTest, PaperDecodeLatencyBallpark) {
  // §6.6: "a single decode iteration with 50 requests using OPT-13B takes
  // approximately 120 ms". Our calibration should land within a loose
  // factor (same order of magnitude, tens of ms).
  CostModel cm = Make();
  BatchWorkload w;
  w.decode_reqs = 50;
  w.decode_kv_context_tokens = 50LL * 500;
  const double t = cm.IterationSeconds(w);
  EXPECT_GT(t, 0.02);
  EXPECT_LT(t, 0.2);
}

TEST(CostModelTest, RhoMatchesRecomputeRate) {
  CostModel cm = Make();
  EXPECT_DOUBLE_EQ(cm.RhoSecondsPerToken(),
                   cm.model().HiddenRecomputeFlopsPerToken() /
                       cm.cluster().EffectiveFlops());
  EXPECT_GT(cm.RhoSecondsPerToken(), 0);
  EXPECT_LT(cm.RhoSecondsPerToken(), 1e-3);  // tens of microseconds
}

TEST(CostModelTest, WorkloadAccumulation) {
  BatchWorkload a, b;
  a.prefill_tokens = 10;
  a.decode_reqs = 2;
  b.prefill_tokens = 5;
  b.decode_hidden_context_tokens = 100;
  a += b;
  EXPECT_EQ(a.prefill_tokens, 15);
  EXPECT_EQ(a.decode_reqs, 2);
  EXPECT_EQ(a.decode_hidden_context_tokens, 100);
  EXPECT_FALSE(a.Empty());
  EXPECT_TRUE(BatchWorkload{}.Empty());
}

TEST(CostModelTest, TensorParallelSpeedsUpLargeModels) {
  const ModelSpec m = ModelSpec::Opt30B();
  ClusterSpec two = ClusterSpec::ForModel(m);
  ClusterSpec fake_one = two;
  fake_one.n_gpus = 1;  // hypothetical single-GPU run (memory aside)
  CostModel cm2(m, two), cm1(m, fake_one);
  BatchWorkload w;
  w.decode_reqs = 20;
  w.decode_kv_context_tokens = 20 * 400;
  EXPECT_LT(cm2.IterationSeconds(w), cm1.IterationSeconds(w));
}

// The roofline formula as written before its spec-derived terms were
// computed once at construction: every term re-derived from the specs on
// each call.
double UnhoistedIterationSeconds(const CostModel& cm, const BatchWorkload& w) {
  if (w.Empty()) return cm.overhead();
  const ModelSpec& model = cm.model();
  const ClusterSpec& cluster = cm.cluster();
  const int64_t processed = w.prefill_tokens + w.decode_reqs;
  const int64_t attended = w.prefill_attend_tokens +
                           w.decode_kv_context_tokens +
                           w.decode_hidden_context_tokens;
  double flops = model.FlopsPerToken() * static_cast<double>(processed);
  flops += model.AttentionFlopsPerContextToken() *
           static_cast<double>(attended);
  flops += model.HiddenRecomputeFlopsPerToken() *
           static_cast<double>(w.decode_hidden_context_tokens);
  const double compute_s = flops / cluster.EffectiveFlops();
  double bytes = model.WeightBytes();
  bytes += model.KvBytesPerToken() *
           static_cast<double>(w.decode_kv_context_tokens);
  bytes += model.HiddenBytesPerToken() *
           static_cast<double>(w.decode_hidden_context_tokens);
  bytes += model.KvBytesPerToken() * static_cast<double>(w.prefill_tokens);
  const double memory_s = bytes / cluster.EffectiveBandwidth();
  const double swap_s = w.swap_bytes / cluster.gpu.pcie_bandwidth;
  return std::max(compute_s, memory_s) + swap_s + cm.overhead();
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::vector<BatchWorkload> WorkloadGrid() {
  std::vector<BatchWorkload> grid;
  for (int64_t prefill : {0, 1, 17, 512, 4096}) {
    for (int32_t reqs : {0, 1, 7, 64, 256}) {
      for (int64_t ctx : {0, 33, 1500}) {
        for (int kv_share : {0, 1, 2}) {  // all hidden, split, all KV
          for (double swap : {0.0, 3.5e6}) {
            BatchWorkload w;
            w.prefill_tokens = prefill;
            w.prefill_attend_tokens = prefill * (prefill + 1) / 2 + 3 * prefill;
            w.decode_reqs = reqs;
            const int64_t total = static_cast<int64_t>(reqs) * ctx;
            w.decode_kv_context_tokens = total * kv_share / 2;
            w.decode_hidden_context_tokens =
                total - w.decode_kv_context_tokens;
            w.swap_bytes = swap;
            grid.push_back(w);
          }
        }
      }
    }
  }
  return grid;
}

TEST(CostModelTest, PrecomputedTermsAreBitIdenticalToTheFormula) {
  const std::vector<BatchWorkload> grid = WorkloadGrid();
  for (const ModelSpec& m :
       {ModelSpec::Opt13B(), ModelSpec::Opt30B(), ModelSpec::Opt66B(),
        ModelSpec::Llama3_8B_262K(), ModelSpec::Yi6B_200K()}) {
    ClusterSpec cluster = ClusterSpec::ForModel(m);
    for (int32_t gpus : {1, 2, 3, 4, 8}) {
      cluster.n_gpus = gpus;
      CostModel cm(m, cluster, 0.0025);
      const double analytic_rho = m.HiddenRecomputeFlopsPerToken() /
                                  cluster.EffectiveFlops();
      for (double rho_override : {-1.0, 0.0, 4.2e-6}) {
        if (rho_override >= 0.0) cm.SetRhoOverride(rho_override);
        const double want_rho =
            rho_override >= 0.0 ? rho_override : analytic_rho;
        ASSERT_EQ(Bits(cm.RhoSecondsPerToken()), Bits(want_rho))
            << m.name << " x" << gpus << " override " << rho_override;
        // The override moves the scheduler's rho only, never the latency.
        for (const BatchWorkload& w : grid) {
          ASSERT_EQ(Bits(cm.IterationSeconds(w)),
                    Bits(UnhoistedIterationSeconds(cm, w)))
              << m.name << " x" << gpus << " prefill " << w.prefill_tokens
              << " reqs " << w.decode_reqs << " kv "
              << w.decode_kv_context_tokens << " hidden "
              << w.decode_hidden_context_tokens << " swap " << w.swap_bytes;
        }
      }
      // A negative override restores the analytic value.
      cm.SetRhoOverride(-1.0);
      EXPECT_EQ(Bits(cm.RhoSecondsPerToken()), Bits(analytic_rho));
    }
  }
}

}  // namespace
}  // namespace aptserve
