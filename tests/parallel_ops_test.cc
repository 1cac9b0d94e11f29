// Golden tests for the blocked/batched kernel tier: every blocked kernel
// must be bit-identical (exact float equality) to the scalar reference
// kernels, across odd shapes (non-multiples of the block size, rows=1,
// cols=1, batch=1) and at any thread count. Also pins the transformer
// forward paths: pool and no-pool runs produce identical logits.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "common/rng.h"
#include "engine/block_storage.h"
#include "engine/ops.h"
#include "engine/transformer.h"
#include "runtime/thread_pool.h"
#include "tests/forward_test_util.h"

namespace aptserve {
namespace {

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

runtime::RuntimeConfig Threads(int32_t n, bool deterministic = true) {
  runtime::RuntimeConfig cfg;
  cfg.num_threads = n;
  cfg.deterministic = deterministic;
  return cfg;
}

// Shapes chosen to straddle the kRowTile=32 blocking: 1, tile-1, tile,
// tile+1, and a few primes.
const int32_t kShapes[] = {1, 2, 3, 31, 32, 33, 65};

class ParallelOpsTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Null for the serial-path run, a 4-thread pool for the parallel run.
  runtime::ThreadPool* pool() {
    if (!GetParam()) return nullptr;
    if (!pool_) pool_ = std::make_unique<runtime::ThreadPool>(Threads(4));
    return pool_.get();
  }

 private:
  std::unique_ptr<runtime::ThreadPool> pool_;
};

TEST_P(ParallelOpsTest, MatMatMatchesMatVecExactly) {
  Rng rng(11);
  for (int32_t batch : kShapes) {
    for (int32_t rows : kShapes) {
      for (int32_t cols : {1, 3, 33}) {
        const auto w = RandomVec(static_cast<int64_t>(rows) * cols, &rng);
        const auto x = RandomVec(static_cast<int64_t>(batch) * cols, &rng);
        std::vector<float> want(static_cast<int64_t>(batch) * rows);
        for (int32_t b = 0; b < batch; ++b) {
          ops::MatVec(w.data(), x.data() + static_cast<int64_t>(b) * cols,
                      want.data() + static_cast<int64_t>(b) * rows, rows,
                      cols);
        }
        std::vector<float> got(want.size(), -1.0f);
        ops::MatMat(w.data(), x.data(), got.data(), batch, rows, cols,
                    pool());
        ASSERT_EQ(want, got) << "batch=" << batch << " rows=" << rows
                             << " cols=" << cols;
      }
    }
  }
}

TEST_P(ParallelOpsTest, MatVecBlockedMatchesMatVecExactly) {
  Rng rng(12);
  for (int32_t rows : kShapes) {
    for (int32_t cols : kShapes) {
      const auto w = RandomVec(static_cast<int64_t>(rows) * cols, &rng);
      const auto x = RandomVec(cols, &rng);
      std::vector<float> want(rows), got(rows, -1.0f);
      ops::MatVec(w.data(), x.data(), want.data(), rows, cols);
      ops::MatVecBlocked(w.data(), x.data(), got.data(), rows, cols, pool());
      ASSERT_EQ(want, got) << "rows=" << rows << " cols=" << cols;
    }
  }
}

TEST_P(ParallelOpsTest, LayerNormBatchMatchesLayerNormExactly) {
  Rng rng(13);
  for (int32_t batch : kShapes) {
    for (int32_t n : {1, 2, 31, 64}) {
      const auto x = RandomVec(static_cast<int64_t>(batch) * n, &rng);
      const auto gain = RandomVec(n, &rng);
      const auto bias = RandomVec(n, &rng);
      std::vector<float> want(x.size()), got(x.size(), -1.0f);
      for (int32_t b = 0; b < batch; ++b) {
        ops::LayerNorm(x.data() + static_cast<int64_t>(b) * n, gain.data(),
                       bias.data(), want.data() + static_cast<int64_t>(b) * n,
                       n);
      }
      ops::LayerNormBatch(x.data(), gain.data(), bias.data(), got.data(),
                          batch, n, pool());
      ASSERT_EQ(want, got) << "batch=" << batch << " n=" << n;
    }
  }
}

TEST_P(ParallelOpsTest, FusedMatMatActMatchesUnfusedExactly) {
  Rng rng(15);
  for (bool use_relu : {false, true}) {
    for (int32_t batch : {1, 5, 33}) {
      const int32_t rows = 65, cols = 33;
      const auto w = RandomVec(static_cast<int64_t>(rows) * cols, &rng);
      const auto x = RandomVec(static_cast<int64_t>(batch) * cols, &rng);
      std::vector<float> want(static_cast<int64_t>(batch) * rows);
      for (int32_t b = 0; b < batch; ++b) {
        ops::MatVec(w.data(), x.data() + static_cast<int64_t>(b) * cols,
                    want.data() + static_cast<int64_t>(b) * rows, rows, cols);
      }
      if (use_relu) {
        ops::Relu(want.data(), static_cast<int32_t>(want.size()));
      } else {
        ops::Gelu(want.data(), static_cast<int32_t>(want.size()));
      }
      std::vector<float> got(want.size(), -1.0f);
      ops::FusedMatMatAct(w.data(), x.data(), got.data(), batch, rows, cols,
                          use_relu, pool());
      ASSERT_EQ(want, got) << "relu=" << use_relu << " batch=" << batch;
    }
  }
}

// Most shapes above are too small to split even on a pool
// (ops::ParallelTasks); these carry enough work to, pinning every split
// branch: MatMat/FusedMatMatAct over W rows and over the batch, and
// LayerNormBatch over the batch.
TEST_P(ParallelOpsTest, SplitShapesMatchUnblockedExactly) {
  struct Shape {
    int32_t batch, rows, cols;
  };
  auto expect_split = [&](int64_t work) {
    if (GetParam()) {
      ASSERT_GT(ops::ParallelTasks(pool(), work), 1);
    }
  };
  Rng rng(16);
  for (const Shape& s : {Shape{2, 1024, 128}, Shape{64, 96, 64}}) {
    expect_split(static_cast<int64_t>(s.batch) * s.rows * s.cols);
    const auto w = RandomVec(static_cast<int64_t>(s.rows) * s.cols, &rng);
    const auto x = RandomVec(static_cast<int64_t>(s.batch) * s.cols, &rng);
    std::vector<float> want(static_cast<int64_t>(s.batch) * s.rows);
    for (int32_t b = 0; b < s.batch; ++b) {
      ops::MatVec(w.data(), x.data() + static_cast<int64_t>(b) * s.cols,
                  want.data() + static_cast<int64_t>(b) * s.rows, s.rows,
                  s.cols);
    }
    std::vector<float> got(want.size(), -1.0f);
    ops::MatMat(w.data(), x.data(), got.data(), s.batch, s.rows, s.cols,
                pool());
    ASSERT_EQ(want, got) << "MatMat batch=" << s.batch;
    ops::Relu(want.data(), static_cast<int32_t>(want.size()));
    ops::FusedMatMatAct(w.data(), x.data(), got.data(), s.batch, s.rows,
                        s.cols, /*use_relu=*/true, pool());
    ASSERT_EQ(want, got) << "FusedMatMatAct batch=" << s.batch;
  }

  {
    const int32_t batch = 1024, n = 130;
    expect_split(static_cast<int64_t>(batch) * n);
    const auto x = RandomVec(static_cast<int64_t>(batch) * n, &rng);
    const auto gain = RandomVec(n, &rng);
    const auto bias = RandomVec(n, &rng);
    std::vector<float> want(x.size()), got(x.size(), -1.0f);
    for (int32_t b = 0; b < batch; ++b) {
      ops::LayerNorm(x.data() + static_cast<int64_t>(b) * n, gain.data(),
                     bias.data(), want.data() + static_cast<int64_t>(b) * n,
                     n);
    }
    ops::LayerNormBatch(x.data(), gain.data(), bias.data(), got.data(), batch,
                        n, pool());
    ASSERT_EQ(want, got);
  }
}

TEST(ParallelTasksTest, SplitsOnlyWorkThatPaysForItsTasks) {
  EXPECT_EQ(ops::ParallelTasks(nullptr, int64_t{1} << 40), 1);
  runtime::ThreadPool one(Threads(1));
  EXPECT_EQ(ops::ParallelTasks(&one, 100 * ops::kMinTaskWork), 1);
  runtime::ThreadPool four(Threads(4));
  EXPECT_EQ(ops::ParallelTasks(&four, 0), 1);
  EXPECT_EQ(ops::ParallelTasks(&four, 2 * ops::kMinTaskWork - 1), 1);
  EXPECT_EQ(ops::ParallelTasks(&four, 2 * ops::kMinTaskWork), 2);
  EXPECT_EQ(ops::ParallelTasks(&four, 3 * ops::kMinTaskWork + 1), 3);
  EXPECT_EQ(ops::ParallelTasks(&four, 100 * ops::kMinTaskWork), 4);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, ParallelOpsTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "pool4" : "serial";
                         });

// ---- Transformer forward paths: pool vs serial bit-identity ---------------

std::vector<int32_t> MakeTokens(int32_t n, uint64_t seed, int32_t vocab) {
  Rng rng(seed);
  std::vector<int32_t> t(n);
  for (int32_t& v : t) {
    v = static_cast<int32_t>(rng.UniformInt(0, vocab - 1));
  }
  return t;
}

TEST(ParallelTransformerTest, ForwardFullBitIdenticalAcrossThreadCounts) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 5));
  const auto tokens = MakeTokens(23, 7, cfg.vocab_size);
  auto serial = model.ForwardFull(tokens);
  ASSERT_TRUE(serial.ok());
  for (bool deterministic : {true, false}) {
    runtime::ThreadPool pool(Threads(4, deterministic));
    auto parallel = model.ForwardFull(tokens, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*serial, *parallel) << "deterministic=" << deterministic;
  }
}

TEST(ParallelTransformerTest, CachedPathsBitIdenticalAcrossThreadCounts) {
  const ModelConfig cfg = ModelConfig::Tiny();
  TransformerModel model(ModelWeights::Random(cfg, 6));
  const auto tokens = MakeTokens(17, 8, cfg.vocab_size);
  const int32_t n = static_cast<int32_t>(tokens.size());
  runtime::ThreadPool pool(Threads(4));

  for (CacheType type : {CacheType::kKV, CacheType::kHidden}) {
    auto run = [&](runtime::ThreadPool* p, bool chunked) {
      BlockPool blocks(32, 4);
      BlockStorage storage(32, 4, cfg.n_layers, cfg.d_model);
      HybridCacheAssigner assigner(&blocks);
      EXPECT_TRUE(assigner.CreateFilled(1, type, n).ok());
      const CacheMap* map = assigner.Find(1);
      std::vector<float> logits;
      if (chunked) {
        // Prefill the first half in one pass, then decode-style steps.
        const int32_t half = n / 2;
        std::vector<int32_t> head(tokens.begin(), tokens.begin() + half);
        EXPECT_TRUE(
            ForwardSpan(model, head, 0, *map, &storage, &logits, p).ok());
        EXPECT_TRUE(
            ForwardSpan(model, tokens, half, *map, &storage, &logits, p)
                .ok());
      } else {
        for (int32_t pos = 0; pos < n; ++pos) {
          EXPECT_TRUE(
              ForwardToken(model, tokens[pos], pos, *map, &storage, &logits, p)
                  .ok());
        }
      }
      return logits;
    };
    for (bool chunked : {false, true}) {
      const auto serial = run(nullptr, chunked);
      const auto parallel = run(&pool, chunked);
      EXPECT_EQ(serial, parallel)
          << "type=" << (type == CacheType::kKV ? "kv" : "hidden")
          << " chunked=" << chunked;
    }
  }
}

}  // namespace
}  // namespace aptserve
