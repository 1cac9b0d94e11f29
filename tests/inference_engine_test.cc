#include "engine/inference_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "obs/metrics_registry.h"

namespace aptserve {
namespace {

ModelConfig Cfg() { return ModelConfig::Tiny(); }

std::vector<int32_t> Prompt(int32_t n, int32_t base = 3) {
  std::vector<int32_t> p(n);
  for (int32_t i = 0; i < n; ++i) p[i] = (base + i * 7) % Cfg().vocab_size;
  return p;
}

TEST(InferenceEngineTest, StepCountersStayExactWhenAnItemFails) {
  // Batched iterations mixing prefill chunks and decodes, one of them
  // carrying a step whose compute fails: that step gets its own status,
  // its batch-mates still compute and finish, and the engine counters
  // agree — every prepared step is computed once and finished once.
  obs::MetricsRegistry registry;
  InferenceEngine engine(Cfg(), 42, 64, 4);
  engine.AttachMetrics(&registry, "");
  for (RequestId id = 0; id < 4; ++id) {
    ASSERT_TRUE(engine
                    .AddRequest(id, Prompt(6 + id, static_cast<int32_t>(id)),
                                id % 2 ? CacheType::kHidden : CacheType::kKV)
                    .ok());
  }
  int64_t prepared = 0;
  for (int32_t iter = 0; iter < 6; ++iter) {
    std::vector<PendingStep> steps;
    for (RequestId id = 0; id < 4; ++id) {
      auto s = engine.Find(id)->in_decode ? engine.PrepareDecode(id)
                                          : engine.PreparePrefillChunk(id, 4);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      steps.push_back(std::move(*s));
      ++prepared;
    }
    const bool poisoned = iter == 3;
    if (poisoned) steps[2].token = Cfg().vocab_size;  // out of vocabulary
    const Status st = engine.ExecuteSteps(&steps);
    EXPECT_EQ(st.IsInvalidArgument(), poisoned) << st.ToString();
    for (size_t i = 0; i < steps.size(); ++i) {
      EXPECT_TRUE(steps[i].computed);
      EXPECT_EQ(steps[i].compute_status.ok(), !(poisoned && i == 2));
    }
    if (poisoned) ASSERT_TRUE(engine.RemoveRequest(2).ok());
    if (poisoned) break;
  }
  // The poisoned step's batch-mates advanced.
  EXPECT_EQ(engine.Find(3)->cached_tokens, 10);
  const int64_t decode =
      registry.GetCounter("aptserve_engine_steps_prepared_total",
                          "kind=\"decode\"")->value();
  const int64_t prefill =
      registry.GetCounter("aptserve_engine_steps_prepared_total",
                          "kind=\"prefill\"")->value();
  const int64_t computed =
      registry.GetCounter("aptserve_engine_steps_computed_total", "")->value();
  const int64_t finished =
      registry.GetCounter("aptserve_engine_steps_finished_total", "")->value();
  EXPECT_EQ(decode + prefill, prepared);
  EXPECT_GT(decode, 0);
  EXPECT_GT(prefill, 0);
  EXPECT_EQ(computed, prepared);
  EXPECT_EQ(finished, prepared);
}

TEST(InferenceEngineTest, PrefillThenDecode) {
  InferenceEngine engine(Cfg(), 42, 64, 4);
  ASSERT_TRUE(engine.AddRequest(1, Prompt(8), CacheType::kKV).ok());
  auto first = engine.Prefill(1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const GenerationState* gs = engine.Find(1);
  ASSERT_NE(gs, nullptr);
  EXPECT_EQ(gs->cached_tokens, 8);
  EXPECT_EQ(gs->tokens.size(), 9u);
  EXPECT_EQ(gs->generated(), 1);
  auto next = engine.DecodeStep(1);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(gs->cached_tokens, 9);
  EXPECT_EQ(gs->generated(), 2);
}

TEST(InferenceEngineTest, KvAndHiddenGenerateIdenticalTokens) {
  InferenceEngine e1(Cfg(), 42, 64, 4);
  InferenceEngine e2(Cfg(), 42, 64, 4);
  ASSERT_TRUE(e1.AddRequest(1, Prompt(10), CacheType::kKV).ok());
  ASSERT_TRUE(e2.AddRequest(1, Prompt(10), CacheType::kHidden).ok());
  auto t1 = e1.Generate(1, 15);
  auto t2 = e2.Generate(1, 15);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(*t1, *t2);
}

TEST(InferenceEngineTest, ConversionPreservesGeneration) {
  // Reference: generate 12 tokens with KV throughout.
  InferenceEngine ref(Cfg(), 7, 128, 4);
  ASSERT_TRUE(ref.AddRequest(1, Prompt(6), CacheType::kKV).ok());
  auto expected = ref.Generate(1, 12);
  ASSERT_TRUE(expected.ok());

  // Same run, but convert KV -> hidden after 4 tokens and hidden -> KV
  // after 8 (each conversion discards the cache and re-prefills).
  InferenceEngine eng(Cfg(), 7, 128, 4);
  ASSERT_TRUE(eng.AddRequest(1, Prompt(6), CacheType::kKV).ok());
  ASSERT_TRUE(eng.Generate(1, 4).ok());
  ASSERT_TRUE(eng.ConvertCacheType(1, CacheType::kHidden).ok());
  EXPECT_EQ(eng.Find(1)->cached_tokens, 0);  // cache discarded
  ASSERT_TRUE(eng.Generate(1, 4).ok());      // resume-prefill + decodes
  ASSERT_TRUE(eng.ConvertCacheType(1, CacheType::kKV).ok());
  ASSERT_TRUE(eng.Generate(1, 4).ok());
  EXPECT_EQ(eng.Find(1)->tokens, *expected);
}

TEST(InferenceEngineTest, ConversionToSameTypeIsNoOp) {
  InferenceEngine eng(Cfg(), 7, 64, 4);
  ASSERT_TRUE(eng.AddRequest(1, Prompt(6), CacheType::kKV).ok());
  ASSERT_TRUE(eng.Prefill(1).ok());
  const int32_t cached = eng.Find(1)->cached_tokens;
  ASSERT_TRUE(eng.ConvertCacheType(1, CacheType::kKV).ok());
  EXPECT_EQ(eng.Find(1)->cached_tokens, cached);
}

TEST(InferenceEngineTest, HiddenCacheHalvesBlockUsage) {
  InferenceEngine kv(Cfg(), 42, 64, 4);
  InferenceEngine hid(Cfg(), 42, 64, 4);
  ASSERT_TRUE(kv.AddRequest(1, Prompt(16), CacheType::kKV).ok());
  ASSERT_TRUE(hid.AddRequest(1, Prompt(16), CacheType::kHidden).ok());
  ASSERT_TRUE(kv.Prefill(1).ok());
  ASSERT_TRUE(hid.Prefill(1).ok());
  EXPECT_EQ(kv.pool().num_allocated(), 8);   // 2 * ceil(16/4)
  EXPECT_EQ(hid.pool().num_allocated(), 4);  // ceil(16/4)
}

TEST(InferenceEngineTest, PreemptionAndResumeIsDeterministic) {
  InferenceEngine ref(Cfg(), 9, 128, 4);
  ASSERT_TRUE(ref.AddRequest(1, Prompt(5), CacheType::kKV).ok());
  auto expected = ref.Generate(1, 10);
  ASSERT_TRUE(expected.ok());

  InferenceEngine eng(Cfg(), 9, 128, 4);
  ASSERT_TRUE(eng.AddRequest(1, Prompt(5), CacheType::kKV).ok());
  ASSERT_TRUE(eng.Generate(1, 5).ok());
  ASSERT_TRUE(eng.Preempt(1).ok());
  EXPECT_EQ(eng.pool().num_allocated(), 0);
  ASSERT_TRUE(eng.Generate(1, 5).ok());
  EXPECT_EQ(eng.Find(1)->tokens, *expected);
}

TEST(InferenceEngineTest, GenerateStopsAtEos) {
  InferenceEngine eng(Cfg(), 42, 64, 4);
  ASSERT_TRUE(eng.AddRequest(1, Prompt(4), CacheType::kKV).ok());
  // Find what the model generates, then re-run with that token as EOS.
  auto all = eng.Generate(1, 6);
  ASSERT_TRUE(all.ok());
  const int32_t eos = (*all)[4];  // first generated token
  InferenceEngine eng2(Cfg(), 42, 64, 4);
  ASSERT_TRUE(eng2.AddRequest(1, Prompt(4), CacheType::kKV).ok());
  auto out = eng2.Generate(1, 6, eos);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 5u);  // prompt + the EOS token
}

TEST(InferenceEngineTest, ApiErrors) {
  InferenceEngine eng(Cfg(), 42, 64, 4);
  EXPECT_TRUE(eng.Prefill(1).status().IsNotFound());
  EXPECT_TRUE(eng.DecodeStep(1).status().IsNotFound());
  EXPECT_TRUE(eng.RemoveRequest(1).IsNotFound());
  EXPECT_TRUE(eng.AddRequest(1, {}, CacheType::kKV).IsInvalidArgument());
  EXPECT_TRUE(
      eng.AddRequest(1, {Cfg().vocab_size + 1}, CacheType::kKV)
          .IsInvalidArgument());
  ASSERT_TRUE(eng.AddRequest(1, Prompt(4), CacheType::kKV).ok());
  EXPECT_TRUE(eng.AddRequest(1, Prompt(4), CacheType::kKV).IsAlreadyExists());
  EXPECT_TRUE(eng.DecodeStep(1).status().IsFailedPrecondition());
  ASSERT_TRUE(eng.Prefill(1).ok());
  EXPECT_TRUE(eng.Prefill(1).status().IsFailedPrecondition());
}

TEST(InferenceEngineTest, OutOfMemoryPrefillRollsBack) {
  InferenceEngine eng(Cfg(), 42, /*num_blocks=*/4, /*block_size=*/4);
  // 16-token KV prefill needs 8 blocks > 4 available.
  ASSERT_TRUE(eng.AddRequest(1, Prompt(16), CacheType::kKV).ok());
  auto r = eng.Prefill(1);
  EXPECT_TRUE(r.status().IsOutOfMemory());
  EXPECT_EQ(eng.pool().num_allocated(), 0);
  // Hidden fits (4 blocks).
  ASSERT_TRUE(eng.ConvertCacheType(1, CacheType::kHidden).ok());
  EXPECT_TRUE(eng.Prefill(1).ok());
}

TEST(InferenceEngineTest, RemoveFreesBlocks) {
  InferenceEngine eng(Cfg(), 42, 64, 4);
  ASSERT_TRUE(eng.AddRequest(1, Prompt(8), CacheType::kKV).ok());
  ASSERT_TRUE(eng.Prefill(1).ok());
  EXPECT_GT(eng.pool().num_allocated(), 0);
  ASSERT_TRUE(eng.RemoveRequest(1).ok());
  EXPECT_EQ(eng.pool().num_allocated(), 0);
  EXPECT_EQ(eng.Find(1), nullptr);
}

TEST(InferenceEngineTest, ManyConcurrentRequestsShareThePool) {
  InferenceEngine eng(Cfg(), 42, 128, 4);
  for (RequestId id = 0; id < 6; ++id) {
    const CacheType t = id % 2 ? CacheType::kHidden : CacheType::kKV;
    ASSERT_TRUE(eng.AddRequest(id, Prompt(6, 2 + id), t).ok());
    ASSERT_TRUE(eng.Prefill(id).ok());
  }
  // Interleave decode steps round-robin (iteration-level batching).
  for (int step = 0; step < 8; ++step) {
    for (RequestId id = 0; id < 6; ++id) {
      ASSERT_TRUE(eng.DecodeStep(id).ok());
    }
  }
  for (RequestId id = 0; id < 6; ++id) {
    EXPECT_EQ(eng.Find(id)->generated(), 9);
    ASSERT_TRUE(eng.RemoveRequest(id).ok());
  }
  EXPECT_EQ(eng.pool().num_allocated(), 0);
}

TEST(InferenceEngineTest, LiveEnginesOfOneKeyShareOneModel) {
  InferenceEngine a(Cfg(), 42, 16, 4);
  InferenceEngine b(Cfg(), 42, 8, 2);  // pool shape is not part of the key
  EXPECT_EQ(&a.model(), &b.model());
}

TEST(InferenceEngineTest, EveryConfigFieldAndTheSeedSeparateModels) {
  const InferenceEngine base(Cfg(), 42, 16, 4);
  // Each variant changes one field; both engines are alive at once.
  const auto expect_separate = [&](const char* name, auto edit) {
    ModelConfig config = Cfg();
    edit(config);
    const InferenceEngine other(config, 42, 16, 4);
    EXPECT_NE(&other.model(), &base.model()) << name;
    const ModelConfig& got = other.model().config();
    EXPECT_TRUE(got.vocab_size == config.vocab_size &&
                got.d_model == config.d_model &&
                got.n_heads == config.n_heads &&
                got.n_layers == config.n_layers && got.d_ff == config.d_ff &&
                got.max_seq_len == config.max_seq_len &&
                got.use_relu == config.use_relu)
        << name;
  };
  expect_separate("vocab_size", [](ModelConfig& c) { ++c.vocab_size; });
  expect_separate("d_model", [](ModelConfig& c) { c.d_model += c.n_heads; });
  expect_separate("n_heads", [](ModelConfig& c) { c.n_heads *= 2; });
  expect_separate("n_layers", [](ModelConfig& c) { ++c.n_layers; });
  expect_separate("d_ff", [](ModelConfig& c) { ++c.d_ff; });
  expect_separate("max_seq_len", [](ModelConfig& c) { ++c.max_seq_len; });
  expect_separate("use_relu", [](ModelConfig& c) { c.use_relu = !c.use_relu; });
  const InferenceEngine reseeded(Cfg(), 43, 16, 4);
  EXPECT_NE(&reseeded.model(), &base.model());
}

TEST(InferenceEngineTest, LastEngineFreesTheModelAndARebuildMatchesIt) {
  const std::vector<int32_t> tokens = Prompt(9);
  std::weak_ptr<const TransformerModel> first;
  std::vector<float> first_logits;
  {
    InferenceEngine a(Cfg(), 77, 16, 4);
    {
      InferenceEngine b(Cfg(), 77, 16, 4);
      first = TransformerModel::Shared(Cfg(), 77);
      EXPECT_EQ(first.lock().get(), &b.model());
    }
    ASSERT_FALSE(first.expired());  // `a` still holds it
    auto logits = a.model().ForwardFull(tokens);
    ASSERT_TRUE(logits.ok()) << logits.status().ToString();
    first_logits = std::move(*logits);
  }
  EXPECT_TRUE(first.expired());  // no model outlives its last engine
  InferenceEngine rebuilt(Cfg(), 77, 16, 4);
  auto logits = rebuilt.model().ForwardFull(tokens);
  ASSERT_TRUE(logits.ok()) << logits.status().ToString();
  EXPECT_EQ(*logits, first_logits);
}

TEST(InferenceEngineTest, ConcurrentBuildsOfOneKeyShareOneModel) {
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<InferenceEngine>> engines(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      engines[i] = std::make_unique<InferenceEngine>(Cfg(), 4242, 16, 4);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(&engines[i]->model(), &engines[0]->model()) << i;
  }
}

TEST(InferenceEngineTest, EnginesOfOneModelGenerateConcurrently) {
  // Two engines attached to one model generate at once on two threads:
  // each must produce the tokens a lone engine produces.
  const auto generate = [](InferenceEngine* engine, RequestId id) {
    EXPECT_TRUE(engine->AddRequest(id, Prompt(7, 5), CacheType::kKV).ok());
    auto tokens = engine->Generate(id, 12);
    EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
    return tokens.ok() ? *tokens : std::vector<int32_t>{};
  };
  std::vector<int32_t> want;
  {
    InferenceEngine alone(Cfg(), 99, 64, 4);
    want = generate(&alone, 1);
  }
  InferenceEngine a(Cfg(), 99, 64, 4), b(Cfg(), 99, 64, 4);
  ASSERT_EQ(&a.model(), &b.model());
  std::vector<int32_t> got_a, got_b;
  std::thread ta([&] { got_a = generate(&a, 1); });
  std::thread tb([&] { got_b = generate(&b, 1); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, want);
  EXPECT_EQ(got_b, want);
}

}  // namespace
}  // namespace aptserve
