// Golden bit-identity of the engine's forward: token streams, logits and
// cache bytes recorded from the per-request forward (one decode step or
// prefill chunk per call) that the layer-major batch replaced, asserted
// exactly. Each output element of the batched forward keeps the
// float-operation sequence of a one-item forward, so any change to a
// row's reduction order, a kernel's add tree or a cache round trip shows
// up here as a digest mismatch.
//
// Two workloads:
//   * a scripted engine run mixing KV, fp32-hidden and int8-hidden
//     caches, chunked prefill, preemption with re-prefill (and cache-type
//     conversion), and decode batches growing from 1 to N and back;
//   * an InferenceBackend serving run under the Apt scheduler on a tight
//     pool (hidden caches, conversions, preemptions), fp32 and with an
//     int8 hidden tier.
// Logits and cache bytes depend on the kernel ISA, so they are recorded
// per ISA (avx2+fma and scalar); on any other ISA only the schedule and
// identity across 1, 2 and 4 threads are checked. A third test pins that
// one ForwardBatch over N items equals N one-item calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "common/rng.h"
#include "core/apt_scheduler.h"
#include "engine/inference_engine.h"
#include "engine/ops.h"
#include "engine/transformer.h"
#include "runtime/thread_pool.h"
#include "serve/inference_backend.h"
#include "serve/serving_loop.h"
#include "tests/forward_test_util.h"
#include "workload/arrival.h"

namespace aptserve {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void AddFloat(float f) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    Add(bits);
  }
};

uint64_t TokenDigest(const std::map<RequestId, std::vector<int32_t>>& streams) {
  Fnv fnv;
  for (const auto& [id, toks] : streams) {
    fnv.Add(static_cast<uint64_t>(id));
    fnv.Add(toks.size());
    for (int32_t t : toks) fnv.Add(static_cast<uint64_t>(t));
  }
  return fnv.h;
}

std::string Hex(float f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(f));
  return buf;
}

/// Odd shapes on purpose: head_dim 30 leaves a scalar tail after three
/// 8-float vector steps, d_model 60 runs the 32-float main loop plus both
/// tails, and GELU goes through the tiled FFN activation.
ModelConfig GoldenConfig() {
  ModelConfig c;
  c.vocab_size = 96;
  c.d_model = 60;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 80;
  c.max_seq_len = 128;
  c.use_relu = false;
  return c;
}

enum class Kind { kKV, kHidden, kHiddenInt8 };

CacheEncodingPolicy PolicyFor(Kind kind) {
  CacheEncodingPolicy p;
  if (kind == Kind::kHiddenInt8) p.hidden = BlockEncoding::kInt8;
  return p;
}

CacheType TypeFor(Kind kind) {
  return kind == Kind::kKV ? CacheType::kKV : CacheType::kHidden;
}

struct ScriptResult {
  std::map<RequestId, std::vector<int32_t>> streams;
  uint64_t logits_digest = 0;
  int64_t steps = 0;
  int32_t max_batch = 0;
  int32_t preemptions = 0;
  /// logits[step % vocab] of every 16th step.
  std::vector<float> probes;
};

/// The scripted engine workload: request i arrives at iteration i; every
/// iteration prepares a prefill chunk or a decode for each live request
/// (id order) and executes them as one batch. Every fifth iteration
/// preempts a decoding request; every tenth also flips its cache type.
ScriptResult RunScript(int32_t threads) {
  const ModelConfig cfg = GoldenConfig();
  RuntimeConfig rt;
  rt.num_threads = threads;
  InferenceEngine engine(cfg, /*seed=*/2024, /*num_blocks=*/192,
                         /*block_size=*/4, rt);
  constexpr int32_t kRequests = 10;
  Rng rng(5);
  std::vector<std::vector<int32_t>> prompts(kRequests);
  std::vector<int32_t> out_len(kRequests);
  std::vector<Kind> kind(kRequests);
  for (int32_t i = 0; i < kRequests; ++i) {
    prompts[i].resize(static_cast<size_t>(rng.UniformInt(3, 30)));
    for (int32_t& t : prompts[i]) {
      t = static_cast<int32_t>(rng.UniformInt(0, cfg.vocab_size - 1));
    }
    out_len[i] = static_cast<int32_t>(rng.UniformInt(4, 14));
    kind[i] = static_cast<Kind>(i % 3);
  }

  ScriptResult res;
  Fnv logits_fnv;
  std::vector<bool> live(kRequests, false);
  for (int32_t iter = 0; iter < 400; ++iter) {
    if (iter < kRequests) {
      EXPECT_TRUE(
          engine.AddRequest(iter, prompts[iter], TypeFor(kind[iter])).ok());
      live[iter] = true;
    }
    if (iter % 5 == 4) {
      for (int32_t id = (iter / 5) % kRequests, n = 0; n < kRequests;
           ++n, id = (id + 1) % kRequests) {
        if (!live[id] || !engine.Find(id)->in_decode) continue;
        EXPECT_TRUE(engine.Preempt(id).ok());
        if (iter % 10 == 9) {
          kind[id] = kind[id] == Kind::kKV ? Kind::kHiddenInt8 : Kind::kKV;
          EXPECT_TRUE(engine.ConvertCacheType(id, TypeFor(kind[id])).ok());
        }
        ++res.preemptions;
        break;
      }
    }
    std::vector<PendingStep> steps;
    for (int32_t id = 0; id < kRequests; ++id) {
      if (!live[id]) continue;
      const GenerationState* gs = engine.Find(id);
      if (gs->in_decode) {
        auto s = engine.PrepareDecode(id);
        EXPECT_TRUE(s.ok()) << s.status().ToString();
        steps.push_back(std::move(*s));
      } else {
        if (!engine.assigner().Has(id)) {
          engine.SetEncodingPolicy(PolicyFor(kind[id]));
        }
        auto s = engine.PreparePrefillChunk(id, 2 + (id * 5 + iter) % 9);
        EXPECT_TRUE(s.ok()) << s.status().ToString();
        steps.push_back(std::move(*s));
      }
    }
    if (steps.empty()) break;
    res.max_batch = std::max(res.max_batch, static_cast<int32_t>(steps.size()));
    EXPECT_TRUE(engine.ExecuteSteps(&steps).ok());
    for (const PendingStep& s : steps) {
      for (float f : s.logits) logits_fnv.AddFloat(f);
      if (res.steps % 16 == 0) {
        res.probes.push_back(s.logits[res.steps % cfg.vocab_size]);
      }
      ++res.steps;
    }
    for (int32_t id = 0; id < kRequests; ++id) {
      if (live[id] && engine.Find(id)->generated() >= out_len[id]) {
        res.streams[id] = engine.Find(id)->tokens;
        EXPECT_TRUE(engine.RemoveRequest(id).ok());
        live[id] = false;
      }
    }
  }
  res.logits_digest = logits_fnv.h;
  return res;
}

/// The active ISA's entry of a recording table, or null on an ISA nothing
/// was recorded on (the run is then checked across thread counts only).
template <typename T, size_t N>
const T* ForActiveIsa(const T (&table)[N]) {
  for (const T& g : table) {
    if (std::string(g.isa) == ops::ActiveIsa()) return &g;
  }
  return nullptr;
}

struct ScriptGolden {
  const char* isa;
  uint64_t logits_digest;
  std::vector<float> probes;
};

// Recorded from the per-request forward (one decode step or prefill chunk
// per call). Tokens agree across ISAs; logits differ in the last bits
// because the vector Dot sums in a different order than the scalar one.
constexpr uint64_t kScriptTokenDigest = 0xc2153a3d58d52174ULL;
constexpr int64_t kScriptSteps = 123;
const std::vector<int32_t> kScriptRequest4 = {43, 21, 54, 30, 14, 91, 91,
                                              8,  8,  16, 16, 16, 8};
const ScriptGolden kScriptGoldens[] = {
    {"avx2+fma",
     0x26255f1c3a2625c2ULL,
     {0x1.b82c7cp-6f, 0x1.4d2f2ep-1f, -0x1.c56c36p-1f, 0x1.6f25a6p-1f,
      -0x1.003cbp-4f, -0x1.1c59a4p-7f, -0x1.a5918p-3f, 0x1.b48766p-1f}},
    {"scalar",
     0xfcea382c112fc693ULL,
     {0x1.b82bdp-6f, 0x1.4d2f2ep-1f, -0x1.c56c36p-1f, 0x1.6f25bp-1f,
      -0x1.003caep-4f, -0x1.1c5a0cp-7f, -0x1.a59156p-3f, 0x1.b48762p-1f}},
};

TEST(EngineGoldenTest, ScriptedMixedCacheWorkloadMatchesRecording) {
  const ScriptGolden* golden = ForActiveIsa(kScriptGoldens);
  const ScriptResult serial = RunScript(1);
  ASSERT_EQ(serial.streams.size(), 10u);
  EXPECT_GE(serial.max_batch, 8);
  EXPECT_GE(serial.preemptions, 4);
  EXPECT_EQ(serial.steps, kScriptSteps);
  if (golden != nullptr) {
    EXPECT_EQ(TokenDigest(serial.streams), kScriptTokenDigest);
    EXPECT_EQ(serial.streams.at(4), kScriptRequest4);
    EXPECT_EQ(serial.logits_digest, golden->logits_digest);
    ASSERT_EQ(serial.probes.size(), golden->probes.size());
    for (size_t i = 0; i < serial.probes.size(); ++i) {
      EXPECT_EQ(Hex(serial.probes[i]), Hex(golden->probes[i]))
          << "probe " << i;
    }
  }
  for (int32_t threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ScriptResult r = RunScript(threads);
    EXPECT_EQ(r.streams, serial.streams);
    EXPECT_EQ(r.logits_digest, serial.logits_digest);
  }
}

struct ServeResult {
  std::map<RequestId, std::vector<int32_t>> streams;
  int64_t preemptions = 0;
  int64_t conversions = 0;
  int64_t iterations = 0;
  uint64_t arena_digest = 0;
};

/// Digest of every byte in the cache arena after a run. Freed blocks keep
/// their last payload, so this pins the exact K/V/hidden vectors (or int8
/// codes) the forwards wrote — far more sensitive than greedy tokens.
uint64_t ArenaDigest(InferenceEngine& engine) {
  const BlockStorage& storage = engine.storage();
  Fnv fnv;
  for (BlockId b = 0; b < engine.pool().num_blocks(); ++b) {
    for (int32_t l = 0; l < storage.n_layers(); ++l) {
      const float* slot0 = storage.Slot(b, l, 0);
      const int32_t n = storage.block_size() * storage.dim();
      for (int32_t i = 0; i < n; ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, slot0 + i, sizeof(bits));
        fnv.Add(bits);
      }
    }
  }
  return fnv.h;
}

/// 24 requests arriving within ~60 ms, served by Apt on a 24-block pool
/// of 8 slots with virtual timing and a fixed rho (both keep the schedule
/// a pure function of the seeds): the pool pressure forces hidden caches,
/// conversions and preemptions.
ServeResult Serve(int32_t threads, const CacheEncodingPolicy& policy) {
  Rng rng(9);
  auto arrivals = PoissonArrivals(400.0, 24, &rng);
  EXPECT_TRUE(arrivals.ok());
  std::vector<Request> trace;
  for (int32_t i = 0; i < 24; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(6, 40));
    r.output_len = static_cast<int32_t>(rng.UniformInt(4, 24));
    r.arrival = (*arrivals)[i];
    trace.push_back(r);
  }
  InferenceBackendOptions opts;
  opts.virtual_timing = true;
  opts.rho_seconds_per_token = 2e-5;
  opts.runtime.num_threads = threads;
  opts.cache_encoding = policy;
  InferenceBackend backend(GoldenConfig(), /*weight_seed=*/77,
                           /*num_blocks=*/24, /*block_size=*/8,
                           SamplingParams{}, opts);
  AptConfig ac;
  ac.slo = SloSpec{0.05, 0.01};
  ac.max_prefill_tokens = 96;
  AptScheduler sched(ac);
  ServingLoopConfig loop;
  loop.max_iterations = 1'000'000;
  auto run = ServingLoop(&backend, loop).Run(trace, &sched, ac.slo);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  ServeResult res;
  if (!run.ok()) return res;
  for (auto& [id, toks] : backend.TakeFinishedTokens()) {
    res.streams[id] = std::move(toks);
  }
  res.preemptions = run->report.preemptions;
  res.conversions = run->report.conversions;
  res.iterations = run->report.iterations;
  res.arena_digest = ArenaDigest(backend.engine());
  return res;
}

struct ServeGolden {
  const char* isa;
  uint64_t fp32_arena;
  uint64_t int8_hidden_arena;
};

// Recorded from the per-request forward. Tokens agree across the recorded
// ISAs (and, greedy sampling being robust to quantization noise, across
// the two tiers); the arena holds the exact cached bits.
constexpr uint64_t kServeTokenDigest = 0x2d39c946414ae0c9ULL;
const ServeGolden kServeGoldens[] = {
    {"avx2+fma", 0xb490dcd4637b2ab9ULL, 0x3cca83e61348ecf9ULL},
    {"scalar", 0x6a92adb3bd76a6b4ULL, 0x6704830ebc7135ffULL},
};

TEST(EngineGoldenTest, AptServingWorkloadMatchesRecording) {
  const ServeGolden* golden = ForActiveIsa(kServeGoldens);
  struct Tier {
    const char* name;
    BlockEncoding hidden;
    int64_t preemptions, conversions, iterations;
  };
  const Tier tiers[] = {{"fp32", BlockEncoding::kFp32, 24, 15, 145},
                        {"int8_hidden", BlockEncoding::kInt8, 20, 9, 144}};
  for (const Tier& t : tiers) {
    CacheEncodingPolicy policy;
    policy.hidden = t.hidden;
    const ServeResult serial = Serve(1, policy);
    for (int32_t threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(t.name) + " threads=" +
                   std::to_string(threads));
      const ServeResult r = threads == 1 ? serial : Serve(threads, policy);
      ASSERT_EQ(r.streams.size(), 24u);
      EXPECT_EQ(r.preemptions, t.preemptions);
      EXPECT_EQ(r.conversions, t.conversions);
      EXPECT_EQ(r.iterations, t.iterations);
      EXPECT_EQ(r.streams, serial.streams);
      EXPECT_EQ(r.arena_digest, serial.arena_digest);
      if (golden != nullptr) {
        EXPECT_EQ(TokenDigest(r.streams), kServeTokenDigest);
        EXPECT_EQ(r.arena_digest, t.hidden == BlockEncoding::kFp32
                                      ? golden->fp32_arena
                                      : golden->int8_hidden_arena);
      }
    }
  }
}

/// A pool, assigner and arena for the ForwardBatch comparison.
struct Rig {
  explicit Rig(const ModelConfig& cfg)
      : pool(256, 4), assigner(&pool), storage(256, 4, cfg.n_layers,
                                                cfg.d_model) {}
  BlockPool pool;
  HybridCacheAssigner assigner;
  BlockStorage storage;
};

TEST(EngineGoldenTest, ForwardBatchEqualsOneItemCalls) {
  // One ForwardBatch over decode spans and prefill chunks of every cache
  // kind — including spans longer than a row group, so the batch splits —
  // must write the same cache bits and logits as one call per item, at
  // every thread count. Rejected items (token out of vocabulary, a span
  // its map does not cover) fail alone and write nothing.
  const ModelConfig cfg = GoldenConfig();
  const TransformerModel model(ModelWeights::Random(cfg, 11));
  struct Spec {
    int32_t start, count;
    Kind kind;
  };
  const std::vector<Spec> specs = {
      {0, 9, Kind::kKV},          {5, 1, Kind::kHidden},
      {12, 1, Kind::kHiddenInt8}, {7, 6, Kind::kKV},
      {20, 1, Kind::kHidden},     {3, 14, Kind::kHiddenInt8},
      {30, 1, Kind::kKV},         {0, 1, Kind::kHidden},
      {2, 120, Kind::kKV},        {40, 70, Kind::kHidden},
      {9, 2, Kind::kHiddenInt8},  {0, 100, Kind::kHiddenInt8},
      {1, 90, Kind::kKV}};
  const int32_t n = static_cast<int32_t>(specs.size());
  int32_t rows = 0;
  for (const Spec& sp : specs) rows += sp.count;
  ASSERT_GT(rows, TransformerModel::kGroupRows);  // the batch splits
  const int32_t kBadToken = 4;  // item index given an out-of-vocab token
  const int32_t kBadMap = 6;    // item index whose span overruns its map
  Rng rng(3);
  std::vector<std::vector<int32_t>> tokens(n);
  for (int32_t i = 0; i < n; ++i) {
    tokens[i].resize(specs[i].start + specs[i].count);
    for (int32_t& t : tokens[i]) {
      t = static_cast<int32_t>(rng.UniformInt(0, cfg.vocab_size - 1));
    }
  }
  tokens[kBadToken].back() = cfg.vocab_size;

  // Maps sized to each span (one short for kBadMap), past [0, start)
  // written by a one-item prefill.
  auto build = [&](Rig* rig) {
    for (int32_t i = 0; i < n; ++i) {
      const Spec& sp = specs[i];
      rig->assigner.SetEncodingPolicy(PolicyFor(sp.kind));
      const int32_t len = sp.start + sp.count - (i == kBadMap ? 1 : 0);
      ASSERT_TRUE(rig->assigner.CreateFilled(i, TypeFor(sp.kind), len).ok());
      if (sp.start == 0) continue;
      std::vector<float> logits;
      const std::vector<int32_t> past(tokens[i].begin(),
                                      tokens[i].begin() + sp.start);
      ASSERT_TRUE(ForwardSpan(model, past, 0, *rig->assigner.Find(i),
                              &rig->storage, &logits)
                      .ok());
    }
  };

  // Reference: one call per valid item, serial.
  Rig ref(cfg);
  build(&ref);
  std::vector<std::vector<float>> want(n);
  for (int32_t i = 0; i < n; ++i) {
    if (i == kBadToken || i == kBadMap) continue;
    const Spec& sp = specs[i];
    const CacheMap& map = *ref.assigner.Find(i);
    const Status st =
        sp.count == 1
            ? ForwardToken(model, tokens[i].back(), sp.start, map,
                           &ref.storage, &want[i])
            : ForwardSpan(model, tokens[i], sp.start, map, &ref.storage,
                          &want[i]);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  for (int32_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RuntimeConfig rc;
    rc.num_threads = threads;
    runtime::ThreadPool pool(rc);
    Rig rig(cfg);
    build(&rig);
    std::vector<std::vector<float>> got(n);
    std::vector<ForwardItem> items(n);
    for (int32_t i = 0; i < n; ++i) {
      items[i].tokens = tokens[i].data() + specs[i].start;
      items[i].start = specs[i].start;
      items[i].count = specs[i].count;
      items[i].map = rig.assigner.Find(i);
      items[i].logits = &got[i];
    }
    model.ForwardBatch(items.data(), n, &rig.storage, &pool);
    EXPECT_TRUE(items[kBadToken].status.IsInvalidArgument());
    EXPECT_TRUE(items[kBadMap].status.IsFailedPrecondition());
    for (int32_t i = 0; i < n; ++i) {
      if (i == kBadToken || i == kBadMap) continue;
      ASSERT_TRUE(items[i].status.ok()) << i << ": "
                                        << items[i].status.ToString();
      ASSERT_EQ(got[i].size(), want[i].size());
      EXPECT_EQ(0, std::memcmp(got[i].data(), want[i].data(),
                               sizeof(float) * want[i].size()))
          << "logits of item " << i;
    }
    for (BlockId b = 0; b < rig.pool.num_blocks(); ++b) {
      for (int32_t l = 0; l < cfg.n_layers; ++l) {
        ASSERT_EQ(0, std::memcmp(rig.storage.Slot(b, l, 0),
                                 ref.storage.Slot(b, l, 0),
                                 sizeof(float) * 4 * cfg.d_model))
            << "block " << b << " layer " << l;
      }
    }
  }
}

}  // namespace
}  // namespace aptserve
