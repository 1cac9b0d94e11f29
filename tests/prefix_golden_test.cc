// Golden pins of the prefix-sharing path on both execution backends:
//   - a two-instance CostModelBackend fleet on a shared-prefix trace with
//     the migration planner moving mid-prefill (chunked) requests, so
//     fresh-pass seeding, copy-on-write tails, LRU eviction, end-of-pass
//     publication and the dedupe match on migration import all run;
//   - a two-instance InferenceBackend fleet (the real Tiny transformer,
//     virtual timing) on the same kind of trace, so the engine's seeding,
//     COW payload copy, publication and import dedupe run on real blocks.
// Every value was recorded from an earlier build and is compared exactly
// (doubles as hex floats). No committed CSV runs either path with sharing
// on, so only these recordings catch a change in what a hit is worth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/sarathi_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "serve/inference_backend.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

/// FNV-1a accumulator over raw bytes.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Mix(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Mix(const T& v) {
    Mix(&v, sizeof(v));
  }
};

/// Every request's TTFT, finish time and TBT samples, requests
/// in id order.
uint64_t LatencyDigest(const MultiInstanceResult& r) {
  std::vector<std::pair<RequestId, const RequestRecord*>> recs;
  for (const auto& records : r.records_per_instance) {
    for (const auto& [id, rec] : records) recs.emplace_back(id, &rec);
  }
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Fnv f;
  for (const auto& [id, rec] : recs) {
    f.Mix(id);
    f.Mix(rec->ttft);
    f.Mix(rec->finish_time);
    const int64_t n = static_cast<int64_t>(rec->tbt_samples.size());
    f.Mix(n);
    for (double gap : rec->tbt_samples) f.Mix(gap);
  }
  return f.h;
}

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

/// `trace` plus, for every third request, a repeat one second later whose
/// prompt is the original's first two thirds, cut to a multiple of 16
/// tokens. Once the original is indexed, the repeat's whole prompt is
/// cached; the match stops one position short of it (the pass must compute
/// a position to sample from), so it ends mid-block and seeds a
/// copy-on-write tail. Ids are renumbered in arrival order.
std::vector<Request> WithTruncatedRepeats(std::vector<Request> trace) {
  const size_t n = trace.size();
  for (size_t i = 0; i < n; i += 3) {
    Request r = trace[i];
    r.prompt_len = std::max(16, 2 * r.prompt_len / 3 / 16 * 16);
    r.token_ids.resize(r.prompt_len);
    r.arrival += 1.0;
    trace.push_back(std::move(r));
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<RequestId>(i);
  }
  return trace;
}

/// Every finished request's full token sequence, requests in id order.
uint64_t TokenDigest(const TokenMap& tokens) {
  std::vector<RequestId> ids;
  for (const auto& [id, seq] : tokens) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  Fnv f;
  for (RequestId id : ids) {
    const auto& seq = tokens.at(id);
    f.Mix(id);
    const int64_t n = static_cast<int64_t>(seq.size());
    f.Mix(n);
    f.Mix(seq.data(), seq.size() * sizeof(int32_t));
  }
  return f.h;
}

void ExpectStats(const PrefixStats& s, const PrefixStats& want) {
  EXPECT_EQ(s.lookups, want.lookups);
  EXPECT_EQ(s.hits, want.hits);
  EXPECT_EQ(s.matched_tokens, want.matched_tokens);
  EXPECT_EQ(s.shared_blocks, want.shared_blocks);
  EXPECT_EQ(s.cow_matches, want.cow_matches);
  EXPECT_EQ(s.inserted_blocks, want.inserted_blocks);
  EXPECT_EQ(s.evicted_blocks, want.evicted_blocks);
}

TEST(PrefixGoldenTest, CostModelFleetWithMigrationMatchesRecording) {
  SharedPrefixConfig wc;
  wc.system_prompt_len = 200;
  wc.num_conversations = 64;
  wc.turns_per_conversation = 5;
  wc.tokens_per_turn = 90;
  wc.output_len_mean = 40;
  wc.think_time_s = 0.3;
  wc.conversation_stagger_s = 0.02;
  wc.seed = 11;
  auto trace = BuildSharedPrefixTrace(wc);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const ModelSpec model = ModelSpec::Opt13B();
  const CostModel cm(model, ClusterSpec::ForModel(model));
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.router.policy = RoutePolicy::kRoundRobin;
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 1.0;
  cfg.max_migrations_per_tick = 8;
  cfg.tick_interval_s = 0.2;
  FleetController controller(cfg, &cm);
  // Chunked prefill keeps mid-pass requests (holding cache) in the waiting
  // queue, so planner migrations carry cache and dedupe against the
  // destination's index.
  const SchedulerFactory schedulers = [] {
    SarathiConfig sc;
    sc.chunk_size = 64;
    sc.token_budget = 256;
    return std::make_unique<SarathiScheduler>(sc);
  };
  const BackendFactory backends =
      [&cm](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.pool_blocks_override = 400;
    o.enable_prefix_sharing = true;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, o));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
  auto result = controller.Run(WithTruncatedRepeats(*trace), schedulers,
                               backends, SloSpec{1.0, 1.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const FleetMetrics& fm = result->fleet;
  const MultiInstanceResult& r = result->serve;
  // 79 moves, 75 of them carrying cache that partly deduped against the
  // destination's index.
  EXPECT_EQ(fm.migrations, 79);
  EXPECT_EQ(fm.migrations_with_cache, 75);
  EXPECT_EQ(fm.migration_deduped_tokens, 15488);
  EXPECT_EQ(fm.migration_copied_tokens, 14205);
  EXPECT_EQ(r.prefill_tokens_computed, 119344);
  EXPECT_EQ(r.prefill_tokens_skipped, 121589);
  EXPECT_EQ(r.tokens_generated, 17206);
  EXPECT_EQ(LatencyDigest(r), 0x749858d453eba038ull);
  ExpectStats(r.prefix, {675, 668, 137077, 8542, 27, 11856, 11100});
  ASSERT_EQ(r.prefix_per_instance.size(), 2u);
  ExpectStats(r.prefix_per_instance[0],
              {340, 336, 68639, 4274, 17, 5938, 5556});
  ExpectStats(r.prefix_per_instance[1],
              {335, 332, 68438, 4268, 10, 5918, 5544});
}

TEST(PrefixGoldenTest, EngineFleetWithMigrationMatchesRecording) {
  SharedPrefixConfig wc;
  wc.system_prompt_len = 14;
  wc.num_conversations = 5;
  wc.turns_per_conversation = 3;
  wc.tokens_per_turn = 7;
  wc.output_len_mean = 5;
  wc.output_jitter = 0.2;
  wc.think_time_s = 0.4;
  wc.conversation_stagger_s = 0.05;
  wc.vocab_size = ModelConfig::Tiny().vocab_size;
  wc.seed = 5;
  auto trace = BuildSharedPrefixTrace(wc);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  auto sinks = std::make_shared<std::vector<TokenMap>>();
  sinks->reserve(4);  // pointers into it are handed to the backends
  const BackendFactory backends =
      [sinks](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    sinks->emplace_back();
    InferenceBackendOptions o;
    o.virtual_timing = true;
    o.virtual_item_seconds = 0.05;
    o.enable_prefix_sharing = true;
    o.finished_sink = &sinks->back();
    return std::unique_ptr<ExecutionBackend>(
        std::make_unique<InferenceBackend>(
            ModelConfig::Tiny(), /*weight_seed=*/42, /*num_blocks=*/40,
            /*block_size=*/4, SamplingParams{}, o));
  };
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.tick_interval_s = 0.1;
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 0.0;
  cfg.max_migrations_per_tick = 4;
  FleetController controller(cfg);
  const SchedulerFactory schedulers = [] {
    SarathiConfig sc;
    sc.chunk_size = 8;
    return std::make_unique<SarathiScheduler>(sc);
  };
  const std::vector<Request> served = WithTruncatedRepeats(*trace);
  auto result =
      controller.Run(served, schedulers, backends, SloSpec{30.0, 30.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  TokenMap tokens;
  for (auto& sink : *sinks) tokens.insert(sink.begin(), sink.end());
  ASSERT_EQ(tokens.size(), served.size());

  const FleetMetrics& fm = result->fleet;
  const MultiInstanceResult& r = result->serve;
  // Threshold 0 acts as 1: only gaps of two or more move work, so the
  // gap-one bounces of the original recording (34 moves) are gone.
  EXPECT_EQ(fm.migrations, 2);
  EXPECT_EQ(fm.migrations_with_cache, 2);
  EXPECT_EQ(fm.migration_deduped_tokens, 40);
  EXPECT_EQ(fm.migration_copied_tokens, 8);
  EXPECT_EQ(r.prefill_tokens_computed, 323);
  EXPECT_EQ(r.prefill_tokens_skipped, 253);
  EXPECT_EQ(TokenDigest(tokens), 0xa3d152113e2bd13bull);
  ExpectStats(r.prefix, {25, 21, 293, 71, 3, 120, 52});
  ASSERT_EQ(r.prefix_per_instance.size(), 2u);
  ExpectStats(r.prefix_per_instance[0], {13, 11, 159, 39, 1, 64, 32});
  ExpectStats(r.prefix_per_instance[1], {12, 10, 134, 32, 2, 56, 20});
}

}  // namespace
}  // namespace aptserve
