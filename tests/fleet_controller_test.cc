// Event-driven FleetController: elastic scaling (cold-start warmup,
// drain-and-retire, policy votes), live request migration with cache-state
// handoff (refcount conservation, destination prefix dedupe, mid-block COW
// tail survival, bit-identical tokens vs never-migrated runs), and
// thread-count bit-identity of elastic fleets.
#include "serve/fleet_controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "common/env.h"
#include "common/rng.h"
#include "engine/inference_engine.h"
#include "serve/cost_model_backend.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "workload/arrival.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

CostModel Opt13() {
  const ModelSpec m = ModelSpec::Opt13B();
  return CostModel(m, ClusterSpec::ForModel(m));
}

/// `n` requests at a uniform arrival spacing starting at `t0`.
void AppendPhase(std::vector<Request>* trace, int32_t n, double t0,
                 double gap, int32_t prompt_len = 64, int32_t output_len = 16) {
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = static_cast<RequestId>(trace->size());
    r.prompt_len = prompt_len;
    r.output_len = output_len;
    r.arrival = t0 + i * gap;
    trace->push_back(r);
  }
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

BackendFactory CostBackends(const CostModel* cm, bool sharing = false,
                            int32_t pool_blocks = -1) {
  return [cm, sharing,
          pool_blocks](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.enable_prefix_sharing = sharing;
    if (pool_blocks > 0) {
      o.block_size = 4;
      o.pool_blocks_override = pool_blocks;
      o.token_vocab = 1000;
    }
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(*cm, o));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
}

/// A rule that votes down every tick (never up, never holds): forces a
/// drain each scale_down_cooldown_s — the deterministic way to exercise
/// migration in tests.
ScalingRule AlwaysDown() {
  ScalingRule r = ScalingRule::QueueDepth(/*high=*/1e18, /*low=*/1e18);
  return r;
}

TEST(FleetControllerTest, StaticFleetIsDegenerate) {
  const CostModel cm = Opt13();
  std::vector<Request> trace;
  AppendPhase(&trace, 40, 0.0, 0.25);
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  FleetController controller(cfg, &cm);
  auto result = controller.Run(trace, Fcfs(), CostBackends(&cm),
                               SloSpec{1.0, 1.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FleetMetrics& fm = result->fleet;
  EXPECT_EQ(fm.cold_starts, 0);
  EXPECT_EQ(fm.migrations, 0);
  EXPECT_EQ(fm.peak_instances, 2);
  for (const FleetScaleEvent& e : fm.scale_events) {
    EXPECT_TRUE(e.kind == FleetScaleEvent::Kind::kAdd ||
                e.kind == FleetScaleEvent::Kind::kLive);
    EXPECT_EQ(e.time, 0.0);
  }
  // The operator pays for both instances over the whole makespan.
  EXPECT_GT(fm.instance_seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      fm.instance_seconds,
      2 * std::max(result->serve.combined.total_serving_time,
                   fm.instance_seconds / 2));
  // And the serve-side result matches the classic runner bit for bit.
  RouterConfig classic_router;
  classic_router.n_instances = 2;
  classic_router.policy = RoutePolicy::kRoundRobin;
  FleetConfig rr = cfg;
  rr.router.policy = RoutePolicy::kRoundRobin;
  FleetController rr_controller(rr, &cm);
  auto direct = rr_controller.Run(trace, Fcfs(), CostBackends(&cm),
                                  SloSpec{1.0, 1.0});
  MultiInstanceRunner runner(Router(classic_router), ServingLoopConfig{});
  auto classic = runner.Run(trace, Fcfs(), CostBackends(&cm),
                            SloSpec{1.0, 1.0});
  ASSERT_TRUE(direct.ok() && classic.ok());
  EXPECT_EQ(direct->serve.combined.ttfts.samples(),
            classic->combined.ttfts.samples());
  EXPECT_EQ(direct->serve.combined.total_serving_time,
            classic->combined.total_serving_time);
}

TEST(FleetControllerTest, ScalesUpUnderLoadAndDrainsWhenQuiet) {
  const CostModel cm = Opt13();
  std::vector<Request> trace;
  // A hard burst, then a long quiet tail.
  AppendPhase(&trace, 150, 0.0, 0.05, 200, 24);
  AppendPhase(&trace, 20, 60.0, 4.0, 64, 8);
  FleetConfig cfg;
  cfg.router.n_instances = 1;
  cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
  cfg.min_instances = 1;
  cfg.max_instances = 3;
  cfg.tick_interval_s = 0.5;
  cfg.instance_warmup_s = 0.25;
  cfg.scale_up_cooldown_s = 0.5;
  cfg.scale_down_cooldown_s = 5.0;
  cfg.scaling = {ScalingRule::QueueDepth(1.0, 0.1),
                 ScalingRule::TargetUtilization(0.75, 0.25)};
  cfg.enable_migration = true;
  FleetController controller(cfg, &cm);
  auto result = controller.Run(trace, Fcfs(), CostBackends(&cm),
                               SloSpec{5.0, 5.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FleetMetrics& fm = result->fleet;
  EXPECT_GE(fm.cold_starts, 1);
  EXPECT_GE(fm.peak_instances, 2);
  bool drained = false, retired = false;
  for (const FleetScaleEvent& e : fm.scale_events) {
    drained |= e.kind == FleetScaleEvent::Kind::kDrainStart;
    retired |= e.kind == FleetScaleEvent::Kind::kRetire;
  }
  EXPECT_TRUE(drained);
  EXPECT_TRUE(retired);
  // Every cold add warms up exactly instance_warmup_s later.
  std::unordered_map<int32_t, double> add_time;
  for (const FleetScaleEvent& e : fm.scale_events) {
    if (e.kind == FleetScaleEvent::Kind::kAdd && e.time > 0.0) {
      add_time[e.instance] = e.time;
    } else if (e.kind == FleetScaleEvent::Kind::kLive &&
               add_time.count(e.instance)) {
      EXPECT_DOUBLE_EQ(e.time, add_time[e.instance] + 0.25);
    }
  }
  // All requests served; served counts line up with the trace.
  int64_t served = 0;
  for (int32_t c : result->serve.requests_per_instance) served += c;
  EXPECT_EQ(served, static_cast<int64_t>(trace.size()));
  // The whole point: fewer instance-seconds than a peak-sized static
  // fleet over the same timeline.
  double makespan = 0.0;
  for (const auto& [t, n] : fm.size_timeline) {
    makespan = std::max(makespan, t);
    EXPECT_GE(n, 1);
    EXPECT_LE(n, 3);
  }
  EXPECT_LT(fm.instance_seconds, 3 * makespan);
}

TEST(FleetControllerTest, ForcedDrainMigratesQueuedRequestsConservatively) {
  const CostModel cm = Opt13();
  std::vector<Request> trace;
  // An instantaneous burst: queues exist from the first window on, so the
  // forced drains below genuinely evacuate queued requests.
  AppendPhase(&trace, 120, 0.0, 0.001, 150, 16);
  FleetConfig cfg;
  cfg.router.n_instances = 3;
  cfg.min_instances = 1;
  cfg.tick_interval_s = 0.5;
  cfg.scale_down_cooldown_s = 1.0;
  cfg.scaling = {AlwaysDown()};
  cfg.enable_migration = true;
  cfg.max_migrations_per_tick = 64;
  FleetController controller(cfg, &cm);
  // A small pool so real queues form — migrations need waiting requests.
  auto result = controller.Run(trace, Fcfs(),
                               CostBackends(&cm, false, /*pool_blocks=*/512),
                               SloSpec{5.0, 5.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->fleet.migrations, 0);
  int64_t served = 0;
  for (int32_t c : result->serve.requests_per_instance) served += c;
  EXPECT_EQ(served, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(result->serve.combined.eligible_requests,
            static_cast<int64_t>(trace.size()));
  // Exactly two drains (3 -> 1), both retired by the end.
  int32_t drains = 0, retires = 0;
  for (const FleetScaleEvent& e : result->fleet.scale_events) {
    drains += e.kind == FleetScaleEvent::Kind::kDrainStart;
    retires += e.kind == FleetScaleEvent::Kind::kRetire;
  }
  EXPECT_EQ(drains, 2);
  EXPECT_EQ(retires, 2);
}

TEST(FleetControllerTest, ElasticFleetIsThreadCountBitIdentical) {
  const CostModel cm = Opt13();
  std::vector<Request> trace;
  AppendPhase(&trace, 100, 0.0, 0.06, 180, 12);
  AppendPhase(&trace, 15, 30.0, 2.0, 64, 8);
  FleetResult results[2];
  const int32_t threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    FleetConfig cfg;
    cfg.router.n_instances = 2;
    cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
    cfg.min_instances = 1;
    cfg.max_instances = 4;
    cfg.tick_interval_s = 0.5;
    cfg.instance_warmup_s = 0.25;
    cfg.scale_up_cooldown_s = 0.5;
    cfg.scale_down_cooldown_s = 3.0;
    cfg.scaling = {ScalingRule::QueueDepth(1.0, 0.1)};
    cfg.enable_migration = true;
    cfg.migration_imbalance_threshold = 2.0;
    cfg.runtime.num_threads = threads[i];
    FleetController controller(cfg, &cm);
    auto r = controller.Run(trace, Fcfs(),
                            CostBackends(&cm, /*sharing=*/true,
                                         /*pool_blocks=*/512),
                            SloSpec{2.0, 2.0});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results[i] = std::move(*r);
  }
  const SloReport& a = results[0].serve.combined;
  const SloReport& b = results[1].serve.combined;
  EXPECT_EQ(a.ttfts.samples(), b.ttfts.samples());
  EXPECT_EQ(a.p99_tbts.samples(), b.p99_tbts.samples());
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.total_serving_time, b.total_serving_time);
  EXPECT_EQ(results[0].serve.requests_per_instance,
            results[1].serve.requests_per_instance);
  EXPECT_EQ(results[0].fleet.migrations, results[1].fleet.migrations);
  EXPECT_EQ(results[0].fleet.migration_bytes, results[1].fleet.migration_bytes);
  EXPECT_EQ(results[0].fleet.instance_seconds,
            results[1].fleet.instance_seconds);
  EXPECT_EQ(results[0].fleet.scale_events.size(),
            results[1].fleet.scale_events.size());
}

// ---- Cache-state handoff at the engine level ------------------------------

InferenceEngine MakeEngine(bool sharing, uint64_t seed = 42) {
  InferenceEngine engine(ModelConfig::Tiny(), seed, /*num_blocks=*/128,
                         /*block_size=*/4);
  if (sharing) engine.assigner().EnablePrefixSharing();
  return engine;
}

std::vector<int32_t> Prompt(int32_t len, int32_t offset = 1) {
  std::vector<int32_t> p(len);
  for (int32_t i = 0; i < len; ++i) p[i] = (offset + i) % 60;
  return p;
}

TEST(MigrationHandoffTest, RefcountConservationAcrossExportImport) {
  InferenceEngine src = MakeEngine(/*sharing=*/true);
  InferenceEngine dst = MakeEngine(/*sharing=*/true);
  ASSERT_TRUE(src.AddRequest(1, Prompt(10), CacheType::kKV).ok());
  auto chunk = src.PrefillChunk(1, 6);
  ASSERT_TRUE(chunk.ok());
  EXPECT_FALSE(chunk->has_value());  // mid-pass
  EXPECT_GT(src.pool().num_allocated(), 0);

  auto image = src.ExportRequest(1);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->cached_tokens, 6);
  // No pass completed, so the index holds nothing: every exported block
  // must have returned to the source free list — no leak, no double free.
  EXPECT_EQ(src.pool().num_allocated(), 0);
  EXPECT_GT(src.pool().total_exported_blocks(), 0);
  EXPECT_EQ(src.Find(1), nullptr);

  auto import = dst.ImportRequest(1, *image);
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_TRUE(import->cache_restored);
  EXPECT_EQ(import->deduped_tokens, 0);  // empty destination index
  EXPECT_EQ(import->copied_tokens, 6);
  EXPECT_GT(import->bytes, 0.0);
  EXPECT_GT(dst.pool().total_imported_blocks(), 0);
  const std::string dump = dst.pool().DebugString();
  EXPECT_NE(dump.find("imported="), std::string::npos) << dump;

  // Finish the pass and the request on the destination; afterwards only
  // the destination's own index may hold blocks.
  auto done = dst.PrefillChunk(1, 64);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->has_value());
  ASSERT_TRUE(dst.RemoveRequest(1).ok());
  EXPECT_EQ(dst.pool().num_allocated(),
            dst.assigner().prefix_index()->indexed_blocks());
}

TEST(MigrationHandoffTest, DestinationDedupeWithMidBlockCowTail) {
  const std::vector<int32_t> prompt = Prompt(10);
  // Reference: never-migrated generation with the same weights.
  InferenceEngine ref = MakeEngine(/*sharing=*/false);
  ASSERT_TRUE(ref.AddRequest(7, prompt, CacheType::kKV).ok());
  auto ref_tokens = ref.Generate(7, 5);
  ASSERT_TRUE(ref_tokens.ok());

  // Destination already serves the same prompt: its index holds the full
  // prompt blocks.
  InferenceEngine dst = MakeEngine(/*sharing=*/true);
  ASSERT_TRUE(dst.AddRequest(100, prompt, CacheType::kKV).ok());
  ASSERT_TRUE(dst.Prefill(100).ok());
  ASSERT_GT(dst.assigner().prefix_index()->num_nodes(), 0);

  // Source: a mid-pass request, cached span ending mid-block (6 % 4 != 0).
  InferenceEngine src = MakeEngine(/*sharing=*/true);
  ASSERT_TRUE(src.AddRequest(7, prompt, CacheType::kKV).ok());
  ASSERT_TRUE(src.PrefillChunk(7, 6).ok());
  auto image = src.ExportRequest(7);
  ASSERT_TRUE(image.ok());

  auto import = dst.ImportRequest(7, *image);
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_TRUE(import->cache_restored);
  // 4 tokens adopt the shared full block; the 2-token tail is a local COW
  // copy — nothing crosses the interconnect.
  EXPECT_EQ(import->deduped_tokens, 6);
  EXPECT_EQ(import->copied_tokens, 0);
  EXPECT_EQ(import->bytes, 0.0);

  // The migrated request must finish with bit-identical tokens.
  auto chunk = dst.PrefillChunk(7, 64);
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(chunk->has_value());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dst.DecodeStep(7).ok());
  EXPECT_EQ(dst.Find(7)->tokens, *ref_tokens);
}

TEST(MigrationHandoffTest, ColdFallbackWhenDestinationPoolIsFull) {
  InferenceEngine src = MakeEngine(/*sharing=*/false);
  ASSERT_TRUE(src.AddRequest(1, Prompt(12), CacheType::kKV).ok());
  ASSERT_TRUE(src.PrefillChunk(1, 8).ok());
  auto image = src.ExportRequest(1);
  ASSERT_TRUE(image.ok());

  // A destination with a pool too small for the cached span.
  InferenceEngine dst(ModelConfig::Tiny(), /*seed=*/42, /*num_blocks=*/2,
                      /*block_size=*/4);
  auto import = dst.ImportRequest(1, *image);
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_FALSE(import->cache_restored);
  EXPECT_EQ(dst.pool().num_allocated(), 0);
  // The request is registered and re-prefills from scratch.
  ASSERT_NE(dst.Find(1), nullptr);
  EXPECT_EQ(dst.Find(1)->cached_tokens, 0);
}

TEST(MigrationHandoffTest, HiddenCachePayloadMigrates) {
  const std::vector<int32_t> prompt = Prompt(9, 5);
  InferenceEngine ref = MakeEngine(/*sharing=*/false);
  ASSERT_TRUE(ref.AddRequest(3, prompt, CacheType::kHidden).ok());
  auto ref_tokens = ref.Generate(3, 4);
  ASSERT_TRUE(ref_tokens.ok());

  InferenceEngine src = MakeEngine(/*sharing=*/false);
  InferenceEngine dst = MakeEngine(/*sharing=*/false);
  ASSERT_TRUE(src.AddRequest(3, prompt, CacheType::kHidden).ok());
  ASSERT_TRUE(src.PrefillChunk(3, 5).ok());
  auto image = src.ExportRequest(3);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->cache_type, CacheType::kHidden);
  auto import = dst.ImportRequest(3, *image);
  ASSERT_TRUE(import.ok());
  EXPECT_TRUE(import->cache_restored);
  EXPECT_EQ(import->deduped_tokens, 0);  // hidden cache never dedupes
  auto chunk = dst.PrefillChunk(3, 64);
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(chunk->has_value());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dst.DecodeStep(3).ok());
  EXPECT_EQ(dst.Find(3)->tokens, *ref_tokens);
}

// ---- Fleet-level token bit-identity under migration -----------------------

TEST(FleetMigrationTest, MigratedFleetTokensMatchNeverMigratedRun) {
  SharedPrefixConfig wc;
  wc.system_prompt_len = 12;
  wc.num_conversations = 8;
  wc.turns_per_conversation = 3;
  wc.tokens_per_turn = 8;
  wc.output_len_mean = 4;
  wc.output_jitter = 0.2;
  wc.think_time_s = 0.4;
  wc.conversation_stagger_s = 0.05;
  wc.vocab_size = 60;  // inside Tiny's 64-token vocabulary
  wc.seed = 9;
  auto trace = BuildSharedPrefixTrace(wc);
  ASSERT_TRUE(trace.ok());

  // Replica fleet: every instance shares weights (weight_seed 42) and
  // greedy sampling, so a request's tokens depend only on its prompt —
  // the precondition for migration to preserve token streams.
  const auto run = [&](bool migrate)
      -> StatusOr<std::pair<FleetResult,
                            std::unordered_map<RequestId,
                                               std::vector<int32_t>>>> {
    auto sinks = std::make_shared<
        std::vector<std::unordered_map<RequestId, std::vector<int32_t>>>>();
    sinks->reserve(16);
    BackendFactory make_backend =
        [sinks](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
      sinks->emplace_back();
      InferenceBackendOptions o;
      o.virtual_timing = true;
      o.virtual_item_seconds = 0.05;  // slow iterations: passes span ticks
      o.enable_prefix_sharing = true;
      o.finished_sink = &sinks->back();
      return std::unique_ptr<ExecutionBackend>(
          std::make_unique<InferenceBackend>(
              ModelConfig::Tiny(), /*weight_seed=*/42, /*num_blocks=*/256,
              /*block_size=*/4, SamplingParams{}, o));
    };
    FleetConfig cfg;
    cfg.router.n_instances = 3;
    if (migrate) {
      // Hot-rebalance on a static fleet: every queue-depth gap of two or
      // more moves work (with its cache) between the replicas, every tick
      // (threshold 0 acts as 1). Eight conversations queue deep enough to
      // migrate; four never open a gap of two.
      cfg.tick_interval_s = 0.1;
      cfg.enable_migration = true;
      cfg.migration_imbalance_threshold = 0.0;
      cfg.max_migrations_per_tick = 4;
    }
    FleetController controller(cfg);
    SarathiConfig sarathi;
    sarathi.chunk_size = 8;
    APT_ASSIGN_OR_RETURN(
        FleetResult result,
        controller.Run(*trace,
                       [&] { return std::make_unique<SarathiScheduler>(
                                 sarathi); },
                       make_backend, SloSpec{30.0, 30.0}));
    std::unordered_map<RequestId, std::vector<int32_t>> tokens;
    for (auto& sink : *sinks) {
      for (auto& [id, seq] : sink) {
        EXPECT_EQ(tokens.count(id), 0u) << "request finished twice";
        tokens[id] = seq;
      }
    }
    return std::make_pair(std::move(result), std::move(tokens));
  };

  // `sinks` must not reallocate under the pointers handed out: reserve is
  // done above; 16 instances is far beyond what these configs spawn.
  auto stay = run(/*migrate=*/false);
  ASSERT_TRUE(stay.ok()) << stay.status().ToString();
  auto moved = run(/*migrate=*/true);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();

  EXPECT_GT(moved->first.fleet.migrations, 0);
  EXPECT_GT(moved->first.fleet.migrations_with_cache, 0)
      << "test must exercise the cache-carrying path";
  ASSERT_EQ(stay->second.size(), trace->size());
  ASSERT_EQ(moved->second.size(), trace->size());
  for (const auto& [id, seq] : stay->second) {
    ASSERT_TRUE(moved->second.count(id));
    EXPECT_EQ(moved->second.at(id), seq)
        << "request " << id << " tokens diverged after migration";
  }
}

/// Forwards to a backend and fails every import after the fleet's
/// `*imports` reached `cap`: a planner that stops moving requests never
/// notices, one that livelocks fails at once instead of growing forever.
class ImportCappedBackend : public ExecutionBackend {
 public:
  ImportCappedBackend(std::unique_ptr<ExecutionBackend> inner,
                      int64_t* imports, int64_t cap)
      : inner_(std::move(inner)), imports_(imports), cap_(cap) {}

  std::string name() const override { return inner_->name(); }
  Status Prepare(const std::vector<SimRequest>& reqs) override {
    return inner_->Prepare(reqs);
  }
  Status Admit(const SimRequest& sr) override { return inner_->Admit(sr); }
  StatusOr<MigrationImage> ExportRequest(const SimRequest& sr) override {
    return inner_->ExportRequest(sr);
  }
  StatusOr<MigrationImport> ImportRequest(
      const SimRequest& sr, const MigrationImage& image) override {
    if (++*imports_ > cap_) {
      return Status::Internal("migration cap of " + std::to_string(cap_) +
                              " exceeded");
    }
    return inner_->ImportRequest(sr, image);
  }
  const BlockPool* pool() const override { return inner_->pool(); }
  const HybridCacheAssigner* assigner() const override {
    return inner_->assigner();
  }
  const CostModel* cost_model() const override {
    return inner_->cost_model();
  }
  void BeginIteration() override { inner_->BeginIteration(); }
  StatusOr<double> EndIteration() override { return inner_->EndIteration(); }
  double IdleAdvanceSeconds() const override {
    return inner_->IdleAdvanceSeconds();
  }
  Status Release(const SimRequest& sr) override {
    return inner_->Release(sr);
  }
  Status Convert(const SimRequest& sr, CacheType new_type) override {
    return inner_->Convert(sr, new_type);
  }
  StatusOr<bool> TrySwapOut(const SimRequest& sr) override {
    return inner_->TrySwapOut(sr);
  }
  StatusOr<bool> TrySwapIn(const SimRequest& sr) override {
    return inner_->TrySwapIn(sr);
  }
  StatusOr<StepOutcome> ExecutePrefillChunk(const SimRequest& sr,
                                            CacheType cache_type,
                                            int32_t chunk) override {
    return inner_->ExecutePrefillChunk(sr, cache_type, chunk);
  }
  StatusOr<StepOutcome> ExecuteDecode(const SimRequest& sr) override {
    return inner_->ExecuteDecode(sr);
  }
  Status OnFinish(const SimRequest& sr) override {
    return inner_->OnFinish(sr);
  }
  Status Finalize() override { return inner_->Finalize(); }
  int64_t swap_outs() const override { return inner_->swap_outs(); }
  int64_t swap_ins() const override { return inner_->swap_ins(); }
  const PrefixStats* prefix_stats() const override {
    return inner_->prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override {
    return inner_->ReclaimCache(min_blocks);
  }

 private:
  std::unique_ptr<ExecutionBackend> inner_;
  int64_t* imports_;
  int64_t cap_;
};

// Regression: below a threshold of 1, the hottest->coolest rebalance used
// to move a lone waiting request to an idle peer, find the peer now hottest
// and move it back, max_migrations_per_tick times per tick. Each hop pushed
// the request's transfer further out, so it never became schedulable and
// the run never ended (53,895 migrations and 233 MB at t=350 s). Requests
// still in transit no longer move. The import cap makes a relapse fail
// within milliseconds instead of exhausting memory.
TEST(FleetMigrationTest, RebalanceBelowThresholdOneTerminates) {
  SharedPrefixConfig wc;
  wc.num_conversations = 24;
  wc.turns_per_conversation = 5;
  auto trace = BuildSharedPrefixTrace(wc);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  const CostModel cm = Opt13();
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 0.0;
  cfg.max_migrations_per_tick = 8;
  cfg.tick_interval_s = 0.05;
  FleetController controller(cfg, &cm);
  const SchedulerFactory schedulers = [] {
    SarathiConfig sc;
    sc.chunk_size = 64;
    sc.token_budget = 256;
    return std::make_unique<SarathiScheduler>(sc);
  };
  int64_t imports = 0;
  const BackendFactory backends =
      [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.pool_blocks_override = 400;
    o.enable_prefix_sharing = true;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, o));
    return std::unique_ptr<ExecutionBackend>(
        std::make_unique<ImportCappedBackend>(std::move(backend), &imports,
                                              /*cap=*/1000));
  };
  auto result =
      controller.Run(*trace, schedulers, backends, SloSpec{1.0, 1.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->fleet.migrations, imports);
  // Moves happen only at a queue gap of two or more (threshold 0 acts as
  // 1); a rule that also moved at a gap of one made 375 moves here.
  EXPECT_EQ(result->fleet.migrations, 11);
  int32_t served = 0;
  for (int32_t n : result->serve.requests_per_instance) served += n;
  EXPECT_EQ(served, static_cast<int32_t>(trace->size()));
}

// ---- The tick's decisions over fake instance views -------------------------

InstanceView View(int32_t id, InstanceState state, int32_t waiting) {
  InstanceView v;
  v.id = id;
  v.state = state;
  v.waiting = waiting;
  v.unfinished = waiting;
  return v;
}

TEST(FleetDecisionTest, DecideScalePromotesSpawnsAndDrainsTheNewestIdle) {
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.max_instances = 3;
  cfg.scaling = {ScalingRule::QueueDepth(/*high=*/4.0, /*low=*/1.0)};
  // The warming instance's warmup elapsed: it is promoted and votes as
  // live, so the mean queue is 12 / 3 = 4 (a hold), not 12 / 2 (an up).
  std::vector<InstanceView> fleet = {
      View(0, InstanceState::kLive, 6), View(1, InstanceState::kLive, 6),
      View(2, InstanceState::kWarming, 0)};
  fleet[2].live_at = 1.0;
  ScaleDecision d = DecideScale(fleet, cfg, 1.0, -1e9);
  EXPECT_EQ(d.promote, std::vector<int32_t>{2});
  EXPECT_FALSE(d.spawn);
  EXPECT_EQ(d.drain, -1);
  // Still warming at t=0.5: two live instances, mean 6 > 4 votes up, but
  // the fleet is at its ceiling of three.
  d = DecideScale(fleet, cfg, 0.5, -1e9);
  EXPECT_TRUE(d.promote.empty());
  EXPECT_FALSE(d.spawn);
  cfg.max_instances = 4;
  EXPECT_TRUE(DecideScale(fleet, cfg, 0.5, -1e9).spawn);
  EXPECT_FALSE(DecideScale(fleet, cfg, 0.5, 0.0).spawn) << "up cooldown";
  // Quiet: every rule votes down; the least-loaded live instance drains,
  // the newest on ties.
  fleet = {View(0, InstanceState::kLive, 0), View(1, InstanceState::kLive, 0),
           View(2, InstanceState::kDraining, 0)};
  EXPECT_EQ(DecideScale(fleet, cfg, 20.0, 0.0).drain, 1);
  EXPECT_EQ(DecideScale(fleet, cfg, 10.0, 0.0).drain, -1) << "down cooldown";
  cfg.min_instances = 2;
  EXPECT_EQ(DecideScale(fleet, cfg, 20.0, 0.0).drain, -1) << "at the floor";
}

/// One fake instance for the NextMove property: its migration candidates
/// in registration order, each arrived (true) or still in transit.
struct FakeInstance {
  std::deque<bool> candidates;
  int32_t pinned = 0;  ///< waiting but not migratable (swapped out)
};

/// What the apply step re-reads from the two loops a move touched.
void Refresh(const std::vector<FakeInstance>& fakes, int32_t i,
             std::vector<InstanceView>* views) {
  InstanceView& v = (*views)[i];
  v.migratable = static_cast<int32_t>(fakes[i].candidates.size());
  v.ready = static_cast<int32_t>(std::count(
      fakes[i].candidates.begin(), fakes[i].candidates.end(), true));
  v.waiting = v.migratable + fakes[i].pinned;
}

int32_t RoutableSpread(const std::vector<InstanceView>& views) {
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (const InstanceView& v : views) {
    if (!v.Routable()) continue;
    lo = std::min(lo, v.waiting);
    hi = std::max(hi, v.waiting);
  }
  return hi - lo;
}

TEST(FleetDecisionTest, NextMoveShrinksTheGapAndStopsPerTick) {
  const double thresholds[] = {0.0, 0.5, 1, 2, 3, 4, 5, 6, 7, 8};
  const InstanceState states[] = {
      InstanceState::kLive, InstanceState::kLive, InstanceState::kLive,
      InstanceState::kDraining, InstanceState::kWarming,
      InstanceState::kRetired};
  for (uint64_t seed : env::FuzzSeedsFromEnv({1, 2, 3})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    int64_t rebalances = 0, drains = 0, cross_cell = 0, capped = 0;
    for (int32_t round = 0; round < 3000; ++round) {
      FleetConfig cfg;
      cfg.enable_migration = true;
      cfg.migration_imbalance_threshold = thresholds[rng.UniformInt(0, 9)];
      cfg.max_migrations_per_tick = static_cast<int32_t>(rng.UniformInt(1, 12));
      const int32_t n = static_cast<int32_t>(rng.UniformInt(1, 8));
      const int32_t cells = static_cast<int32_t>(rng.UniformInt(1, 3));
      std::vector<FakeInstance> fakes(n);
      std::vector<InstanceView> views(n);
      for (int32_t i = 0; i < n; ++i) {
        views[i].id = i;
        views[i].state = states[rng.UniformInt(0, 5)];
        views[i].cell = static_cast<int32_t>(rng.UniformInt(0, cells - 1));
        const int64_t queued = rng.UniformInt(0, 14);
        for (int64_t q = 0; q < queued; ++q) {
          fakes[i].candidates.push_back(rng.Uniform() < 0.8);
        }
        fakes[i].pinned = static_cast<int32_t>(rng.UniformInt(0, 2));
        Refresh(fakes, i, &views);
      }

      std::vector<bool> received(n, false);
      bool rebalanced = false;
      int32_t moved = 0;
      while (const std::optional<MigrationMove> move =
                 NextMove(views, cfg, moved)) {
        ASSERT_LT(moved, cfg.max_migrations_per_tick)
            << "a tick makes at most max_migrations_per_tick moves";
        const InstanceView& src = views.at(move->src);
        const InstanceView& dst = views.at(move->dst);
        ASSERT_NE(move->src, move->dst);
        ASSERT_TRUE(dst.Routable());
        int32_t coolest = std::numeric_limits<int32_t>::max();
        bool same_cell_exists = false;
        for (const InstanceView& v : views) {
          if (!v.Routable()) continue;
          coolest = std::min(coolest, v.waiting);
          same_cell_exists = same_cell_exists || v.cell == src.cell;
        }
        if (move->drain) {
          ASSERT_FALSE(rebalanced) << "drain evacuation comes first";
          ASSERT_EQ(src.state, InstanceState::kDraining);
          ASSERT_GT(src.migratable, 0);
          if (same_cell_exists) {
            ASSERT_EQ(dst.cell, src.cell)
                << "a drain stays in its cell when it can";
          } else {
            ASSERT_EQ(dst.waiting, coolest);
            ++cross_cell;
          }
          fakes[move->src].candidates.pop_front();
          ++drains;
        } else {
          rebalanced = true;
          ASSERT_TRUE(src.Routable());
          for (const InstanceView& v : views) {
            if (v.Routable()) ASSERT_LE(v.waiting, src.waiting)
                << "the source is the hottest routable instance";
          }
          ASSERT_EQ(dst.waiting, coolest);
          ASSERT_GE(src.waiting - dst.waiting, 2) << "gap before the move";
          ASSERT_GT(src.waiting - dst.waiting,
                    cfg.migration_imbalance_threshold);
          ASSERT_FALSE(received[move->src])
              << "an instance that received a rebalance move became a "
                 "source in the same tick";
          ASSERT_GT(src.ready, 0);
          auto& queue = fakes[move->src].candidates;
          queue.erase(std::find(queue.begin(), queue.end(), true));
          received[move->dst] = true;
          ++rebalances;
        }
        const int32_t spread_before = RoutableSpread(views);
        // Only the destination's loop knows whether the received request
        // is ready this tick: either may happen.
        fakes[move->dst].candidates.push_back(rng.Uniform() < 0.7);
        Refresh(fakes, move->src, &views);
        Refresh(fakes, move->dst, &views);
        if (!move->drain) {
          ASSERT_LE(RoutableSpread(views), spread_before)
              << "a rebalance move never widens the routable spread";
        }
        ++moved;
      }
      if (moved == cfg.max_migrations_per_tick) {
        ++capped;
        EXPECT_FALSE(NextMove(views, cfg, moved).has_value());
      }
    }
    // The rounds must reach every path the assertions guard.
    EXPECT_GT(rebalances, 0);
    EXPECT_GT(drains, 0);
    EXPECT_GT(cross_cell, 0);
    EXPECT_GT(capped, 0);
  }
}

}  // namespace
}  // namespace aptserve
