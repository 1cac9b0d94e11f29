// Hierarchical fleet-of-fleets front tier: consistent-hash cell routing,
// load-summary fallback, cross-cell migration pricing, the affinity-mirror
// LRU cap, router decision-cost accounting, and the queue-wait span
// tracing on the router and cell tracks. The num_cells=1 configuration
// must be bit-identical to a flat fleet — that parity is what lets the
// hierarchy ship default-off. Seeded property checks honor
// APTSERVE_FUZZ_SEEDS like the other fuzz suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "common/env.h"
#include "common/rng.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"
#include "serve/cell_router.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "serve/multi_instance.h"
#include "serve/router.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

Request MakeReq(RequestId id, double arrival, std::vector<int32_t> tokens,
                int32_t output_len = 4) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.prompt_len = static_cast<int32_t>(tokens.size());
  r.token_ids = std::move(tokens);
  r.output_len = output_len;
  return r;
}

std::vector<int32_t> Tokens(int32_t n, int32_t base) {
  std::vector<int32_t> t(n);
  for (int32_t i = 0; i < n; ++i) t[i] = base + i;
  return t;
}

std::vector<Request> ConversationTrace(uint64_t seed = 7) {
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = 16;
  cfg.num_conversations = 6;
  cfg.turns_per_conversation = 4;
  cfg.tokens_per_turn = 12;
  cfg.output_len_mean = 4;
  cfg.vocab_size = 1000;
  cfg.think_time_s = 1.0;
  cfg.conversation_stagger_s = 0.2;
  cfg.seed = seed;
  auto trace = BuildSharedPrefixTrace(cfg);
  EXPECT_TRUE(trace.ok());
  return *trace;
}

BackendFactory CostBackends(const CostModel& cm) {
  return [&cm](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.block_size = 4;
    o.pool_blocks_override = 512;
    o.enable_prefix_sharing = true;
    o.token_vocab = 1000;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, o));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

// ---- Ring and key ----------------------------------------------------------

TEST(CellRouterTest, RingLookupIsDeterministicAndKeyIsPrefixStable) {
  CellRouterConfig cc;
  cc.num_cells = 8;
  CellRouter a(cc, /*block_size_fallback=*/4);
  CellRouter b(cc, 4);
  for (uint64_t key = 1; key < 2000; key += 37) {
    EXPECT_EQ(a.RingCell(key), b.RingCell(key));
  }

  // The key hashes only the leading full chunk(s): two prompts agreeing on
  // the first block map to the same key regardless of their tails.
  const Request turn1 = MakeReq(0, 0.0, Tokens(9, 100));
  Request turn2 = MakeReq(1, 1.0, Tokens(9, 100));
  turn2.token_ids.insert(turn2.token_ids.end(), {900, 901, 902, 903});
  turn2.prompt_len = static_cast<int32_t>(turn2.token_ids.size());
  EXPECT_NE(a.PrefixKey(turn1), 0u);
  EXPECT_EQ(a.PrefixKey(turn1), a.PrefixKey(turn2));
  EXPECT_NE(a.PrefixKey(turn1), a.PrefixKey(MakeReq(2, 2.0, Tokens(9, 500))));

  // No usable chunk: missing ids, or prompt too short for one full block
  // within the first prompt_len - 1 positions.
  Request no_ids;
  no_ids.prompt_len = 64;
  no_ids.arrival = 0.0;
  EXPECT_EQ(a.PrefixKey(no_ids), 0u);
  EXPECT_EQ(a.PrefixKey(MakeReq(3, 0.0, Tokens(4, 0))), 0u);  // usable = 3
  EXPECT_NE(a.PrefixKey(MakeReq(4, 0.0, Tokens(5, 0))), 0u);  // usable = 4
}

TEST(CellRouterTest, HashRoutingPinsAPrefixAndConservesStats) {
  CellRouterConfig cc;
  cc.num_cells = 4;
  CellRouter cells(cc, 4);
  const Request req = MakeReq(0, 0.0, Tokens(12, 42));
  const int32_t home = cells.RouteOne(req, 0.0);
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(cells.RouteOne(req, 0.1 * i), home);
  }
  EXPECT_EQ(cells.stats().decisions, 10);
  EXPECT_EQ(cells.stats().hash_routed, 10);
  EXPECT_EQ(cells.stats().fallback_routed, 0);
  EXPECT_EQ(cells.stats().hash_routed + cells.stats().fallback_routed,
            cells.stats().decisions);
  EXPECT_GT(cells.stats().cell_probes, 0);
}

TEST(CellRouterTest, ImbalanceCapFallsBackToLeastLoadedCell) {
  CellRouterConfig cc;
  cc.num_cells = 4;
  cc.cell_max_imbalance_s = 5.0;
  CellRouter cells(cc, 4);
  const Request req = MakeReq(0, 0.0, Tokens(12, 42));
  const int32_t home = cells.RouteOne(req, 0.0);

  // Pile work onto the hashed cell until it exceeds the cap over the
  // (idle) minimum; the ring choice must yield to the least-loaded cell.
  cells.Commit(home, 0.0, /*service_seconds=*/40.0, /*cell_width=*/2);
  EXPECT_DOUBLE_EQ(cells.Outstanding(home, 0.0), 20.0);
  const int32_t spill = cells.RouteOne(req, 0.0);
  EXPECT_NE(spill, home);
  EXPECT_EQ(cells.stats().fallback_routed, 1);

  // The summary drains in virtual time; once under the cap the hashed
  // cell wins again.
  EXPECT_EQ(cells.RouteOne(req, 16.0), home);
  EXPECT_EQ(cells.stats().hash_routed + cells.stats().fallback_routed,
            cells.stats().decisions);
}

TEST(CellRouterTest, NoUsablePrefixRoutesToLeastLoadedCell) {
  CellRouterConfig cc;
  cc.num_cells = 3;
  CellRouter cells(cc, 4);
  cells.Commit(0, 0.0, 9.0, 1);
  cells.Commit(1, 0.0, 3.0, 1);
  Request no_ids;
  no_ids.prompt_len = 64;
  // Cell 2 is idle — lowest (busy_until, id) among live cells.
  EXPECT_EQ(cells.RouteOne(no_ids, 0.0), 2);
  EXPECT_EQ(cells.stats().fallback_routed, 1);
  cells.Commit(2, 0.0, 12.0, 1);
  EXPECT_EQ(cells.RouteOne(no_ids, 0.0), 1);  // 3s < 9s < 12s
}

TEST(CellRouterTest, SetLiveRetiresAndRestoresCells) {
  CellRouterConfig cc;
  cc.num_cells = 2;
  CellRouter cells(cc, 4);
  const Request req = MakeReq(0, 0.0, Tokens(12, 42));
  const int32_t home = cells.RouteOne(req, 0.0);
  cells.SetLive(home, false);
  EXPECT_NE(cells.RouteOne(req, 0.0), home);  // dead cells are unroutable
  cells.SetLive(home, true);
  EXPECT_EQ(cells.RouteOne(req, 0.0), home);
}

// ---- Cross-cell migration pricing ------------------------------------------

TEST(CellRouterTest, CrossCellMigrationIsPricedOnTheSlowerTier) {
  const ModelSpec m = ModelSpec::Opt13B();
  const ClusterSpec cluster = ClusterSpec::ForModel(m);
  const CostModel cm(m, cluster);
  const double bytes = 1.5e9;
  const double intra = cm.MigrationSeconds(bytes);
  const double cross = cm.MigrationSeconds(bytes, /*cross_cell=*/true);
  EXPECT_DOUBLE_EQ(intra, cm.MigrationSeconds(bytes, false));
  // Both tiers share the fixed per-migration overhead; only the bandwidth
  // term differs, so the delta isolates the cross-cell tier exactly.
  EXPECT_DOUBLE_EQ(cross - intra,
                   bytes / cluster.gpu.cross_cell_bandwidth -
                       bytes / cluster.gpu.interconnect_bandwidth);
  EXPECT_GT(cross, intra);
  EXPECT_EQ(cm.MigrationSeconds(0.0, true), 0.0);
}

// ---- Affinity-mirror LRU cap -----------------------------------------------

TEST(CellRouterTest, MirrorLruCapEvictsOldestAndReportsWitness) {
  RouterConfig rc;
  rc.n_instances = 1;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  rc.affinity_mirror_max_nodes = 8;
  const Router router(rc);
  RouterState state = router.MakeState();
  const std::vector<uint8_t> live = {1};
  bool best_effort = false;
  // 40 disjoint 3-chunk prompts: 120 would-be nodes against a cap of 8.
  for (int i = 0; i < 40; ++i) {
    const Request req = MakeReq(i, 0.1 * i, Tokens(13, 1000 * (i + 1)));
    ASSERT_EQ(router.RouteOne(req, i, live, &state, &best_effort), 0);
  }
  const RouteCostStats& cost = state.cost_stats();
  EXPECT_EQ(cost.decisions, 40);
  EXPECT_GT(cost.mirror_evictions, 0);
  EXPECT_LE(cost.mirror_nodes, 8);
  EXPECT_LE(cost.mirror_node_peak, 8);
  EXPECT_GT(cost.mirror_node_peak, 0);

  // The freshest prompt survived the cap: re-routing it still matches.
  RouterState probe = router.MakeState();
  // (fresh state: deterministic baseline walk count for one find miss)
  (void)probe;
  const int64_t walked_before = cost.mirror_nodes_walked;
  const Request again = MakeReq(40, 4.0, Tokens(13, 1000 * 40));
  router.RouteOne(again, 40, live, &state, &best_effort);
  // Single-live shortcut skips the scoring walk, so walked stays flat —
  // but the resident count still respects the cap after the new insert.
  EXPECT_EQ(state.cost_stats().mirror_nodes_walked, walked_before);
  EXPECT_LE(state.cost_stats().mirror_nodes, 8);
}

// ---- Decision-cost accounting ----------------------------------------------

TEST(CellRouterTest, ProbeAccountingIsExactPerPolicy) {
  std::vector<Request> reqs;
  for (int i = 0; i < 12; ++i) {
    reqs.push_back(MakeReq(i, 0.25 * i, Tokens(9, 10 * i)));
  }
  const std::vector<uint8_t> live = {1, 1, 1};

  {
    RouterConfig rc;
    rc.n_instances = 3;
    rc.policy = RoutePolicy::kRoundRobin;
    const Router router(rc);
    RouterState state = router.MakeState();
    bool be = false;
    for (size_t i = 0; i < reqs.size(); ++i) {
      router.RouteOne(reqs[i], i, live, &state, &be);
    }
    EXPECT_EQ(state.cost_stats().decisions, 12);
    EXPECT_EQ(state.cost_stats().instance_probes, 12);  // one read each
    EXPECT_EQ(state.cost_stats().mirror_nodes_walked, 0);
  }
  {
    RouterConfig rc;
    rc.n_instances = 3;
    rc.policy = RoutePolicy::kLeastOutstandingWork;
    const Router router(rc);
    RouterState state = router.MakeState();
    bool be = false;
    for (size_t i = 0; i < reqs.size(); ++i) {
      router.RouteOne(reqs[i], i, live, &state, &be);
    }
    EXPECT_EQ(state.cost_stats().instance_probes, 12 * 3);  // full scans
  }
  {
    RouterConfig rc;
    rc.n_instances = 3;
    rc.policy = RoutePolicy::kPrefixAffinity;
    rc.block_size = 4;
    const Router router(rc);
    RouterState state = router.MakeState();
    bool be = false;
    for (size_t i = 0; i < reqs.size(); ++i) {
      router.RouteOne(reqs[i], i, live, &state, &be);
    }
    // Fallback scan + candidate probes; every candidate walks >= 1 mirror
    // node (the root-level find) once mirrors are non-empty.
    EXPECT_EQ(state.cost_stats().instance_probes, 12 * 6);
    EXPECT_GT(state.cost_stats().mirror_nodes_walked, 0);
  }
}

// ---- num_cells = 1 parity and hierarchical serving -------------------------

TEST(CellRouterTest, NumCellsOneIsBitIdenticalToFlatFleet) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const auto trace = ConversationTrace();
  RouterConfig rc;
  rc.n_instances = 3;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  const Router router(rc, &cm);

  MultiInstanceRunner flat(router, ServingLoopConfig{});
  CellRouterConfig one_cell;
  one_cell.num_cells = 1;
  MultiInstanceRunner hier(router, ServingLoopConfig{}, RuntimeConfig{},
                           one_cell);
  auto a = flat.Run(trace, Fcfs(), CostBackends(cm), SloSpec{5.0, 5.0});
  auto b = hier.Run(trace, Fcfs(), CostBackends(cm), SloSpec{5.0, 5.0});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a->requests_per_instance, b->requests_per_instance);
  EXPECT_EQ(a->combined.total_serving_time, b->combined.total_serving_time);
  EXPECT_EQ(a->combined.slo_attainment, b->combined.slo_attainment);
  EXPECT_EQ(a->combined.goodput_rps, b->combined.goodput_rps);
  EXPECT_EQ(a->combined.ttfts.samples(), b->combined.ttfts.samples());
  EXPECT_EQ(a->prefill_tokens_computed, b->prefill_tokens_computed);
  EXPECT_EQ(a->prefill_tokens_skipped, b->prefill_tokens_skipped);
  EXPECT_EQ(a->prefix.hits, b->prefix.hits);
  EXPECT_EQ(a->prefix.matched_tokens, b->prefix.matched_tokens);
  EXPECT_EQ(a->tokens_generated, b->tokens_generated);
  // Intra-cell probe counters agree; the degenerate front tier adds no
  // cell probes (its per-decision cost is literally zero reads).
  EXPECT_EQ(a->route_cost.instance_probes, b->route_cost.instance_probes);
  EXPECT_EQ(a->route_cost.mirror_nodes_walked,
            b->route_cost.mirror_nodes_walked);
  // The flat code path is taken verbatim — the front tier never even
  // instantiates, so every cell counter is zero.
  EXPECT_EQ(b->route_cost.cell_probes, 0);
  EXPECT_EQ(b->route_cost.cell_hash_routed, 0);
  EXPECT_EQ(b->route_cost.cell_fallback_routed, 0);
}

TEST(CellRouterTest, HierarchicalServeConservesRequestsAndFoldsCellStats) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const auto trace = ConversationTrace();
  RouterConfig rc;
  rc.n_instances = 4;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = 4;
  CellRouterConfig cc;
  cc.num_cells = 2;
  MultiInstanceRunner runner(Router(rc, &cm), ServingLoopConfig{},
                             RuntimeConfig{}, cc);
  auto r = runner.Run(trace, Fcfs(), CostBackends(cm), SloSpec{5.0, 5.0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  int64_t served = 0;
  for (int32_t c : r->requests_per_instance) served += c;
  EXPECT_EQ(served, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(r->route_cost.decisions, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(r->route_cost.cell_hash_routed + r->route_cost.cell_fallback_routed,
            r->route_cost.decisions);
  EXPECT_GT(r->route_cost.cell_probes, 0);
  EXPECT_GT(r->route_cost.instance_probes, 0);
}

TEST(CellRouterTest, FleetMetricsRecordInstanceCellMapAndPerCellSums) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const auto trace = ConversationTrace();
  FleetConfig cfg;
  cfg.router.n_instances = 4;
  cfg.router.policy = RoutePolicy::kPrefixAffinity;
  cfg.router.block_size = 4;
  cfg.cells.num_cells = 2;
  FleetController controller(cfg, &cm);
  auto r = controller.Run(trace, Fcfs(), CostBackends(cm), SloSpec{5.0, 5.0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const FleetMetrics& fm = r->fleet;
  EXPECT_EQ(fm.num_cells, 2);
  ASSERT_EQ(fm.instance_cell.size(), r->serve.per_instance.size());
  // Initial spawns spread least-populated: 2 instances per cell.
  std::vector<int64_t> per_cell_requests(fm.num_cells, 0);
  std::vector<int64_t> per_cell_prefill(fm.num_cells, 0);
  std::vector<int32_t> width(fm.num_cells, 0);
  for (size_t i = 0; i < fm.instance_cell.size(); ++i) {
    const int32_t cell = fm.instance_cell[i];
    ASSERT_GE(cell, 0);
    ASSERT_LT(cell, fm.num_cells);
    ++width[cell];
    per_cell_requests[cell] += r->serve.requests_per_instance[i];
    per_cell_prefill[cell] += r->serve.prefill_computed_per_instance[i];
  }
  EXPECT_EQ(width, (std::vector<int32_t>{2, 2}));
  int64_t requests = 0, prefill = 0;
  for (int32_t c = 0; c < fm.num_cells; ++c) {
    requests += per_cell_requests[c];
    prefill += per_cell_prefill[c];
  }
  EXPECT_EQ(requests, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(prefill, r->serve.prefill_tokens_computed);
  EXPECT_EQ(fm.cross_cell_migrations, 0);  // static fleet: no migration
}

// ---- Queue-wait spans on router and cell tracks ----------------------------

TEST(CellRouterTest, QueueWaitIsASpanOnRouterAndCellTracks) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const auto trace = ConversationTrace();
  obs::TraceRecorder rec;
  FleetConfig cfg;
  cfg.router.n_instances = 4;
  cfg.router.policy = RoutePolicy::kPrefixAffinity;
  cfg.router.block_size = 4;
  cfg.cells.num_cells = 2;
  cfg.trace = &rec;
  FleetController controller(cfg, &cm);
  auto r = controller.Run(trace, Fcfs(), CostBackends(cm), SloSpec{5.0, 5.0});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  int64_t router_spans = 0, cell_spans = 0, instants = 0;
  std::set<int32_t> cell_tracks;
  const auto events = rec.Flush();
  for (const obs::TraceEvent& e : events) {
    if (e.op != obs::TraceOp::kQueueWait) continue;
    if (e.kind == obs::EventKind::kInstant) ++instants;
    if (e.kind != obs::EventKind::kSpan) continue;
    if (e.track == obs::kRouterTrack) ++router_spans;
    if (e.track <= obs::kCellTrackBase) {
      ++cell_spans;
      cell_tracks.insert(e.track);
    }
  }
  EXPECT_EQ(instants, 0);  // the paired-instant encoding is retired
  EXPECT_GT(router_spans, 0);
  EXPECT_GT(cell_spans, 0);
  EXPECT_EQ(router_spans, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(cell_spans, static_cast<int64_t>(trace.size()));
  EXPECT_LE(cell_tracks.size(), 2u);

  auto stats = obs::CheckTraceEvents(events);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->queue_wait_spans, 0);
}

TEST(CellRouterTest, TraceCheckRejectsQueueWaitInstants) {
  obs::TraceRecorder rec;
  obs::TraceSink sink = rec.MakeSink(obs::kRouterTrack);
  sink.Instant(obs::TraceOp::kQueueWait, 1.0, 1);
  EXPECT_FALSE(obs::CheckTraceEvents(rec.Flush()).ok());
}

// ---- Seeded properties -----------------------------------------------------

TEST(CellRouterTest, SeededRoutingIsDeterministicAndConserving) {
  for (uint64_t seed : env::FuzzSeedsFromEnv({11, 12, 13})) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int32_t num_cells = static_cast<int32_t>(rng.UniformInt(2, 9));
    CellRouterConfig cc;
    cc.num_cells = num_cells;
    cc.cell_max_imbalance_s = rng.Uniform(0.5, 20.0);
    CellRouter a(cc, 4);
    CellRouter b(cc, 4);

    std::vector<Request> reqs;
    double t = 0.0;
    for (int i = 0; i < 400; ++i) {
      t += rng.Uniform(0.0, 0.2);
      // A third of the stream has no usable prefix chunk.
      const bool bare = rng.Uniform() < 0.33;
      Request r = MakeReq(i, t,
                          bare ? std::vector<int32_t>{}
                               : Tokens(static_cast<int32_t>(
                                            rng.UniformInt(5, 40)),
                                        static_cast<int32_t>(
                                            rng.UniformInt(0, 50)) *
                                            64));
      if (bare) r.prompt_len = 16;
      reqs.push_back(std::move(r));
    }
    std::vector<int32_t> route_a, route_b;
    for (const Request& r : reqs) {
      const int32_t ca = a.RouteOne(r, r.arrival);
      const int32_t cb = b.RouteOne(r, r.arrival);
      ASSERT_GE(ca, 0);
      ASSERT_LT(ca, num_cells);
      const double service = rng.Uniform(0.01, 2.0);
      a.Commit(ca, r.arrival, service, 2);
      b.Commit(cb, r.arrival, service, 2);
      route_a.push_back(ca);
      route_b.push_back(cb);
    }
    EXPECT_EQ(route_a, route_b);  // same state evolution, same choices
    EXPECT_EQ(a.stats().decisions, 400);
    EXPECT_EQ(a.stats().hash_routed + a.stats().fallback_routed,
              a.stats().decisions);
    EXPECT_EQ(a.stats().cell_probes, b.stats().cell_probes);
  }
}

}  // namespace
}  // namespace aptserve
