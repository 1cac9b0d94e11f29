// FleetController: the event-driven multi-instance serving layer and the
// only fleet driver. One controller loop serves both clocks: tick
// (elastic fleets only), route what is due, advance the instances. What
// "advance" means is the executor's business:
//   - the virtual executor (Run) steps every instance's serving-loop epochs
//     (ServingLoopState::Step) to the window barrier, in parallel on the
//     fleet thread pool when the runtime allows — the pinned bit-for-bit
//     reference;
//   - the wall executor (RunAsync) runs one worker thread per instance that
//     batches continuously, hands it routed requests over bounded arrival
//     queues, and pumps its completions, sheds and errors from one event
//     queue (serve/async_serving.h has its contract).
// Routing (flat and hierarchical), instance construction with its
// observability, and result assembly are shared by both.
//
// Each tick applies what two pure functions decide over InstanceView
// snapshots: DecideScale votes the pluggable scaling policies (cold start
// after a warmup latency, drain-and-remove), and NextMove plans migrations
// of queued or preempted requests off draining or hot instances *with their
// hybrid KV/hidden cache state* (ServingLoopState::Extract/Receive; shared
// prefix blocks dedupe through the destination's PrefixIndex, and
// CostModel::MigrationSeconds prices the bytes that cross).
//
// Requests are routed live, at arrival, against the currently-live
// instance set (Router::RouteOne); scale events only happen at tick
// boundaries, so routing within a tick window sees a constant fleet.
//
// Determinism: in virtual time, ticks, routing, scaling, and migration all
// run serially at window barriers; instances only execute their own
// independent epochs between barriers. Results are therefore bit-identical
// at any thread count.
//
// The static fleet is the degenerate case: no scaling rules, no migration,
// no ticks. In virtual time it runs as a single infinite window — route
// everything, run every instance to completion (MultiInstanceRunner is a
// facade over it; the router and serving-loop parity suites pin it). Its
// live set never changes, so the wall executor routes every request to the
// same instance as the virtual one.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/length_predictor.h"
#include "runtime/runtime_config.h"
#include "serve/cell_router.h"
#include "serve/router.h"
#include "serve/serving_loop.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "workload/request.h"

namespace aptserve {

struct AsyncServingConfig;
struct AsyncServingResult;
class FleetExecutor;

/// Creates one scheduler per instance (each instance needs its own
/// stateful scheduler object).
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

/// Creates the execution backend for instance `i` (each instance owns its
/// pool/engine).
using BackendFactory =
    std::function<StatusOr<std::unique_ptr<ExecutionBackend>>(int32_t)>;

struct MultiInstanceResult {
  SloReport combined;
  std::vector<SloReport> per_instance;
  /// Requests served per instance (== the routed counts for a static
  /// fleet; migration moves them to where they actually finished).
  std::vector<int32_t> requests_per_instance;
  /// Admission outcomes (zero unless the router rejects/deprioritizes).
  int64_t rejected_requests = 0;
  int64_t deprioritized_requests = 0;
  /// Fleet prefill accounting: positions computed vs adopted from the
  /// instances' prefix indexes, summed and per instance.
  int64_t prefill_tokens_computed = 0;
  int64_t prefill_tokens_skipped = 0;
  std::vector<int64_t> prefill_computed_per_instance;
  std::vector<int64_t> prefill_skipped_per_instance;
  /// Prefix-sharing hit accounting, summed and per instance (all zeros
  /// when the backends run without an index).
  PrefixStats prefix;
  std::vector<PrefixStats> prefix_per_instance;
  int64_t tokens_generated = 0;
  /// Per-request latency records of the requests each instance finished
  /// (moved out of its serving loop; empty for an instance that never saw
  /// a request).
  std::vector<std::unordered_map<RequestId, RequestRecord>>
      records_per_instance;
  /// Deterministic routing decision-cost counters for the whole run
  /// (intra-cell router probes plus, for a hierarchical fleet, the front
  /// tier's cell counters folded into the cell_* fields).
  RouteCostStats route_cost;
};

/// One pluggable scaling policy evaluated every controller tick. Rules
/// combine conservatively: any up-vote wins; the fleet shrinks only when
/// no rule votes up, at least one votes down, and none holds.
struct ScalingRule {
  enum class Kind {
    /// Mean block-pool utilization across live instances.
    kTargetUtilization,
    /// Trailing-window fleet TTFT attainment floor. Up-only — a guard
    /// never votes to shrink, and abstains while the window is empty.
    kSloAttainmentGuard,
    /// Waiting (queued) requests per live instance.
    kQueueDepth,
  };
  Kind kind = Kind::kQueueDepth;
  /// kTargetUtilization thresholds.
  double util_high = 0.85;
  double util_low = 0.30;
  /// kQueueDepth thresholds.
  double queue_high = 8.0;
  double queue_low = 1.0;
  /// kSloAttainmentGuard floor and rolling window.
  double attainment_floor = 0.90;
  double window_s = 30.0;

  static ScalingRule TargetUtilization(double high = 0.85, double low = 0.30) {
    ScalingRule r;
    r.kind = Kind::kTargetUtilization;
    r.util_high = high;
    r.util_low = low;
    return r;
  }
  static ScalingRule QueueDepth(double high = 8.0, double low = 1.0) {
    ScalingRule r;
    r.kind = Kind::kQueueDepth;
    r.queue_high = high;
    r.queue_low = low;
    return r;
  }
  static ScalingRule SloAttainmentGuard(double floor = 0.90,
                                        double window_s = 30.0) {
    ScalingRule r;
    r.kind = Kind::kSloAttainmentGuard;
    r.attainment_floor = floor;
    r.window_s = window_s;
    return r;
  }
};

/// The single home of fleet options.
struct FleetConfig {
  /// Routing policy, admission control, and the *initial* fleet size
  /// (router.n_instances).
  RouterConfig router;
  ServingLoopConfig loop;
  /// Fleet runtime: instances step concurrently on up to this many threads
  /// between controller barriers (bit-identical to serial).
  RuntimeConfig runtime;

  // ---- Elasticity ----------------------------------------------------------
  int32_t min_instances = 1;
  /// Scale-up ceiling; 0 means router.n_instances (no headroom).
  int32_t max_instances = 0;
  /// Controller tick (virtual seconds) between policy evaluations.
  double tick_interval_s = 1.0;
  /// Cold-start latency: a spawned instance starts serving this much
  /// virtual time after its spawn tick.
  double instance_warmup_s = 0.5;
  /// Empty = never scale (the static fleet).
  std::vector<ScalingRule> scaling;
  /// Minimum virtual time between scaling actions (anti-flapping).
  /// Asymmetric on purpose: growing is cheap to undo, shrinking under
  /// rising load costs SLO misses, so fleets react up fast and down slowly.
  double scale_up_cooldown_s = 2.0;
  double scale_down_cooldown_s = 15.0;

  // ---- Hierarchy (fleet of fleets) -----------------------------------------
  /// Two-level topology: cells.num_cells > 1 partitions the fleet into
  /// cells; a consistent-hash front tier (CellRouter) picks the cell from
  /// the request's leading prefix chunks, then the configured router
  /// policy runs unchanged over that cell's live members. num_cells = 1
  /// (the default) is the flat fleet, bit-identical to a config that
  /// predates cells. Instances are assigned to the least-populated cell
  /// at spawn (initial fleet: round-robin). Planner migrations prefer
  /// same-cell destinations; a forced cross-cell move is priced on the
  /// slower cross-cell interconnect tier.
  CellRouterConfig cells;

  // ---- Migration -----------------------------------------------------------
  /// Enables the migration planner: draining instances evacuate their
  /// queued/preempted requests, and hot instances shed queue depth to cool
  /// ones, cache state travelling along.
  bool enable_migration = false;
  /// Hot-rebalance trigger: (max - min) waiting-queue depth across live
  /// instances must exceed this before a rebalance migration happens.
  /// Thresholds below 1 act as 1: a move at a gap of one would only swap
  /// which instance is hottest.
  double migration_imbalance_threshold = 8.0;
  /// Per-tick cap on planner moves (drain evacuation + rebalance).
  int32_t max_migrations_per_tick = 8;

  // ---- Observability -------------------------------------------------------
  /// Optional, borrowed. When set, the controller emits scale events on
  /// the controller track, routes through a traced router state, and hands
  /// each instance's serving loop a per-instance sink. Purely
  /// observational: null (the default) runs bit-identically to a build
  /// without tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Optional, borrowed. Collects fleet counters (migrations, bytes, cold
  /// starts, scale events by kind) plus the per-instance serving-loop
  /// metrics. Same purely-observational contract as `trace`.
  obs::MetricsRegistry* metrics = nullptr;

  bool IsElastic() const { return !scaling.empty() || enable_migration; }
  int32_t MaxInstances() const {
    return std::max(max_instances, router.n_instances);
  }
};

enum class InstanceState { kWarming, kLive, kDraining, kRetired };

/// What a tick's decisions read of one instance; a fleet's views are
/// indexed by instance id (`views[i].id == i`).
struct InstanceView {
  int32_t id = 0;
  InstanceState state = InstanceState::kLive;
  int32_t cell = 0;
  int32_t waiting = 0;
  int32_t unfinished = 0;
  double pool_utilization = 0.0;
  double live_at = 0.0;
  /// Per FleetConfig::scaling rule, (TTFT-met, total) finishes in its
  /// window if it is a kSloAttainmentGuard, else zeros.
  std::vector<std::pair<int64_t, int64_t>> ttft_finishes;
  int32_t migratable = 0;  ///< waiting and not swapped out
  int32_t ready = 0;       ///< of those, arrived (not in transit)
  bool Routable() const { return state == InstanceState::kLive; }
};

/// Warmups that elapsed, then at most one of a spawn or a drain (the live
/// instance to start draining).
struct ScaleDecision {
  std::vector<int32_t> promote;
  bool spawn = false;
  int32_t drain = -1;
};

/// Votes the scaling rules over `fleet` at tick `t`, subject to the
/// cooldowns since `last_scale_change` and the instance bounds.
ScaleDecision DecideScale(const std::vector<InstanceView>& fleet,
                          const FleetConfig& config, double t,
                          double last_scale_change);

/// One migration: the front candidate of `src` moves to `dst`. A drain
/// move takes any migratable request, a rebalance move an arrived one.
struct MigrationMove {
  int32_t src = -1;
  int32_t dst = -1;
  bool drain = false;
};

/// The tick's next migration after `moved` moves, or none. Draining
/// instances evacuate first, to the coolest routable instance (same cell
/// preferred); then the hottest routable instance sheds to the coolest
/// while their waiting gap exceeds max(migration_imbalance_threshold, 1).
/// A move never inverts the pair and lowers Σ waiting² by at least 2, so
/// a tick's moves terminate.
std::optional<MigrationMove> NextMove(const std::vector<InstanceView>& fleet,
                                      const FleetConfig& config,
                                      int32_t moved);

struct FleetResult {
  MultiInstanceResult serve;
  FleetMetrics fleet;
};

class FleetController {
 public:
  /// Routes through a copy of `router` (its config().n_instances is the
  /// initial fleet size; config.router is ignored for routing).
  /// `migration_cost_model` prices cache transfers; defaults to the
  /// router's own cost model (instantaneous when neither exists).
  FleetController(const FleetConfig& config, const Router& router,
                  const CostModel* migration_cost_model = nullptr);

  /// Builds the Router from config.router with the given estimators.
  explicit FleetController(const FleetConfig& config,
                           const CostModel* cost_model = nullptr,
                           const OutputLengthPredictor* predictor = nullptr);

  /// Serves `trace` (sorted by arrival) in virtual time. Routing is live,
  /// so the factories run for every spawned instance before anyone knows
  /// whether traffic will reach it: they must succeed for every instance
  /// id up to the scale ceiling.
  StatusOr<FleetResult> Run(const std::vector<Request>& trace,
                            const SchedulerFactory& make_scheduler,
                            const BackendFactory& make_backend,
                            const SloSpec& slo);

  /// Serves `trace` in wall time on the static fleet (the config must not
  /// be elastic): the same routing as Run, so token streams match Run's
  /// bit-for-bit while timing is real. Observability comes from
  /// async.trace / async.metrics, stamped by the wall clock.
  StatusOr<AsyncServingResult> RunAsync(const std::vector<Request>& trace,
                                        const SchedulerFactory& make_scheduler,
                                        const BackendFactory& make_backend,
                                        const SloSpec& slo,
                                        const AsyncServingConfig& async);

  const Router& router() const { return router_; }
  const FleetConfig& config() const { return config_; }

 private:
  /// The controller loop both clocks share; `exec` advances the instances.
  StatusOr<FleetResult> Serve(const std::vector<Request>& trace,
                              const SchedulerFactory& make_scheduler,
                              const BackendFactory& make_backend,
                              const SloSpec& slo, FleetExecutor* exec);

  FleetConfig config_;
  Router router_;
  const CostModel* migration_cost_model_;
};

/// Merges per-instance reports into a fleet-level report: attainment is
/// weighted by eligible (non-best-effort) requests, latency sample sets
/// are unioned, serving time is the parallel maximum, counters are summed,
/// goodput is the merged SLO-met count over the fleet serving time.
SloReport MergeReports(const std::vector<SloReport>& reports,
                       const std::vector<int32_t>& request_counts);

}  // namespace aptserve
