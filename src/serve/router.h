// Router: the fleet-level serving front-end. It owns the global arrival
// queue — every request entering a multi-instance fleet passes through
// Route() — and decides, per request in arrival order, (a) whether the
// request is admitted against its SLO and (b) which instance serves it.
//
// Policies:
//   - kRoundRobin / kLeastLoaded / kPowerOfTwo: the pre-router dispatch
//     policies, reproduced bit-for-bit (same sliding-window backlog, same
//     RNG draw sequence) so existing fleets behave identically.
//   - kLeastOutstandingWork: routes to the instance with the least
//     *predicted* outstanding work — each routed request contributes its
//     estimated prefill seconds plus predicted-output-length decode
//     seconds (core/length_predictor + the cost model), draining in real
//     time (a per-instance busy-until clock).
//   - kPrefixAffinity: probes a per-instance mirror of the instances'
//     PrefixIndex content (block-granular radix match over routed prompt
//     token ids) and routes to the longest match, capped by a
//     load-imbalance bound; no usable match falls back to least
//     outstanding work. Cross-instance cache locality becomes goodput:
//     turns of one conversation land where their prefix already lives.
//
// Admission control (optional): a request whose predicted TTFT — queue
// wait on the chosen instance plus its own prefill time — exceeds
// `admission_slack` times its effective TTFT deadline is rejected (never
// served; counted into fleet attainment as a miss) or deprioritized
// (served best-effort, excluded from attainment/goodput).
//
// Determinism: Route() is a pure function of (trace, config, cost model,
// predictor state) — a single serial pass with no wall-clock or
// cross-thread input — so fleet results are bit-identical at any thread
// count and across backends, which is what makes the cross-backend
// differential tests possible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/length_predictor.h"
#include "obs/trace_recorder.h"
#include "runtime/clock.h"
#include "sim/cost_model.h"
#include "sim/metrics.h"
#include "workload/request.h"

namespace aptserve {

enum class RoutePolicy {
  kRoundRobin,
  kLeastLoaded,
  kPowerOfTwo,
  kLeastOutstandingWork,
  kPrefixAffinity,
};

const char* RoutePolicyName(RoutePolicy p);

enum class AdmissionMode {
  kNone,          ///< admit everything (default; pre-router behavior).
  kReject,        ///< turn away requests predicted to miss their deadline.
  kDeprioritize,  ///< serve them best-effort instead (excluded from goodput).
};

struct RouterConfig {
  int32_t n_instances = 2;
  RoutePolicy policy = RoutePolicy::kRoundRobin;

  /// kLeastLoaded / kPowerOfTwo: sliding window (seconds) over which
  /// dispatched prompt tokens count as backlog, and the p2c seed.
  double load_window_s = 30.0;
  uint64_t dispatch_seed = 99;

  /// kLeastOutstandingWork / admission: predicted output length when the
  /// predictor has no signal for a prompt-length bucket (or none is set).
  double default_output_len = 128.0;

  /// kPrefixAffinity: granularity of the affinity mirror. Match it to the
  /// instances' cache block size so the mirror's full-block score tracks
  /// their PrefixIndex match lengths (the mirror approximates the real
  /// index: it ignores partial-block COW spans, never evicts, and inserts
  /// at route time rather than at prefill completion — a routing score,
  /// not an accounting oracle).
  int32_t block_size = 16;
  /// Load-imbalance cap: an instance is an affinity candidate only while
  /// its outstanding work exceeds the fleet minimum by at most this many
  /// seconds. Keeps a hot shared prefix from funneling the whole trace
  /// onto one instance.
  double affinity_max_imbalance_s = 10.0;
  /// Per-instance cap on affinity-mirror radix nodes. When an Insert would
  /// exceed it the mirror LRU-evicts leaf chunks (oldest last-touch first),
  /// so long runs degrade gracefully instead of growing without bound.
  /// Generous by default: ~256k nodes per instance, each one block chunk.
  int64_t affinity_mirror_max_nodes = int64_t{1} << 18;

  AdmissionMode admission = AdmissionMode::kNone;
  /// Reject/deprioritize when predicted TTFT > slack * effective deadline.
  double admission_slack = 1.0;
  /// Deadlines for requests that carry no per-request SLO.
  SloSpec default_slo{1.0, 1.0};
};

struct RouteDecision {
  static constexpr int32_t kRejected = -1;

  /// Instance per trace index; kRejected for turned-away requests.
  std::vector<int32_t> assignment;
  /// Deprioritized (best-effort) flag per trace index.
  std::vector<uint8_t> best_effort;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t deprioritized = 0;
  std::vector<int32_t> admitted_per_instance;
};

/// Deterministic routing-cost accounting, accumulated across every
/// RouteOne against one RouterState. Counts state *examinations* — not
/// wall time — so the numbers are bit-identical across thread counts and
/// build modes, and regressions show up as counter diffs:
///   - instance_probes: per-instance load/backlog/score reads (each
///     instance examined by a policy scan, p2c sample, or admission spill
///     counts once).
///   - mirror_nodes_walked: affinity-mirror radix nodes visited while
///     scoring candidates (the term that grows with both fleet size and
///     prefix depth under flat kPrefixAffinity).
///   - mirror_nodes / mirror_node_peak / mirror_evictions: resident mirror
///     footprint across all instances and the LRU-cap witness.
/// The hierarchical front tier folds its cell-level counters into the
/// cell_* fields so one struct describes the whole routing path.
struct RouteCostStats {
  int64_t decisions = 0;
  int64_t instance_probes = 0;
  int64_t mirror_nodes_walked = 0;
  int64_t mirror_nodes = 0;
  int64_t mirror_node_peak = 0;
  int64_t mirror_evictions = 0;
  int64_t cell_probes = 0;
  int64_t cell_hash_routed = 0;
  int64_t cell_fallback_routed = 0;

  /// Total examinations per routing decision — the bench's scaling gate.
  double ProbesPerDecision() const {
    return decisions > 0 ? static_cast<double>(instance_probes +
                                               mirror_nodes_walked +
                                               cell_probes) /
                               static_cast<double>(decisions)
                         : 0.0;
  }
};

/// The mutable routing model (backlog windows, busy-until clocks, affinity
/// mirrors, the p2c RNG) held across incremental RouteOne calls. Opaque;
/// created by Router::MakeState. The event-driven FleetController keeps one
/// per run and routes each arrival as it happens against the live instance
/// set; Router::Route is the batch form over an all-live fleet.
class RouterState {
 public:
  RouterState();
  ~RouterState();
  RouterState(RouterState&&) noexcept;
  RouterState& operator=(RouterState&&) noexcept;

  /// Instances this state can route to (fixed at MakeState).
  int32_t capacity() const;

  /// Routing-cost counters accumulated by RouteOne calls against this
  /// state (cell_* fields stay zero; the fleet controller merges the
  /// hierarchical tier's counters in when reporting).
  const RouteCostStats& cost_stats() const;

 private:
  friend class Router;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class Router {
 public:
  /// `cost_model` (optional, borrowed) prices work estimates for
  /// kLeastOutstandingWork, the affinity imbalance cap, and admission
  /// control; without one, estimates fall back to a fixed 1 ms per token
  /// of prompt plus predicted output. `predictor` (optional, borrowed)
  /// supplies expected output lengths; without one, default_output_len is
  /// used.
  explicit Router(const RouterConfig& config,
                  const CostModel* cost_model = nullptr,
                  const OutputLengthPredictor* predictor = nullptr);

  /// Routes `trace` (sorted by arrival) in one deterministic pass. All
  /// routing state (backlog windows, busy-until clocks, affinity mirrors,
  /// the p2c RNG) is local to the call, so Route is const and repeatable.
  /// Implemented as MakeState + RouteOne per request over an all-live
  /// fleet, so batch and incremental routing are bit-identical.
  RouteDecision Route(const std::vector<Request>& trace) const;

  /// A fresh routing state for incremental routing, able to address
  /// max(config().n_instances, max_instances) instances (an elastic fleet
  /// sizes it at its scale-up ceiling).
  RouterState MakeState(int32_t max_instances = 0) const;

  /// Grows `state` to address `n_instances` (new instances start with
  /// empty routing models). Instance ids are lifetime-unique in an elastic
  /// fleet — a retired id is never reused — so the state grows past the
  /// alive ceiling over a long run. No-op when already large enough.
  void GrowState(RouterState* state, int32_t n_instances) const;

  /// Routes one request (requests must be fed in arrival order) against
  /// the instances with live[i] != 0, updating `state`'s models exactly as
  /// the batch pass would. `trace_index` drives round-robin. Returns the
  /// chosen instance or RouteDecision::kRejected; `*best_effort` reports an
  /// admission deprioritization. At least one instance must be live.
  int32_t RouteOne(const Request& req, size_t trace_index,
                   const std::vector<uint8_t>& live, RouterState* state,
                   bool* best_effort) const;

  /// RouteOne against an explicit live-instance id list (ascending,
  /// non-empty, ids < state capacity). Bit-identical to the mask form fed
  /// the equivalent mask; the mask form is a thin wrapper over this. The
  /// hierarchical front tier calls this with a cell's member list so the
  /// per-decision cost scales with the cell width, not the fleet width.
  int32_t RouteOneLive(const Request& req, size_t trace_index,
                       const std::vector<int32_t>& live_ids,
                       RouterState* state, bool* best_effort) const;

  /// Attaches a trace sink to `state`: subsequent RouteOne calls emit
  /// route-decision and admission-verdict events on the router track.
  /// Purely observational (no routing state is touched). `clock`
  /// (optional, borrowed) stamps events in wall time — the wall-clock
  /// fleet passes its replay clock; null stamps them with each request's
  /// arrival time, the virtual frame the router already routes in.
  void AttachTrace(RouterState* state, obs::TraceSink sink,
                   const runtime::Clock* clock = nullptr) const;

  /// Estimated seconds to serve `r` alone: prefill plus predicted decode.
  /// The fleet's cell router commits this as a cell's admitted work, and
  /// tests of the admission math read it.
  double EstimatedServiceSeconds(const Request& r) const;

  const RouterConfig& config() const { return config_; }
  /// The cost model pricing this router's work estimates (null when none);
  /// the fleet controller reuses it to price migration transfers.
  const CostModel* cost_model() const { return cost_model_; }

 private:
  double PredictedOutputLen(const Request& r) const;
  /// Estimated prefill-only seconds (the TTFT compute term).
  double EstimatedPrefillSeconds(const Request& r) const;

  RouterConfig config_;
  const CostModel* cost_model_;
  const OutputLengthPredictor* predictor_;
};

}  // namespace aptserve
