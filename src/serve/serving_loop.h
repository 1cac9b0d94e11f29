// ServingLoop: THE iteration-level serving loop (paper §2.2), shared by
// every execution path in the repo. Each iteration it (1) admits newly
// arrived requests, (2) asks the Scheduler for a batch plan, (3) applies
// preemptions/conversions/swaps against the backend's block pool,
// (4) executes the scheduled items through the ExecutionBackend, (5)
// advances the clock by the backend's iteration latency, and (6) emits
// tokens / completes requests, collecting TTFT/TBT/SLO metrics.
//
// A single instance is this loop over a CostModelBackend (analytic) or an
// InferenceBackend (real transformer); the multi-instance fleet runs one
// loop state per instance. Preemption and swap semantics live here, once.
//
// The loop body is a resumable state machine (ServingLoopState): Start()
// registers a trace, Step() runs one iteration, StepUntil() steps to a
// clock, and Finish() produces the report; ServingLoop::Run is Start,
// StepUntil(infinity), Finish. The FleetController
// (serve/fleet_controller.h) drives states directly, injecting live-routed
// arrivals mid-run (Inject) and moving queued or preempted requests between
// instances with their cache state (Extract/Receive — live migration).
// Extract releases the sender's slot: an instance holds slots only for the
// requests it owns, however often requests hop.
//
// Per-step cost: Step() reuses its scratch (the scheduler's queue views and
// the applied-item list keep their capacity), resolves each scheduled
// request's id once and carries the slot from there, and stamps tokens
// into the slot's cached metrics record. SimRequest::last_token_time is
// the one copy of the previous-token time; it migrates with the request.
// Finish() moves the records out rather than copying them. Below the loop,
// a decoded token costs two flat-table lookups of its cache map (the
// scheduler's BlocksToGrow, the backend's Append; cache/hybrid_assigner.h)
// and no allocation unless a reused map's block list outgrows its storage;
// the cost model prices an iteration from constants computed once.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/flat_id_map.h"
#include "common/status.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "runtime/clock.h"
#include "serve/execution_backend.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/sim_request.h"
#include "workload/request.h"

namespace aptserve {

/// How a preempted request's cache is evicted (vLLM's two modes).
enum class PreemptionMode {
  /// Discard the cache; the request re-prefills later (the mode the
  /// paper's experiments use).
  kRecompute,
  /// Move the cache to host memory and move it back on resume. Falls back
  /// to recompute when the swap space is full, and to discard-and-recompute
  /// when the resume changes cache type (a swapped copy of the old type is
  /// useless after a conversion).
  kSwap,
};

struct ServingLoopConfig {
  /// Hard cap on scheduled items per iteration (vLLM max_num_seqs).
  int32_t max_batch_size = 256;
  /// Safety valve: abort after this many iterations.
  int64_t max_iterations = 5'000'000;
  PreemptionMode preemption_mode = PreemptionMode::kRecompute;
};

struct ServingLoopResult {
  SloReport report;
  /// Per-request latency records (TTFT, TBT samples, finish time).
  std::unordered_map<RequestId, RequestRecord> records;
  /// Iterations that were pure-prefill / pure-decode / mixed.
  int64_t prefill_iterations = 0;
  int64_t decode_iterations = 0;
  int64_t mixed_iterations = 0;
  int32_t peak_blocks = 0;
  int64_t swap_outs = 0;
  int64_t swap_ins = 0;
  int64_t tokens_generated = 0;
  /// Sum of executed-iteration latencies (the busy part of the timeline).
  double compute_seconds = 0.0;
  /// Prefill positions the backend actually processed vs. adopted from its
  /// prefix index (both zero-cost identical to pre-sharing accounting when
  /// the backend has no index).
  int64_t prefill_tokens_computed = 0;
  int64_t prefill_tokens_skipped = 0;
  /// Prefix-sharing hit accounting (all zeros without an index).
  PrefixStats prefix;
  /// Wall-clock latency aggregates (async serving mode; empty without an
  /// attached wall clock). The fleet layer Merge()s per-instance collectors
  /// and reports once.
  WallClockMetrics wall_metrics;
};

/// Everything that travels when a request migrates between instances: the
/// loop's view of it (spec, mirrored progress, counters, and the
/// inter-token clock the destination's first TBT gap is measured from),
/// the backend cache image (cache/migration_image.h), and its metrics
/// record so TTFT/TBT history survives the move.
struct MigratedRequest {
  SimRequest sr;
  /// When the request had (or would have) become schedulable at the source.
  double available_at = 0.0;
  MigrationImage image;
  RequestRecord record;
  /// Trace linkage (zero when the source had no trace sink): the flow id of
  /// the export event and its timestamp, so the import event can terminate
  /// the cross-track arrow at a stamp >= the export's even when the
  /// destination's virtual clock lags the source's.
  uint64_t obs_flow = 0;
  double obs_export_ts = 0.0;
};

/// The serving loop as a resumable state machine. One instance == one
/// serving instance's timeline; the fleet controller interleaves many of
/// these in virtual time.
class ServingLoopState {
 public:
  /// What one Step() did with its iteration.
  enum class Progress {
    kExecuted,     ///< at least one scheduled item ran
    kFastForward,  ///< queues empty; clock jumped to the next availability
    kIdle,         ///< work exists but nothing executed (memory wall etc.)
    kDrained,      ///< nothing runnable and nothing pending; no iteration
                   ///< was consumed — the instance is parked
  };

  /// The backend and scheduler must outlive the state.
  ServingLoopState(ExecutionBackend* backend, const ServingLoopConfig& config);

  /// Registers `trace` (re-sorted by arrival defensively) and prepares the
  /// backend. Must be called exactly once, before Step/Inject.
  Status Start(const std::vector<Request>& trace, Scheduler* scheduler,
               const SloSpec& slo);

  /// Runs exactly one iteration of the classic serving loop (admission,
  /// plan, preempt, execute, price, emit). kDrained consumes no iteration.
  StatusOr<Progress> Step();

  /// Steps until the clock reaches `t_end`, every request is served, or the
  /// instance drains; hitting config.max_iterations first is an error.
  Status StepUntil(double t_end);

  /// Registers one more request mid-run (live routing): it becomes
  /// schedulable once the clock reaches `available_at` (>= its arrival).
  /// `wall_arrival` is the request's real arrival time for wall metrics
  /// and traces; it is read only when a wall clock is attached.
  Status Inject(const Request& r, double available_at, double wall_arrival);

  /// Removes a queued/preempted request for migration: its cache state is
  /// exported from the backend (shared prefix blocks stay for their other
  /// owners) and its metrics record extracted. Only kWaiting, non-swapped
  /// requests are migratable — running decodes drain in place. Virtual
  /// time only: nothing migrates while a wall clock is attached.
  StatusOr<MigratedRequest> Extract(RequestId id);

  /// Installs a migrated request: imports its cache into the backend
  /// (dedupe via this instance's prefix index; cold fallback when the pool
  /// is full) and re-adopts its metrics record. It becomes schedulable at
  /// `base_available_at` plus `transfer_delay(import)` — the delay runs
  /// after the import so only bytes that actually crossed the interconnect
  /// (post-dedupe) are priced. Null delay = instantaneous. Virtual time
  /// only, like Extract.
  StatusOr<MigrationImport> Receive(
      MigratedRequest m, double base_available_at,
      const std::function<double(const MigrationImport&)>& transfer_delay =
          nullptr);

  /// Closes the run: drain checks, backend Finalize, report. The state is
  /// unusable afterwards.
  StatusOr<ServingLoopResult> Finish();

  // ---- Wall-clock seam (async serving mode) --------------------------------

  /// Attaches a real-time clock: from now on every emitted token and finish
  /// is additionally wall-stamped into the result's WallClockMetrics.
  /// Purely observational — the virtual timeline, scheduling, and token
  /// streams are unaffected, which is exactly the async mode's determinism
  /// contract. Call before any request registers (Start with an empty
  /// trace, then attach, then Inject).
  void AttachWallClock(const runtime::Clock* clock);

  /// Advances the virtual clock to (at least) `wall_now`, so injected
  /// requests whose availability was stamped in wall time become admissible
  /// as real time passes. Monotone; no-op when behind now(). The async
  /// worker calls this before each Step, fusing the two timelines.
  void SyncClock(double wall_now) {
    if (wall_now > now_) now_ = wall_now;
  }

  // ---- Observability seam (src/obs/) ---------------------------------------

  /// Attaches a trace sink (on this instance's track) and/or a metrics
  /// registry; either may be empty/null. Purely observational, same
  /// contract as AttachWallClock: scheduling, the virtual timeline, and
  /// token streams are bit-identical with or without it. Events are
  /// stamped in wall time when a wall clock is attached (attach it first
  /// in async mode) and in virtual seconds otherwise. Call before Step.
  void AttachObservability(obs::TraceSink sink,
                           obs::MetricsRegistry* metrics = nullptr,
                           int32_t instance_id = 0);

  // ---- Introspection (fleet controller policies / planner) -----------------
  double now() const { return now_; }
  int64_t iterations() const { return iterations_done_; }
  /// Every request this instance owns (migrated-out ones it no longer
  /// does) has finished.
  bool AllServed() const { return finished_ == slots_.size(); }
  /// Requests this instance owns: finished or live, never migrated away.
  size_t NumRegistered() const { return slots_.size(); }
  /// Whether any request was ever registered here, even if all moved on.
  bool EverRegistered() const { return next_seq_ > 0; }
  /// Requests finished on THIS instance (migrated-in included, -out not).
  int64_t NumServed() const { return static_cast<int64_t>(finished_); }
  int32_t NumWaiting() const;
  int32_t NumRunning() const;
  int32_t NumUnfinished() const {
    return static_cast<int32_t>(slots_.size() - finished_);
  }
  /// Migration candidates in registration order: waiting, not swapped, and
  /// available by `ready_by` (a request still in transit from an earlier
  /// migration becomes available later). Costs O(live requests).
  std::vector<RequestId> MigratableWaiting(
      double ready_by = std::numeric_limits<double>::infinity()) const;
  /// (TTFT-met, total) over requests finished at time >= `since` — the
  /// SLO-attainment-guard scaling policy's rolling window.
  std::pair<int64_t, int64_t> TtftFinishesSince(double since) const;

 private:
  /// Tests recount the live queues by brute force over every slot.
  friend struct ServingLoopStateTestPeer;

  struct Slot {
    SimRequest sr;
    /// This request's metrics record (a stable map node of metrics_),
    /// resolved once at registration and re-pointed on Receive.
    RequestRecord* record = nullptr;
    /// Wall stamps, kept only with an attached wall clock: when the request
    /// was due, and its latest token (-1 before the first).
    double wall_arrival = 0.0;
    double wall_last_token = -1.0;
    double available_at = 0.0;
    uint64_t seq = 0;  ///< registration order
    /// Trace bookkeeping: when the request joined this instance's queue
    /// (in the trace clock frame) and whether its queue-wait span closed.
    double obs_enqueued_at = 0.0;
    bool obs_first_run = false;
  };

  /// Registers a new slot: sequence number, id index, pending queue.
  void Adopt(std::unique_ptr<Slot> slot);
  Status CapError() const;
  int32_t CountActive(RequestPhase phase) const;
  void InsertPending(Slot* slot);

  ExecutionBackend* backend_;
  ServingLoopConfig config_;
  Scheduler* scheduler_ = nullptr;
  SloSpec slo_;
  MetricsCollector metrics_;
  ServingLoopResult result_;
  /// Real-time observer (async mode); null in the deterministic modes.
  const runtime::Clock* wall_clock_ = nullptr;
  WallClockMetrics wall_metrics_;

  /// Observability (all optional; see AttachObservability). Metric handles
  /// are resolved once at attach so the hot path is pointer-null checks
  /// plus relaxed atomics.
  obs::TraceSink trace_;
  obs::MetricsRegistry* obs_metrics_ = nullptr;
  struct ObsHandles {
    obs::Counter* preempt_scheduler = nullptr;
    obs::Counter* preempt_memory_wall = nullptr;
    obs::Counter* preempt_swap_out = nullptr;
    obs::Counter* preempt_conversion = nullptr;
    obs::Counter* tokens = nullptr;
    obs::Counter* swap_outs = nullptr;
    obs::Counter* swap_ins = nullptr;
    obs::Counter* prefix_hit_tokens = nullptr;
    obs::Gauge* queue_high_water = nullptr;
    obs::Gauge* pool_peak = nullptr;
    obs::HistogramMetric* iteration_seconds = nullptr;
  } obs_;
  /// Timestamp in the trace clock frame (wall when attached, else virtual).
  double ObsNow() const { return wall_clock_ ? wall_clock_->Now() : now_; }

  /// The requests this instance owns, in registration order; Extract
  /// releases a migrated-out slot.
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Owned requests by id (finished ones stay).
  FlatIdMap<Slot*> index_;
  /// Not-yet-available requests, sorted by (available_at, seq).
  std::deque<Slot*> pending_;
  /// Admitted, unfinished requests in admission order (the scheduler's
  /// queue order). Finished requests leave at the end of their iteration.
  std::vector<Slot*> active_;
  /// (finish time, met TTFT) log feeding TtftFinishesSince.
  std::vector<std::pair<double, bool>> finish_log_;

  /// Per-step scratch, cleared (capacity kept) at the start of each use so
  /// a warm Step allocates nothing of its own: the scheduler's queue views
  /// and the items the iteration applied, each carrying its resolved slot.
  enum class StepKind { kDecode, kPrefill, kSwapIn };
  struct Applied {
    Slot* slot;
    StepKind kind;
    int32_t chunk = 0;  // prefill only
    bool token = false;
  };
  SchedulerInput input_;
  std::vector<Applied> applied_;

  double now_ = 0.0;
  size_t finished_ = 0;
  int64_t iterations_done_ = 0;
  int32_t consecutive_idle_ = 0;
  uint64_t next_seq_ = 0;
  bool started_ = false;
  bool finished_run_ = false;
};

class ServingLoop {
 public:
  /// The backend must outlive the loop.
  ServingLoop(ExecutionBackend* backend, const ServingLoopConfig& config);

  /// Serves `trace` to completion under `scheduler` and reports metrics
  /// against `slo`.
  StatusOr<ServingLoopResult> Run(const std::vector<Request>& trace,
                                  Scheduler* scheduler, const SloSpec& slo);

 private:
  ExecutionBackend* backend_;
  ServingLoopConfig config_;
};

}  // namespace aptserve
