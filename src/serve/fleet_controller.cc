#include "serve/fleet_controller.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "runtime/bounded_queue.h"
#include "runtime/clock.h"
#include "runtime/thread_pool.h"
#include "serve/async_serving.h"

namespace aptserve {

namespace {

void AddPrefixStats(const PrefixStats& from, PrefixStats* into) {
  into->lookups += from.lookups;
  into->hits += from.hits;
  into->matched_tokens += from.matched_tokens;
  into->shared_blocks += from.shared_blocks;
  into->cow_matches += from.cow_matches;
  into->inserted_blocks += from.inserted_blocks;
  into->evicted_blocks += from.evicted_blocks;
}

/// One serving instance of the elastic fleet.
struct Instance {
  InstanceState state = InstanceState::kLive;
  int32_t id = 0;
  int32_t cell = 0;
  double add_time = 0.0;
  double live_at = 0.0;
  double retire_time = -1.0;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<ExecutionBackend> backend;
  std::unique_ptr<ServingLoopState> loop;
  Status status = Status::OK();

  bool Alive() const { return state != InstanceState::kRetired; }
  bool Routable() const { return state == InstanceState::kLive; }
};

using Fleet = std::vector<std::unique_ptr<Instance>>;

/// Instance `inst`'s view at tick `t`, read from its loop and pool.
InstanceView ViewOf(const Instance& inst, const FleetConfig& config,
                    double t) {
  const ServingLoopState& loop = *inst.loop;
  InstanceView v;
  v.id = inst.id;
  v.state = inst.state;
  v.cell = inst.cell;
  v.waiting = loop.NumWaiting();
  v.unfinished = loop.NumUnfinished();
  v.pool_utilization = inst.backend->pool()->utilization();
  v.live_at = inst.live_at;
  for (const ScalingRule& rule : config.scaling) {
    v.ttft_finishes.push_back(
        rule.kind == ScalingRule::Kind::kSloAttainmentGuard
            ? loop.TtftFinishesSince(t - rule.window_s)
            : std::pair<int64_t, int64_t>{0, 0});
  }
  if (config.enable_migration) {
    v.migratable = static_cast<int32_t>(loop.MigratableWaiting().size());
    v.ready = static_cast<int32_t>(loop.MigratableWaiting(t).size());
  }
  return v;
}

std::vector<InstanceView> Snapshot(const Fleet& fleet,
                                   const FleetConfig& config, double t) {
  std::vector<InstanceView> views;
  for (const auto& inst : fleet) views.push_back(ViewOf(*inst, config, t));
  return views;
}

/// Prices a migration on the bytes that crossed the interconnect (after
/// the destination's dedupe); instantaneous without a cost model.
std::function<double(const MigrationImport&)> TransferDelay(
    const CostModel* cost_model, bool cross_cell) {
  return [cost_model, cross_cell](const MigrationImport& import) {
    return cost_model != nullptr
               ? cost_model->MigrationSeconds(import.bytes, cross_cell)
               : 0.0;
  };
}

/// The routable instance other than `exclude` with the fewest waiting
/// requests (lowest id on ties), from cell `cell` when that cell has one;
/// -1 when no instance is routable.
int32_t PickCoolest(const std::vector<InstanceView>& fleet, int32_t exclude,
                    int32_t cell) {
  int32_t same = -1, any = -1;
  for (const InstanceView& v : fleet) {
    if (!v.Routable() || v.id == exclude) continue;
    if (any < 0 || v.waiting < fleet[any].waiting) any = v.id;
    if (v.cell == cell && (same < 0 || v.waiting < fleet[same].waiting)) {
      same = v.id;
    }
  }
  return same >= 0 ? same : any;
}

}  // namespace

/// How the fleet advances between controller decisions — the only part of
/// the controller loop that depends on the clock.
class FleetExecutor {
 public:
  FleetExecutor() = default;
  FleetExecutor(const FleetExecutor&) = delete;
  FleetExecutor& operator=(const FleetExecutor&) = delete;
  virtual ~FleetExecutor() = default;

  /// Called once the initial fleet is built and started.
  virtual void Start(Fleet& /*fleet*/) {}
  /// Arrivals before this virtual-frame instant are routed next.
  virtual double WindowEnd(double window_start) = 0;
  /// Hands a routed request to its instance.
  virtual Status Inject(Instance& inst, Request routed) = 0;
  /// Advances the fleet to `window_end`. `next_arrival` is the first
  /// unrouted arrival (infinity once all are routed). True = run complete.
  virtual StatusOr<bool> Advance(Fleet& fleet, double window_end,
                                 double next_arrival) = 0;
  /// Stops whatever runs beside the controller; afterwards the instances'
  /// loops belong to the controller thread again. Idempotent.
  virtual void Stop() {}

  /// The run's observability (either may be null) and, in wall time, the
  /// clock that stamps it (null: events carry virtual time).
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  const runtime::Clock* clock = nullptr;
  /// Per-instance wall stamps merged at assembly (empty in virtual time).
  WallClockMetrics wall_metrics;
};

namespace {

/// Virtual time, the pinned bit-for-bit reference: every instance steps its
/// own epoch to the window barrier, in parallel on the fleet thread pool
/// when the runtime allows. A static fleet runs one infinite window.
class VirtualExecutor final : public FleetExecutor {
 public:
  VirtualExecutor(const FleetConfig& config, int32_t max_instances)
      : config_(config) {
    trace = config.trace;
    metrics = config.metrics;
    const int32_t threads =
        std::min(config.runtime.ResolvedNumThreads(), max_instances);
    if (threads > 1) {
      RuntimeConfig fleet_runtime = config.runtime;
      fleet_runtime.num_threads = threads;
      pool_ = std::make_unique<runtime::ThreadPool>(fleet_runtime);
    }
  }

  double WindowEnd(double window_start) override {
    return config_.IsElastic() ? window_start + config_.tick_interval_s
                               : std::numeric_limits<double>::infinity();
  }

  Status Inject(Instance& inst, Request routed) override {
    // No wall clock is attached, so the wall stamp is unread.
    return inst.loop->Inject(routed, routed.arrival, routed.arrival);
  }

  StatusOr<bool> Advance(Fleet& fleet, double window_end,
                         double next_arrival) override {
    const auto step = [window_end](Instance& inst) {
      if (inst.Alive() && inst.status.ok()) {
        inst.status = inst.loop->StepUntil(window_end);
      }
    };
    const int32_t n_now = static_cast<int32_t>(fleet.size());
    if (pool_ != nullptr) {
      pool_->ParallelForEach(0, n_now, 1,
                             [&](int64_t i) { step(*fleet[i]); });
    } else {
      for (int32_t i = 0; i < n_now; ++i) {
        step(*fleet[i]);
        if (!fleet[i]->status.ok()) break;  // fail fast, as before
      }
    }
    // First failure in instance order, matching the classic runner.
    for (const auto& inst : fleet) {
      if (!inst->status.ok()) return inst->status;
    }
    if (!config_.IsElastic()) return true;
    bool done = next_arrival == std::numeric_limits<double>::infinity();
    for (const auto& inst : fleet) done = done && inst->loop->AllServed();
    return done;
  }

 private:
  const FleetConfig& config_;
  std::unique_ptr<runtime::ThreadPool> pool_;
};

/// What travels controller -> worker over an arrival queue: a freshly
/// routed request.
struct AsyncCommand {
  Request request;
  double wall_arrival = 0.0;  ///< the request's due instant
};

/// What travels worker -> controller over the event queue: one finish, or
/// the error that stopped the worker.
struct AsyncEvent {
  enum class Kind { kFinished, kError };
  Kind kind = Kind::kFinished;
  Status error = Status::OK();
};

/// How long a drained worker blocks on its arrival queue before re-checking
/// for shutdown.
constexpr std::chrono::microseconds kIdlePark{500};

/// Wall time: one worker thread per instance owns that instance's serving
/// loop outright and batches continuously, admitting routed requests
/// mid-run through the Inject seam — no barrier on the hot path. Injections
/// reach the workers over bounded arrival queues (a full queue blocks the
/// controller: backpressure); completions and errors come back over one
/// event queue, which Advance pumps until the next arrival is due.
class WallExecutor final : public FleetExecutor {
 public:
  WallExecutor(const AsyncServingConfig& async, size_t trace_size,
               int64_t max_iterations)
      : async_(async),
        max_iterations_(max_iterations),
        // Sized so worker event pushes always complete while the controller
        // is blocked handing a request to a full arrival queue: the queue
        // only ever holds one finish per request plus at most one error per
        // worker.
        events_(2 * trace_size + 256) {
    trace = async.trace;
    metrics = async.metrics;
    clock = &clock_;
  }
  ~WallExecutor() override { Stop(); }

  void Start(Fleet& fleet) override {
    for (auto& inst : fleet) {
      inst->loop->AttachWallClock(&clock_);
      Worker& w = *workers_.emplace_back(
          std::make_unique<Worker>(inst.get(), async_.queue_capacity));
      w.thread = std::thread([this, &w] { WorkerMain(w); });
    }
  }

  double WindowEnd(double /*window_start*/) override {
    return clock_.Now() * async_.replay_speedup;
  }

  Status Inject(Instance& inst, Request routed) override {
    AsyncCommand cmd;
    // Stamp the due instant, not the push: time spent behind a blocking
    // Push to a full queue (or behind controller lag) is arrival-to-token
    // latency the request really waited.
    cmd.wall_arrival = routed.arrival / async_.replay_speedup;
    cmd.request = std::move(routed);
    ++routed_;
    return Send(inst.id, std::move(cmd));
  }

  StatusOr<bool> Advance(Fleet& /*fleet*/, double /*window_end*/,
                         double next_arrival) override {
    while (true) {
      if (next_arrival == std::numeric_limits<double>::infinity() &&
          finished_ == routed_) {
        wall_end_ = clock_.Now();
        return true;
      }
      const double now = clock_.Now();
      if (now > async_.max_wall_seconds) {
        return Status::Internal(
            "async serving exceeded the wall-time valve (" +
            std::to_string(async_.max_wall_seconds) + "s)");
      }
      const double lag =
          (next_arrival - now * async_.replay_speedup) / async_.replay_speedup;
      if (lag <= 0) return false;  // the next arrival is due: route it
      auto ev = events_.PopFor(std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
          std::chrono::duration<double>(std::min(lag, 0.001))));
      if (!ev.has_value()) continue;
      switch (ev->kind) {
        case AsyncEvent::Kind::kFinished:
          ++finished_;
          break;
        case AsyncEvent::Kind::kError:
          return ev->error;
      }
    }
  }

  /// Shutdown: the abort flag plus closing the fabric wake every parked or
  /// blocked thread; workers exit even with unfinished requests aboard on
  /// the error path.
  void Stop() override {
    abort_.store(true, std::memory_order_release);
    for (auto& w : workers_) w->arrivals.Close();
    events_.Close();
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

  /// The wall readouts around the fleet result (call after Stop).
  AsyncServingResult Result(MultiInstanceResult serve) const {
    AsyncServingResult out;
    out.serve = std::move(serve);
    out.wall = wall_metrics.Report();
    out.wall_duration_s = wall_end_;
    for (size_t i = 0; i < workers_.size(); ++i) {
      const size_t high_water = workers_[i]->arrivals.high_water();
      out.arrival_queue_high_water_per_instance.push_back(high_water);
      out.arrival_queue_high_water =
          std::max(out.arrival_queue_high_water, high_water);
      if (metrics != nullptr) {
        const std::string label = "instance=\"" + std::to_string(i) + "\"";
        metrics->GetGauge("aptserve_async_arrival_queue_high_water", label)
            ->SetMax(static_cast<double>(high_water));
      }
    }
    return out;
  }

 private:
  /// One worker: a thread that owns its instance's loop end to end (no
  /// cross-thread access to the loop, ever — all communication is queue
  /// messages).
  struct Worker {
    Worker(Instance* inst, size_t capacity) : inst(inst), arrivals(capacity) {}
    Instance* inst;
    runtime::BoundedQueue<AsyncCommand> arrivals;
    std::thread thread;
  };

  /// Blocking push: a full queue is backpressure, not an error. A closed
  /// queue means its worker failed; its error event is already queued.
  Status Send(int32_t instance, AsyncCommand cmd) {
    if (workers_[instance]->arrivals.Push(std::move(cmd))) return Status::OK();
    while (auto ev = events_.TryPop()) {
      if (ev->kind == AsyncEvent::Kind::kError) return ev->error;
    }
    return Status::Internal("instance arrival queue closed mid-run");
  }

  /// One instance's continuous batching loop.
  void WorkerMain(Worker& self) {
    ServingLoopState& loop = *self.inst->loop;
    const auto fail = [&](Status s) {
      (void)events_.Push(AsyncEvent{AsyncEvent::Kind::kError, std::move(s)});
      self.arrivals.Close();  // wakes a controller blocked in Send
    };
    const auto apply = [&](const AsyncCommand& cmd) {
      return loop.Inject(cmd.request, cmd.request.arrival, cmd.wall_arrival);
    };

    int64_t reported = 0;  // finishes already posted to the controller
    while (!abort_.load(std::memory_order_acquire)) {
      // 1. Admit everything that arrived since the last iteration — the
      // mid-step Inject seam, no barrier between admission and execution.
      bool applied_any = false;
      for (const AsyncCommand& cmd : self.arrivals.DrainNow()) {
        if (Status s = apply(cmd); !s.ok()) return fail(s);
        applied_any = true;
      }

      // 2. Fuse the timelines and run one iteration.
      loop.SyncClock(clock_.Now() * async_.replay_speedup);
      if (loop.iterations() >= max_iterations_) {
        return fail(
            Status::Internal("async serving loop hit the iteration cap"));
      }
      auto progress = loop.Step();
      if (!progress.ok()) return fail(progress.status());

      // 3. Publish completions back over the fabric.
      for (; reported < loop.NumServed(); ++reported) {
        if (!events_.Push(AsyncEvent{})) return;  // shutting down
      }

      // 4. Park while drained: block on the arrival queue instead of
      // spinning, and exit once the fabric is closed and empty.
      if (*progress == ServingLoopState::Progress::kDrained && !applied_any) {
        if (auto cmd = self.arrivals.PopFor(kIdlePark); cmd.has_value()) {
          if (Status s = apply(*cmd); !s.ok()) return fail(s);
          continue;
        }
        if (self.arrivals.closed() && self.arrivals.size() == 0 &&
            loop.AllServed()) {
          return;
        }
      }
    }
  }

  const AsyncServingConfig& async_;
  const int64_t max_iterations_;
  runtime::Clock clock_;
  runtime::BoundedQueue<AsyncEvent> events_;
  std::atomic<bool> abort_{false};
  std::vector<std::unique_ptr<Worker>> workers_;  // after what they use
  int64_t routed_ = 0;
  int64_t finished_ = 0;
  double wall_end_ = 0.0;
};

}  // namespace

FleetController::FleetController(const FleetConfig& config,
                                 const Router& router,
                                 const CostModel* migration_cost_model)
    : config_(config),
      router_(router),
      migration_cost_model_(migration_cost_model != nullptr
                                ? migration_cost_model
                                : router.cost_model()) {
  APT_CHECK(router_.config().n_instances >= 1);
  APT_CHECK(config_.min_instances >= 1);
  APT_CHECK(config_.cells.num_cells >= 1);
  APT_CHECK_MSG(config_.cells.num_cells == 1 ||
                    router_.config().n_instances >= config_.cells.num_cells,
                "a hierarchical fleet needs at least one instance per cell");
  APT_CHECK(config_.tick_interval_s > 0.0);
  APT_CHECK(config_.instance_warmup_s >= 0.0);
  APT_CHECK(config_.scale_up_cooldown_s >= 0.0);
  APT_CHECK(config_.scale_down_cooldown_s >= 0.0);
}

FleetController::FleetController(const FleetConfig& config,
                                 const CostModel* cost_model,
                                 const OutputLengthPredictor* predictor)
    : FleetController(config, Router(config.router, cost_model, predictor),
                      cost_model) {}

StatusOr<FleetResult> FleetController::Run(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo) {
  VirtualExecutor exec(config_, config_.IsElastic()
                                    ? config_.MaxInstances()
                                    : router_.config().n_instances);
  return Serve(trace, make_scheduler, make_backend, slo, &exec);
}

StatusOr<AsyncServingResult> FleetController::RunAsync(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    const AsyncServingConfig& async) {
  APT_CHECK_MSG(!config_.IsElastic(),
                "wall-clock serving runs static fleets only");
  APT_CHECK(async.queue_capacity >= 1);
  APT_CHECK(async.replay_speedup > 0.0);
  WallExecutor exec(async, trace.size(), config_.loop.max_iterations);
  APT_ASSIGN_OR_RETURN(FleetResult result, Serve(trace, make_scheduler,
                                                 make_backend, slo, &exec));
  return exec.Result(std::move(result.serve));
}

StatusOr<FleetResult> FleetController::Serve(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    FleetExecutor* executor) {
  FleetExecutor& exec = *executor;
  const bool elastic = config_.IsElastic();
  const int32_t initial_n = router_.config().n_instances;
  const int32_t max_n = elastic ? config_.MaxInstances() : initial_n;

  FleetResult out;
  FleetMetrics& fm = out.fleet;
  RouterState rstate = router_.MakeState(max_n);
  Fleet fleet;
  fleet.reserve(max_n);

  // Hierarchical (fleet-of-fleets) topology: the consistent-hash front
  // tier picks a cell, the configured policy routes within it. num_cells
  // == 1 takes the flat path untouched (bit-identical to pre-cell runs).
  const int32_t num_cells = config_.cells.num_cells;
  const bool hierarchical = num_cells > 1;
  CellRouter cell_router(config_.cells, router_.config().block_size);
  fm.num_cells = num_cells;
  std::vector<std::vector<int32_t>> cell_live_ids(num_cells);

  // Observability is opt-in and purely observational: with no recorder or
  // registry every hook below is a no-op and the run is bit-identical to an
  // uninstrumented build. Wall-time runs stamp events with the wall clock.
  obs::TraceSink ctl_trace;
  std::vector<obs::TraceSink> cell_trace;
  if (exec.trace != nullptr) {
    ctl_trace = exec.trace->MakeSink(obs::kControllerTrack);
    router_.AttachTrace(&rstate, exec.trace->MakeSink(obs::kRouterTrack),
                        exec.clock);
    if (hierarchical) {
      cell_trace.reserve(num_cells);
      for (int32_t c = 0; c < num_cells; ++c) {
        cell_trace.push_back(exec.trace->MakeSink(obs::kCellTrackBase - c));
      }
    }
  }

  const auto record_event = [&](double t, int32_t id,
                                FleetScaleEvent::Kind kind) {
    fm.scale_events.push_back(FleetScaleEvent{t, id, kind});
    if (ctl_trace) {
      ctl_trace.Instant(obs::TraceOp::kScale, t, id,
                        static_cast<double>(static_cast<int>(kind)));
    }
  };

  // Spawns instance fleet.size() at virtual time `t`. A cold spawn only
  // becomes routable after the warmup latency elapses; the initial fleet
  // is born warm (it existed before the trace started).
  const auto spawn = [&](double t, bool cold) -> Status {
    // Ids are lifetime-unique (a retired id is never reused), so over many
    // scale cycles the id space outgrows the alive ceiling; the router
    // state grows with it.
    const int32_t id = static_cast<int32_t>(fleet.size());
    auto inst = std::make_unique<Instance>();
    inst->id = id;
    // Cell assignment: the least-populated (alive) cell, tie to the lowest
    // cell id — the initial fleet round-robins across cells and later
    // spawns refill whichever cell lost an instance.
    std::vector<int32_t> alive_per_cell(num_cells, 0);
    for (const auto& other : fleet) {
      alive_per_cell[other->cell] += other->Alive() ? 1 : 0;
    }
    int32_t cell = 0;
    for (int32_t c = 1; c < num_cells; ++c) {
      if (alive_per_cell[c] < alive_per_cell[cell]) cell = c;
    }
    inst->cell = cell;
    fm.instance_cell.push_back(cell);
    inst->scheduler = make_scheduler();
    APT_ASSIGN_OR_RETURN(inst->backend, make_backend(id));
    inst->loop =
        std::make_unique<ServingLoopState>(inst->backend.get(), config_.loop);
    if (exec.trace != nullptr || exec.metrics != nullptr) {
      inst->loop->AttachObservability(exec.trace != nullptr
                                          ? exec.trace->MakeSink(id)
                                          : obs::TraceSink(),
                                      exec.metrics, id);
    }
    APT_RETURN_NOT_OK(inst->loop->Start({}, inst->scheduler.get(), slo));
    inst->add_time = t;
    inst->live_at = cold ? t + config_.instance_warmup_s : t;
    inst->state = cold ? InstanceState::kWarming : InstanceState::kLive;
    record_event(t, id, FleetScaleEvent::Kind::kAdd);
    if (cold) {
      ++fm.cold_starts;
    } else {
      record_event(t, id, FleetScaleEvent::Kind::kLive);
    }
    fleet.push_back(std::move(inst));
    router_.GrowState(&rstate, static_cast<int32_t>(fleet.size()));
    return Status::OK();
  };

  for (int32_t i = 0; i < initial_n; ++i) {
    APT_RETURN_NOT_OK(spawn(0.0, /*cold=*/false));
  }

  double last_scale_change = -std::numeric_limits<double>::infinity();

  int64_t total_rejected = 0;
  int64_t total_deprioritized = 0;

  // The controller loop: tick (elastic only), route what is due against the
  // live set, advance the instances. A static fleet never scales, so its
  // live set is constant and routing replays identically on both clocks.
  exec.Start(fleet);
  const Status served = [&]() -> Status {
    size_t next_route = 0;
    double window_start = 0.0;
    while (true) {
      if (elastic) {
        // A tick applies DecideScale's and NextMove's decisions in order:
        // promote, scale, migrate, retire.
        const double t = window_start;
        ++fm.ticks;
        const ScaleDecision scale = DecideScale(
            Snapshot(fleet, config_, t), config_, t, last_scale_change);
        for (int32_t id : scale.promote) {
          fleet[id]->state = InstanceState::kLive;
          record_event(fleet[id]->live_at, id, FleetScaleEvent::Kind::kLive);
        }
        if (scale.spawn) APT_RETURN_NOT_OK(spawn(t, /*cold=*/true));
        if (scale.drain >= 0) {
          fleet[scale.drain]->state = InstanceState::kDraining;
          record_event(t, scale.drain, FleetScaleEvent::Kind::kDrainStart);
        }
        if (scale.spawn || scale.drain >= 0) last_scale_change = t;
        std::vector<InstanceView> views = Snapshot(fleet, config_, t);
        for (int32_t moved = 0;; ++moved) {
          const std::optional<MigrationMove> move =
              NextMove(views, config_, moved);
          if (!move.has_value()) break;
          // The source's front candidate moves with its cache; the transfer
          // is priced on post-dedupe bytes at the tier it crosses.
          Instance& src = *fleet[move->src];
          Instance& dst = *fleet[move->dst];
          const std::vector<RequestId> ids = src.loop->MigratableWaiting(
              move->drain ? std::numeric_limits<double>::infinity() : t);
          APT_ASSIGN_OR_RETURN(MigratedRequest m,
                               src.loop->Extract(ids.front()));
          ++fm.migrations;
          fm.migrations_with_cache += m.image.carries_cache() ? 1 : 0;
          const double base = std::max(t, m.available_at);
          const bool cross_cell = src.cell != dst.cell;
          const auto delay = TransferDelay(migration_cost_model_, cross_cell);
          APT_ASSIGN_OR_RETURN(const MigrationImport import,
                               dst.loop->Receive(std::move(m), base, delay));
          if (cross_cell) {
            ++fm.cross_cell_migrations;
            fm.cross_cell_migration_bytes += import.bytes;
          }
          fm.migration_deduped_tokens += import.deduped_tokens;
          fm.migration_copied_tokens += import.copied_tokens;
          fm.migration_bytes += import.bytes;
          fm.migration_seconds += delay(import);
          // Re-read both ends: only the destination's loop knows whether
          // the request it received is ready this tick.
          views[src.id] = ViewOf(src, config_, t);
          views[dst.id] = ViewOf(dst, config_, t);
        }
        int32_t alive = 0;
        for (auto& inst : fleet) {
          if (inst->state == InstanceState::kDraining &&
              inst->loop->AllServed()) {
            inst->state = InstanceState::kRetired;
            // Billed to its own last iteration (which may overshoot the
            // tick), logged at this tick so the log stays chronological.
            inst->retire_time = std::max(t, inst->loop->now());
            record_event(t, inst->id, FleetScaleEvent::Kind::kRetire);
          }
          alive += inst->Alive() ? 1 : 0;
        }
        fm.size_timeline.emplace_back(t, alive);
        fm.peak_instances = std::max(fm.peak_instances, alive);
      }
      const double window_end = exec.WindowEnd(window_start);

      // Route every due arrival against the live set (constant within the
      // window — scale events only happen at ticks). Per-cell live member
      // lists (a flat fleet is one cell): RouteOneLive scans only the chosen
      // cell's members, which keeps the per-decision cost independent of
      // fleet width.
      if (next_route < trace.size()) {
        for (auto& ids : cell_live_ids) ids.clear();
        for (const auto& inst : fleet) {
          if (inst->Routable()) {
            cell_live_ids[inst->cell].push_back(inst->id);
          }
        }
        if (hierarchical) {
          for (int32_t c = 0; c < num_cells; ++c) {
            cell_router.SetLive(c, !cell_live_ids[c].empty());
          }
        }
      }
      while (next_route < trace.size() &&
             trace[next_route].arrival < window_end) {
        const Request& req = trace[next_route];
        bool best_effort = false;
        const int32_t cell =
            hierarchical ? cell_router.RouteOne(req, req.arrival) : 0;
        const int32_t inst = router_.RouteOneLive(
            req, next_route, cell_live_ids[cell], &rstate, &best_effort);
        if (inst == RouteDecision::kRejected) {
          ++total_rejected;
        } else {
          if (hierarchical) {
            if (!cell_trace.empty()) {
              // Pre-commit, so the span/score read the wait this request
              // actually saw, not one inflated by its own service time.
              const double wait = cell_router.Outstanding(cell, req.arrival);
              const double ts =
                  exec.clock != nullptr ? exec.clock->Now() : req.arrival;
              cell_trace[cell].Span(obs::TraceOp::kQueueWait, ts, wait,
                                    req.id, static_cast<double>(inst));
              cell_trace[cell].Instant(obs::TraceOp::kRouteDecision, ts,
                                       req.id, static_cast<double>(inst),
                                       wait, static_cast<double>(cell));
            }
            cell_router.Commit(
                cell, req.arrival, router_.EstimatedServiceSeconds(req),
                static_cast<int32_t>(cell_live_ids[cell].size()));
          }
          Request routed = req;
          if (best_effort) {
            routed.best_effort = true;
            ++total_deprioritized;
          }
          APT_RETURN_NOT_OK(exec.Inject(*fleet[inst], std::move(routed)));
        }
        ++next_route;
      }

      APT_ASSIGN_OR_RETURN(
          const bool done,
          exec.Advance(fleet, window_end,
                       next_route < trace.size()
                           ? trace[next_route].arrival
                           : std::numeric_limits<double>::infinity()));
      if (done) return Status::OK();
      window_start = window_end;
      if (fm.ticks > 100'000'000) {
        return Status::Internal("fleet controller exceeded the tick guard");
      }
    }
  }();
  exec.Stop();
  APT_RETURN_NOT_OK(served);

  // Finalize instances and assemble the fleet result.
  MultiInstanceResult& result = out.serve;
  const int32_t total_instances = static_cast<int32_t>(fleet.size());
  result.per_instance.resize(total_instances);
  result.requests_per_instance.assign(total_instances, 0);
  result.prefill_computed_per_instance.assign(total_instances, 0);
  result.prefill_skipped_per_instance.assign(total_instances, 0);
  result.prefix_per_instance.resize(total_instances);
  result.records_per_instance.resize(total_instances);
  result.rejected_requests = total_rejected;
  result.deprioritized_requests = total_deprioritized;

  double fleet_end = 0.0;
  for (const auto& inst : fleet) {
    fleet_end = std::max(fleet_end, inst->loop->now());
  }
  for (int32_t i = 0; i < total_instances; ++i) {
    Instance& inst = *fleet[i];
    // An instance that never saw a request reports all-zeros; one whose
    // requests all migrated away still reports its iterations.
    if (inst.loop->EverRegistered()) {
      APT_ASSIGN_OR_RETURN(ServingLoopResult r, inst.loop->Finish());
      result.per_instance[i] = r.report;
      result.requests_per_instance[i] =
          static_cast<int32_t>(r.records.size());
      result.prefill_computed_per_instance[i] = r.prefill_tokens_computed;
      result.prefill_skipped_per_instance[i] = r.prefill_tokens_skipped;
      result.prefix_per_instance[i] = r.prefix;
      result.prefill_tokens_computed += r.prefill_tokens_computed;
      result.prefill_tokens_skipped += r.prefill_tokens_skipped;
      result.tokens_generated += r.tokens_generated;
      AddPrefixStats(r.prefix, &result.prefix);
      exec.wall_metrics.Merge(r.wall_metrics);
      result.records_per_instance[i] = std::move(r.records);
    }
    const double end = inst.retire_time >= 0 ? inst.retire_time : fleet_end;
    fm.instance_seconds += std::max(0.0, end - inst.add_time);
  }
  int32_t alive = 0;
  for (const auto& inst : fleet) alive += inst->Alive() ? 1 : 0;
  fm.size_timeline.emplace_back(fleet_end, alive);
  fm.peak_instances = std::max(fm.peak_instances, alive);
  // A static fleet bills every instance for the whole makespan.
  if (!elastic) fm.instance_seconds = total_instances * fleet_end;

  result.combined =
      MergeReports(result.per_instance, result.requests_per_instance);
  FoldRejectedIntoReport(result.rejected_requests, &result.combined);

  result.route_cost = rstate.cost_stats();
  if (hierarchical) {
    const CellRouteStats& cs = cell_router.stats();
    result.route_cost.cell_probes += cs.cell_probes;
    result.route_cost.cell_hash_routed += cs.hash_routed;
    result.route_cost.cell_fallback_routed += cs.fallback_routed;
  }

  if (exec.metrics != nullptr) {
    obs::MetricsRegistry& reg = *exec.metrics;
    const RouteCostStats& rc = result.route_cost;
    const std::pair<const char*, int64_t> counters[] = {
        {"aptserve_router_decisions_total", rc.decisions},
        {"aptserve_router_instance_probes_total", rc.instance_probes},
        {"aptserve_router_mirror_nodes_walked_total", rc.mirror_nodes_walked},
        {"aptserve_router_mirror_evictions_total", rc.mirror_evictions},
        {"aptserve_cell_probes_total", rc.cell_probes},
        {"aptserve_cell_hash_routed_total", rc.cell_hash_routed},
        {"aptserve_cell_fallback_routed_total", rc.cell_fallback_routed},
        {"aptserve_fleet_cross_cell_migrations_total",
         fm.cross_cell_migrations},
        {"aptserve_fleet_migrations_total", fm.migrations},
        {"aptserve_fleet_migration_bytes_total",
         static_cast<int64_t>(fm.migration_bytes)},
        {"aptserve_fleet_cold_starts_total", fm.cold_starts},
    };
    for (const auto& [name, value] : counters) reg.GetCounter(name)->Inc(value);
    reg.GetGauge("aptserve_router_mirror_nodes")
        ->Set(static_cast<double>(rc.mirror_nodes));
    reg.GetGauge("aptserve_router_mirror_node_peak")
        ->Set(static_cast<double>(rc.mirror_node_peak));
    const char* const kind_labels[] = {"kind=\"add\"", "kind=\"live\"",
                                       "kind=\"drain\"", "kind=\"retire\""};
    int64_t by_kind[4] = {0, 0, 0, 0};
    for (const FleetScaleEvent& ev : fm.scale_events) {
      ++by_kind[static_cast<int>(ev.kind)];
    }
    for (int k = 0; k < 4; ++k) {
      reg.GetCounter("aptserve_fleet_scale_events_total", kind_labels[k])
          ->Inc(by_kind[k]);
    }
    reg.GetGauge("aptserve_fleet_instance_seconds")->Set(fm.instance_seconds);
    reg.GetGauge("aptserve_fleet_peak_instances")
        ->Set(static_cast<double>(fm.peak_instances));
  }
  return out;
}

ScaleDecision DecideScale(const std::vector<InstanceView>& fleet,
                          const FleetConfig& config, double t,
                          double last_scale_change) {
  ScaleDecision d;
  // Elapsed warmups are promoted first, so those instances vote as live.
  std::vector<const InstanceView*> live;
  int32_t alive = 0;
  int64_t total_waiting = 0;
  double util_sum = 0.0;
  for (const InstanceView& v : fleet) {
    alive += v.state != InstanceState::kRetired ? 1 : 0;
    const bool warmed = v.state == InstanceState::kWarming && t >= v.live_at;
    if (warmed) d.promote.push_back(v.id);
    if (!warmed && !v.Routable()) continue;
    live.push_back(&v);
    total_waiting += v.waiting;
    util_sum += v.pool_utilization;
  }
  if (config.scaling.empty() || live.empty()) return d;
  const double queue_per_instance =
      static_cast<double>(total_waiting) / live.size();
  const double mean_util = util_sum / live.size();

  bool vote_up = false, vote_down = false, hold = false;
  const auto vote = [&](double value, double high, double low) {
    (value > high ? vote_up : value < low ? vote_down : hold) = true;
  };
  for (size_t r = 0; r < config.scaling.size(); ++r) {
    const ScalingRule& rule = config.scaling[r];
    if (rule.kind == ScalingRule::Kind::kQueueDepth) {
      vote(queue_per_instance, rule.queue_high, rule.queue_low);
    } else if (rule.kind == ScalingRule::Kind::kTargetUtilization) {
      vote(mean_util, rule.util_high, rule.util_low);
    } else {  // kSloAttainmentGuard: up-only, abstains on an empty window
      int64_t met = 0, total = 0;
      for (const InstanceView& v : fleet) {
        met += v.ttft_finishes[r].first;
        total += v.ttft_finishes[r].second;
      }
      vote_up = vote_up || (total > 0 && static_cast<double>(met) / total <
                                             rule.attainment_floor);
    }
  }
  if (vote_up) {
    d.spawn = alive < config.MaxInstances() &&
              t - last_scale_change >= config.scale_up_cooldown_s;
  } else if (vote_down && !hold &&
             t - last_scale_change >= config.scale_down_cooldown_s &&
             static_cast<int32_t>(live.size()) > config.min_instances) {
    // Drain the live instance with the least unfinished work (tie: the
    // newest — LIFO keeps long-lived instances' caches warm).
    for (const InstanceView* v : live) {
      if (d.drain < 0 || v->unfinished <= fleet[d.drain].unfinished) {
        d.drain = v->id;
      }
    }
  }
  return d;
}

std::optional<MigrationMove> NextMove(const std::vector<InstanceView>& fleet,
                                      const FleetConfig& config,
                                      int32_t moved) {
  if (!config.enable_migration || moved >= config.max_migrations_per_tick) {
    return std::nullopt;
  }
  for (const InstanceView& src : fleet) {
    if (src.state != InstanceState::kDraining || src.migratable == 0) continue;
    const int32_t dst = PickCoolest(fleet, src.id, src.cell);
    if (dst < 0) return std::nullopt;  // nothing is routable
    return MigrationMove{src.id, dst, /*drain=*/true};
  }
  int32_t hot = -1;
  for (const InstanceView& v : fleet) {
    if (v.Routable() && (hot < 0 || v.waiting > fleet[hot].waiting)) {
      hot = v.id;
    }
  }
  const int32_t cool = PickCoolest(fleet, /*exclude=*/-1, /*cell=*/-1);
  if (hot < 0 || fleet[hot].ready == 0 ||
      fleet[hot].waiting - fleet[cool].waiting <=
          std::max(config.migration_imbalance_threshold, 1.0)) {
    return std::nullopt;
  }
  return MigrationMove{hot, cool, /*drain=*/false};
}

SloReport MergeReports(const std::vector<SloReport>& reports,
                       const std::vector<int32_t>& request_counts) {
  APT_CHECK(reports.size() == request_counts.size());
  SloReport out;
  int64_t eligible_total = 0;
  double limit_time = 0.0;
  double batch_weighted = 0.0;
  for (size_t i = 0; i < reports.size(); ++i) {
    const SloReport& r = reports[i];
    // Attainment weight: eligible requests. Hand-built reports may not
    // fill best_effort_requests; counts minus best-effort equals eligible
    // for real reports and the raw count otherwise — bit-identical to the
    // pre-SLO-routing merge whenever no best-effort traffic exists.
    const int64_t n = request_counts[i] - r.best_effort_requests;
    eligible_total += n;
    out.slo_attainment += r.slo_attainment * n;
    out.ttft_attainment += r.ttft_attainment * n;
    out.tbt_attainment += r.tbt_attainment * n;
    out.total_serving_time = std::max(out.total_serving_time,
                                      r.total_serving_time);
    limit_time += r.batch_limit_time_ratio * r.total_serving_time;
    out.iterations += r.iterations;
    batch_weighted += r.mean_batch_size * static_cast<double>(r.iterations);
    out.preemptions += r.preemptions;
    out.conversions += r.conversions;
    out.eligible_requests += r.eligible_requests;
    out.slo_met_requests += r.slo_met_requests;
    out.best_effort_requests += r.best_effort_requests;
    out.rejected_requests += r.rejected_requests;
    for (double v : r.ttfts.samples()) out.ttfts.Add(v);
    for (double v : r.p99_tbts.samples()) out.p99_tbts.Add(v);
  }
  if (eligible_total > 0) {
    out.slo_attainment /= eligible_total;
    out.ttft_attainment /= eligible_total;
    out.tbt_attainment /= eligible_total;
  }
  double summed_time = 0.0;
  for (const SloReport& r : reports) summed_time += r.total_serving_time;
  out.batch_limit_time_ratio =
      summed_time > 0 ? limit_time / summed_time : 0.0;
  out.mean_batch_size =
      out.iterations > 0 ? batch_weighted / out.iterations : 0.0;
  out.mean_ttft = out.ttfts.Mean();
  out.p99_ttft = out.ttfts.P99();
  out.jain_fairness_ttft = JainFairnessIndex(out.ttfts.samples());
  out.goodput_rps = out.total_serving_time > 0
                        ? out.slo_met_requests / out.total_serving_time
                        : 0.0;
  return out;
}

}  // namespace aptserve
