#include "serve/async_serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "runtime/bounded_queue.h"
#include "runtime/clock.h"
#include "serve/multi_instance.h"

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

/// What travels controller -> worker over an arrival queue: a freshly
/// routed request, or a shed request migrating in with its cache state.
struct AsyncCommand {
  enum class Kind { kInject, kReceive };
  Kind kind = Kind::kInject;
  Request request;            ///< kInject
  double wall_arrival = 0.0;  ///< kInject: wall stamp at release
  MigratedRequest migrated;   ///< kReceive
};

/// What travels worker -> controller over the event queue.
struct AsyncEvent {
  enum class Kind { kFinished, kShed, kError };
  Kind kind = Kind::kFinished;
  int32_t instance = -1;
  RequestId id = -1;          ///< kFinished
  double virtual_time = 0.0;  ///< kFinished: instance-frame finish time
  MigratedRequest migrated;   ///< kShed
  Status error = Status::OK();
};

/// One continuously-batching serving instance: a worker thread that owns
/// the loop state end-to-end (no cross-thread access to the loop, ever —
/// all communication is queue messages and the published depth atomic).
struct AsyncInstance {
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<ExecutionBackend> backend;
  std::unique_ptr<ServingLoopState> loop;
  std::unique_ptr<runtime::BoundedQueue<AsyncCommand>> arrivals;
  std::thread thread;
  /// Waiting-queue depth the worker publishes each iteration — the
  /// controller's shed-target picker reads it without touching the loop.
  std::atomic<int32_t> waiting_depth{0};
};

/// Serves `trace` on a static fleet of router.config().n_instances
/// continuously-batching worker threads. Blocks until the last request
/// drains (or the first error). `migration_cost_model` prices the virtual
/// availability delay of shed requests (null = instantaneous, wall cost is
/// real either way).
StatusOr<AsyncServingResult> RunAsyncFleet(
    const std::vector<Request>& trace, const Router& router,
    const ServingLoopConfig& loop_config, const AsyncServingConfig& async,
    const SchedulerFactory& make_scheduler, const BackendFactory& make_backend,
    const SloSpec& slo, const CostModel* migration_cost_model) {
  const int32_t n = router.config().n_instances;
  APT_CHECK(n >= 1);
  APT_CHECK(async.queue_capacity >= 1);
  APT_CHECK(async.replay_speedup > 0.0);

  runtime::MonotonicClock clock;
  // Sized so worker event pushes can always complete while the controller
  // is momentarily blocked handing a shed request to a full arrival queue
  // (every request finishes exactly once; sheds are drained continuously).
  runtime::BoundedQueue<AsyncEvent> events(2 * trace.size() + 256);

  std::vector<std::unique_ptr<AsyncInstance>> fleet;
  fleet.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    auto inst = std::make_unique<AsyncInstance>();
    inst->scheduler = make_scheduler();
    APT_ASSIGN_OR_RETURN(inst->backend, make_backend(i));
    inst->loop =
        std::make_unique<ServingLoopState>(inst->backend.get(), loop_config);
    if (async.trace != nullptr || async.metrics != nullptr) {
      inst->loop->AttachObservability(
          async.trace != nullptr ? async.trace->MakeSink(i)
                                 : obs::TraceSink(),
          async.metrics, i);
    }
    APT_RETURN_NOT_OK(inst->loop->Start({}, inst->scheduler.get(), slo));
    inst->loop->AttachWallClock(&clock);
    inst->arrivals = std::make_unique<runtime::BoundedQueue<AsyncCommand>>(
        async.queue_capacity);
    fleet.push_back(std::move(inst));
  }

  std::atomic<bool> abort{false};
  std::atomic<int64_t> routed{0};
  std::atomic<int64_t> rejected{0};
  std::atomic<int64_t> deprioritized{0};
  std::atomic<bool> feeder_done{false};

  const auto close_all = [&] {
    for (auto& inst : fleet) inst->arrivals->Close();
    events.Close();
  };

  // ---- Worker: one instance's continuous batching loop ---------------------
  const auto worker_main = [&](int32_t me) {
    AsyncInstance& self = *fleet[me];
    ServingLoopState& loop = *self.loop;
    const auto fail = [&](Status s) {
      AsyncEvent ev;
      ev.kind = AsyncEvent::Kind::kError;
      ev.instance = me;
      ev.error = std::move(s);
      (void)events.Push(std::move(ev));
    };
    const auto apply = [&](AsyncCommand cmd) -> Status {
      if (cmd.kind == AsyncCommand::Kind::kInject) {
        return loop.Inject(cmd.request, cmd.request.arrival, cmd.wall_arrival);
      }
      // Shed migration in: schedulable at the later of the source-frame
      // availability and this instance's own clock, plus the priced
      // interconnect delay over post-dedupe bytes.
      const double base = std::max(cmd.migrated.available_at, loop.now());
      const auto delay = [&](const MigrationImport& import) {
        return migration_cost_model != nullptr
                   ? migration_cost_model->MigrationSeconds(import.bytes)
                   : 0.0;
      };
      return loop.Receive(std::move(cmd.migrated), base, delay).status();
    };

    while (!abort.load(std::memory_order_acquire)) {
      // 1. Admit everything that arrived since the last iteration — the
      // mid-step Inject seam, no barrier between admission and execution.
      bool applied_any = false;
      for (AsyncCommand& cmd : self.arrivals->DrainNow()) {
        if (Status s = apply(std::move(cmd)); !s.ok()) {
          fail(std::move(s));
          return;
        }
        applied_any = true;
      }

      // 2. Fuse the timelines and run one iteration.
      loop.SyncClock(clock.Now() * async.replay_speedup);
      if (loop.iterations() >= loop_config.max_iterations) {
        fail(Status::Internal("async serving loop hit the iteration cap"));
        return;
      }
      auto progress = loop.Step();
      if (!progress.ok()) {
        fail(progress.status());
        return;
      }
      self.waiting_depth.store(loop.NumWaiting(), std::memory_order_release);

      // 3. Publish completions back over the fabric.
      for (const auto& [id, t] : loop.TakeRecentFinishes()) {
        AsyncEvent ev;
        ev.kind = AsyncEvent::Kind::kFinished;
        ev.instance = me;
        ev.id = id;
        ev.virtual_time = t;
        if (!events.Push(std::move(ev))) return;  // shutting down
      }

      // 4. Queue-depth shedding: overloaded instances export one waiting
      // request (cache included) per iteration; the controller re-routes
      // it to the coolest instance.
      if (async.shed_queue_depth > 0 &&
          loop.NumWaiting() > async.shed_queue_depth) {
        const auto candidates = loop.MigratableWaiting();
        if (!candidates.empty()) {
          // The shed instant precedes Extract so readers see the queue
          // depth that triggered it; Extract itself opens the migration
          // flow arrow that the destination's Receive closes.
          if (loop.trace_sink()) {
            loop.trace_sink().Instant(obs::TraceOp::kShed, clock.Now(),
                                      candidates.front(),
                                      static_cast<double>(loop.NumWaiting()));
          }
          auto m = loop.Extract(candidates.front());
          if (!m.ok()) {
            fail(m.status());
            return;
          }
          AsyncEvent ev;
          ev.kind = AsyncEvent::Kind::kShed;
          ev.instance = me;
          ev.migrated = std::move(*m);
          if (!events.Push(std::move(ev))) return;
        }
      }

      // 5. Park while drained: block on the arrival queue instead of
      // spinning, and exit once the fabric is closed and empty.
      if (*progress == ServingLoopState::Progress::kDrained && !applied_any) {
        auto cmd = self.arrivals->PopFor(std::chrono::nanoseconds(
            static_cast<int64_t>(async.idle_poll_s * 1e9)));
        if (cmd.has_value()) {
          if (Status s = apply(std::move(*cmd)); !s.ok()) {
            fail(std::move(s));
            return;
          }
          continue;
        }
        if (self.arrivals->closed() && self.arrivals->size() == 0 &&
            loop.AllServed()) {
          return;
        }
      }
    }
  };

  // ---- Feeder: real-time trace replay through the router -------------------
  // Incremental RouteOne in arrival order over the all-live static fleet is
  // bit-identical to the virtual mode's routing pass, so each request goes
  // to the same instance in both modes — the routing half of the
  // determinism contract.
  const auto feeder_main = [&] {
    RouterState rstate = router.MakeState(n);
    if (async.trace != nullptr) {
      router.AttachTrace(&rstate, async.trace->MakeSink(obs::kRouterTrack),
                         &clock);
    }
    const std::vector<uint8_t> live(static_cast<size_t>(n), 1);
    for (size_t idx = 0; idx < trace.size(); ++idx) {
      if (abort.load(std::memory_order_acquire)) break;
      const Request& req = trace[idx];
      const double release = req.arrival / async.replay_speedup;
      while (!abort.load(std::memory_order_acquire)) {
        const double lag = release - clock.Now();
        if (lag <= 0) break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(lag, 0.001)));
      }
      bool best_effort = false;
      const int32_t inst =
          router.RouteOne(req, idx, live, &rstate, &best_effort);
      if (inst == RouteDecision::kRejected) {
        rejected.fetch_add(1, std::memory_order_acq_rel);
        continue;
      }
      AsyncCommand cmd;
      cmd.kind = AsyncCommand::Kind::kInject;
      cmd.request = req;
      if (best_effort) {
        cmd.request.best_effort = true;
        deprioritized.fetch_add(1, std::memory_order_acq_rel);
      }
      // Stamp the due instant, not the push: time spent behind a blocking
      // Push to a full queue (or behind feeder lag) is arrival-to-token
      // latency the request really waited.
      cmd.wall_arrival = release;
      routed.fetch_add(1, std::memory_order_acq_rel);
      // Blocking push: a full queue is backpressure, not an error. False
      // means the fabric closed under us (abort path).
      if (!fleet[inst]->arrivals->Push(std::move(cmd))) break;
    }
    feeder_done.store(true, std::memory_order_release);
  };

  std::thread feeder(feeder_main);
  for (int32_t i = 0; i < n; ++i) {
    fleet[i]->thread = std::thread(worker_main, i);
  }

  // ---- Controller: drain events until the fleet runs dry -------------------
  Status first_error = Status::OK();
  int64_t finished = 0;
  int64_t shed_migrations = 0;
  std::vector<int64_t> sheds_per_instance(static_cast<size_t>(n), 0);
  while (true) {
    if (feeder_done.load(std::memory_order_acquire) &&
        finished == routed.load(std::memory_order_acquire)) {
      break;
    }
    if (clock.Now() > async.max_wall_seconds) {
      first_error = Status::Internal(
          "async serving exceeded the wall-time valve (" +
          std::to_string(async.max_wall_seconds) + "s)");
      abort.store(true, std::memory_order_release);
      break;
    }
    auto ev = events.PopFor(std::chrono::milliseconds(1));
    if (!ev.has_value()) continue;
    if (ev->kind == AsyncEvent::Kind::kFinished) {
      ++finished;
    } else if (ev->kind == AsyncEvent::Kind::kError) {
      first_error = ev->error;
      abort.store(true, std::memory_order_release);
      break;
    } else {  // kShed: hand the migrant to the coolest instance.
      // Coolest published depth, lowest id on ties; a lone instance
      // receives its own shed back (re-injection, still well-formed).
      int32_t dst = ev->instance;
      int32_t best_depth = std::numeric_limits<int32_t>::max();
      for (int32_t i = 0; i < n; ++i) {
        if (i == ev->instance) continue;
        const int32_t d =
            fleet[i]->waiting_depth.load(std::memory_order_acquire);
        if (d < best_depth) {
          best_depth = d;
          dst = i;
        }
      }
      AsyncCommand cmd;
      cmd.kind = AsyncCommand::Kind::kReceive;
      cmd.migrated = std::move(ev->migrated);
      ++shed_migrations;
      ++sheds_per_instance[ev->instance];
      // Blocking push is deadlock-free: the destination worker drains its
      // arrival queue every iteration and its event pushes cannot fill the
      // (finish-count-sized) event queue.
      if (!fleet[dst]->arrivals->Push(std::move(cmd))) break;
    }
  }
  const double wall_end = clock.Now();

  // Shutdown: close the fabric (wakes blocked pushes and parked workers),
  // then join. On the error path workers exit via the abort flag even with
  // unfinished requests aboard.
  close_all();
  feeder.join();
  for (auto& inst : fleet) inst->thread.join();
  APT_RETURN_NOT_OK(first_error);

  // ---- Finalize (single-threaded again): assemble the fleet result ---------
  AsyncServingResult out;
  MultiInstanceResult& result = out.serve;
  result.per_instance.resize(n);
  result.requests_per_instance.assign(n, 0);
  result.prefill_computed_per_instance.assign(n, 0);
  result.prefill_skipped_per_instance.assign(n, 0);
  result.prefix_per_instance.resize(n);
  result.records_per_instance.resize(n);
  result.rejected_requests = rejected.load();
  result.deprioritized_requests = deprioritized.load();
  out.arrival_queue_high_water_per_instance.assign(n, 0);
  out.sheds_per_instance = sheds_per_instance;
  WallClockMetrics wall;
  for (int32_t i = 0; i < n; ++i) {
    AsyncInstance& inst = *fleet[i];
    out.arrival_queue_high_water_per_instance[i] = inst.arrivals->high_water();
    out.arrival_queue_high_water =
        std::max(out.arrival_queue_high_water, inst.arrivals->high_water());
    if (async.metrics != nullptr) {
      const std::string label = "instance=\"" + std::to_string(i) + "\"";
      async.metrics
          ->GetGauge("aptserve_async_arrival_queue_high_water", label)
          ->SetMax(static_cast<double>(inst.arrivals->high_water()));
      async.metrics->GetCounter("aptserve_async_sheds_total", label)
          ->Inc(sheds_per_instance[i]);
    }
    if (inst.loop->NumRegistered() == 0) continue;
    APT_ASSIGN_OR_RETURN(ServingLoopResult r, inst.loop->Finish());
    result.per_instance[i] = r.report;
    result.requests_per_instance[i] = static_cast<int32_t>(r.records.size());
    result.prefill_computed_per_instance[i] = r.prefill_tokens_computed;
    result.prefill_skipped_per_instance[i] = r.prefill_tokens_skipped;
    result.prefix_per_instance[i] = r.prefix;
    result.prefill_tokens_computed += r.prefill_tokens_computed;
    result.prefill_tokens_skipped += r.prefill_tokens_skipped;
    result.tokens_generated += r.tokens_generated;
    AddPrefixStats(r.prefix, &result.prefix);
    wall.Merge(r.wall_metrics);
    result.records_per_instance[i] = std::move(r.records);
  }
  result.combined =
      MergeReports(result.per_instance, result.requests_per_instance);
  FoldRejectedIntoReport(result.rejected_requests, &result.combined);
  out.wall = wall.Report();
  out.wall_duration_s = wall_end;
  out.shed_migrations = shed_migrations;
  return out;
}

}  // namespace

StatusOr<AsyncServingResult> MultiInstanceRunner::RunAsync(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    const AsyncServingConfig& async) {
  if (cells_.num_cells > 1) {
    return Status::InvalidArgument(
        "async serving does not support hierarchical (num_cells > 1) "
        "fleets yet: the cell front tier runs on the virtual-time routing "
        "path");
  }
  return RunAsyncFleet(trace, router_, loop_, async, make_scheduler,
                       make_backend, slo, router_.cost_model());
}

}  // namespace aptserve
