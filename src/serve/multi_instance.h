// Multi-instance serving (the paper's §8 future work: "generalize
// Apt-Serve's designs to the multi-instance scenario"). The fleet Router
// (serve/router.h) is the single entry point for multi-instance traffic:
// it admits each request against its SLO and assigns it, live at its
// arrival, to one of N independent ServingLoop instances (optionally
// behind the hierarchical cell front tier); instances serve their requests
// and the reports are merged.
//
// The runner is generic over ExecutionBackend: the same routing policies
// shard the analytic simulator (CostModelBackend) and the real engine
// (InferenceBackend) — the fleet composes with any backend for free, and
// because routing is backend-independent, the same trace produces the
// same shards (and therefore identical prefix-hit accounting) on both.
//
// The runner is the static-fleet front of FleetController, whose one
// controller loop drives both clocks. Run serves in virtual time: with a
// RuntimeConfig of more than one thread, instances run concurrently on a
// fleet thread pool; schedulers/backends are constructed serially in
// instance order (factories may share state), and the merge happens in
// instance order — so every routing decision and the merged report are
// bit-identical to the serial runner at any thread count. RunAsync serves
// the same fleet in wall time with the same routing.
//
// The router sees only what a real front-end would: arrival times, prompt
// lengths, prompt token ids and per-request SLOs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "prefix/prefix_index.h"
#include "runtime/runtime_config.h"
#include "serve/execution_backend.h"
#include "serve/fleet_controller.h"
#include "serve/router.h"
#include "serve/serving_loop.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "workload/request.h"

namespace aptserve {

class MultiInstanceRunner {
 public:
  /// Fleet behind an SLO-aware router. `cells` configures the
  /// hierarchical fleet-of-fleets front tier; the default (num_cells = 1)
  /// is the flat fleet, bit-identical to runners built before cells
  /// existed.
  MultiInstanceRunner(const Router& router, const ServingLoopConfig& loop,
                      const RuntimeConfig& runtime = RuntimeConfig{},
                      const CellRouterConfig& cells = CellRouterConfig{});

  /// Routes `trace` across instances, serves each admitted shard with its
  /// own ServingLoop over a backend from `make_backend`, and merges
  /// reports (rejected requests are folded into the combined attainment).
  /// Instances run concurrently when the runtime allows; the result is
  /// bit-identical to the serial run.
  StatusOr<MultiInstanceResult> Run(const std::vector<Request>& trace,
                                    const SchedulerFactory& make_scheduler,
                                    const BackendFactory& make_backend,
                                    const SloSpec& slo);

  /// The same fleet, flat or hierarchical, as a real-time continuously
  /// batching server (serve/async_serving.h): per-instance worker threads,
  /// bounded arrival queues, wall-clock TTFT/TBT. Token streams are
  /// bit-identical to Run(); only timing differs.
  StatusOr<AsyncServingResult> RunAsync(const std::vector<Request>& trace,
                                        const SchedulerFactory& make_scheduler,
                                        const BackendFactory& make_backend,
                                        const SloSpec& slo,
                                        const AsyncServingConfig& async);

 private:
  FleetController Controller() const;

  Router router_;
  ServingLoopConfig loop_;
  RuntimeConfig runtime_;
  CellRouterConfig cells_;
};

}  // namespace aptserve
