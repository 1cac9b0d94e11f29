// Async wall-clock serving: continuous batching without epoch barriers.
//
// The deterministic mode advances the whole fleet on virtual-time window
// barriers. This mode serves the same fleet as a real server, through the
// same FleetController loop with its wall executor: one long-lived worker
// thread per instance owns that instance's ServingLoopState and spins its
// iteration loop continuously, pulling newly arrived requests from a
// bounded MPSC arrival queue and admitting them mid-run through the Inject
// seam — no barrier anywhere on the hot path. The controller replays the
// trace in real time (scaled by `replay_speedup`), routing each request
// once it is due with the same routing code the virtual fleet runs, flat
// or hierarchical, in the same arrival order — so routing decisions are
// bit-identical across modes. Completions (and errors) flow back to the
// controller over one bounded MPSC event queue. Elastic scaling and
// migration stay virtual-time only: nothing migrates on the wall clock.
//
// Determinism contract (see DESIGN.md "Async serving"): the virtual-time
// mode stays the pinned bit-for-bit reference; the async mode guarantees
// *token-stream identity* — every request's generated token sequence is
// bit-identical to the virtual run of the same trace — while its timing
// (and therefore batch composition) is real and nondeterministic. This
// holds because (a) per-position logits are a pure function of the
// request's own tokens, (b) sampling is counter-based per (seed, request,
// position) with no shared RNG stream, and (c) routing replays the exact
// virtual-mode assignment. The differential test in async_serving_test.cc
// enforces it across seeds, thread counts, sampling modes and topologies.
//
// Wall-clock TTFT/TBT are measured for real against a monotonic Clock
// (runtime/clock.h) threaded through the serving loops' wall seam; the
// result carries log-bucketed latency histograms (p50/p95/p99) and
// sustained-throughput readouts next to the usual virtual-frame report.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "serve/fleet_controller.h"
#include "serve/router.h"
#include "serve/serving_loop.h"
#include "sim/metrics.h"
#include "workload/request.h"

namespace aptserve {

struct AsyncServingConfig {
  /// Per-instance arrival queue capacity; the controller's Push blocks when
  /// an instance is this far behind (backpressure instead of unbounded RAM).
  size_t queue_capacity = 256;
  /// Trace replay acceleration: a request with virtual arrival t is
  /// released to the router at wall time t / replay_speedup after start.
  /// 1.0 replays in real time; large values stress continuous batching.
  double replay_speedup = 1.0;
  /// Safety valve: abort when the run exceeds this much wall time.
  double max_wall_seconds = 300.0;

  // ---- Observability -------------------------------------------------------
  /// Optional, borrowed. Workers emit lifecycle events on per-instance
  /// tracks (wall-clock frame), the controller routes through a traced
  /// router state (and cell tracks) stamped by the wall clock. Purely
  /// observational: token streams are bit-identical with or without a
  /// recorder attached.
  obs::TraceRecorder* trace = nullptr;
  /// Optional, borrowed. Gains per-instance arrival-queue high-water
  /// gauges on top of the serving-loop, router and fleet metrics the
  /// virtual run exports.
  obs::MetricsRegistry* metrics = nullptr;
};

struct AsyncServingResult {
  /// The usual fleet result, assembled from the per-instance serving
  /// loops after shutdown (virtual-frame SLO report, prefix stats, ...).
  MultiInstanceResult serve;
  /// Real-time latency/throughput readout (arrival to token, measured
  /// against the monotonic clock).
  WallLatencyReport wall;
  /// Wall seconds from the start of the run (its clock starts before the
  /// fleet is built) to full drain.
  double wall_duration_s = 0.0;
  /// Always 0: nothing migrates on the wall clock. Kept because the
  /// benchmark harness reports it.
  int64_t shed_migrations = 0;
  /// Deepest any instance's arrival queue ever got (backpressure witness).
  size_t arrival_queue_high_water = 0;
  /// Per-instance backpressure witnesses (index = instance id).
  std::vector<size_t> arrival_queue_high_water_per_instance;
};

}  // namespace aptserve
