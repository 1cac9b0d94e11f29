// Typed request-lifecycle trace events. One fixed-size POD per event so the
// hot-path emit is a struct copy into a reserved ring — no allocation,
// no string formatting; names and arg labels are resolved only at export
// time (obs/chrome_trace.h).
//
// Timestamp frame: events carry whatever clock the emitting layer runs on —
// virtual seconds under the simulator/FleetController, monotonic wall
// seconds under RunAsync. Exporters never mix frames because a recorder is
// only ever attached to one run.
#pragma once

#include <cstdint>

namespace aptserve::obs {

// Tracks identify the timeline an event renders on. Instance tracks are the
// non-negative instance ids; fleet-level layers get reserved negative ids.
constexpr int32_t kRouterTrack = -1;      ///< Router::RouteOne decisions
constexpr int32_t kControllerTrack = -2;  ///< FleetController scaling ticks
/// Hierarchical front-tier tracks: cell c renders on kCellTrackBase - c
/// (-16, -17, ...). The gap below kControllerTrack leaves room for more
/// reserved fleet-level tracks without renumbering cells.
constexpr int32_t kCellTrackBase = -16;

/// What kind of timeline mark an event is.
enum class EventKind : uint8_t {
  kInstant,    ///< point event at `ts`
  kSpan,       ///< interval [ts, ts + dur]
  kFlowBegin,  ///< point event starting a cross-track arrow (`flow` id)
  kFlowEnd,    ///< point event terminating the matching kFlowBegin
};

/// The request-lifecycle taxonomy. Args a0/a1/a2 are op-specific; see
/// TraceOpArgName for the labels used at export time.
enum class TraceOp : uint8_t {
  kArrival,          ///< request registered with an instance's loop
  kRouteDecision,    ///< router chose an instance (a0=instance, a1=score,
                     ///< a2=policy)
  kAdmission,        ///< admission verdict (a0: 0=admit,1=reject,
                     ///< 2=best_effort; a1=predicted TTFT; a2=deadline)
  kQueueWait,        ///< span: enqueue -> first prefill chunk scheduled
  kPrefill,          ///< span: one chunked-prefill execution (a0=positions)
  kDecodeStep,       ///< instant: one generated token (a0=tokens so far)
  kIteration,        ///< span: one batch iteration (a0=batch, a1=decodes)
  kPreempt,          ///< instant (a0 reason: 0=scheduler, 1=memory_wall,
                     ///< 2=swap_out, 3=conversion)
  kSwapIn,           ///< instant: swapped cache restored to the pool
  kMigrationExport,  ///< flow begin: request extracted (a0=cached tokens)
  kMigrationImport,  ///< flow end: request received (a0=cache restored 0/1,
                     ///< a1=copied tokens)
  kShed,             ///< instant: async worker shed a queued request
                     ///< (a0=queue depth at shed)
  kCompletion,       ///< instant: final token (a0=ttft, a1=e2e seconds)
  kScale,            ///< instant on the controller track (id=instance,
                     ///< a0 kind: 0=add, 1=live, 2=drain, 3=retire)
};

struct TraceEvent {
  TraceOp op = TraceOp::kArrival;
  EventKind kind = EventKind::kInstant;
  int32_t track = 0;
  int64_t id = -1;    ///< request id (instance id for kScale)
  uint64_t flow = 0;  ///< nonzero links a kFlowBegin to its kFlowEnd
  double ts = 0.0;    ///< seconds in the run's clock frame
  double dur = 0.0;   ///< kSpan only
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// Stable lower_snake_case name ("route_decision", "migration_export", ...).
const char* TraceOpName(TraceOp op);

/// Label of argument slot `slot` (0..2) for `op`; nullptr when the slot is
/// unused (the exporter then omits it from the args object).
const char* TraceOpArgName(TraceOp op, int32_t slot);

}  // namespace aptserve::obs
