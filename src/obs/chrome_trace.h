// Chrome trace_event JSON exporter for TraceRecorder events, and the check
// that a flushed event vector is fit to export.
//
// The emitted JSON loads directly in chrome://tracing and Perfetto: one
// thread track per instance (tids = instance ids) plus "router" and
// "controller" tracks, spans as "X" complete events, instants as "i", and
// flow arrows ("s"/"f" pairs sharing an id) linking migration export ->
// import across instance tracks. Timestamps convert
// from the recorder's seconds (virtual or wall — one frame per run) to the
// microseconds the format requires.
//
// CheckTraceEvents runs on the typed events, before export, in one pass:
// each event's ts, dur and args are finite (the exporter prints them with
// "%.3f", and nan/inf are not JSON), spans have non-negative durations,
// queue wait is a span, and every flow id has exactly one begin and one
// end, the end no earlier than the begin. Well-formedness, the per-event
// keys and per-track timestamp order are properties of the exporter (a
// fixed grammar and a stable sort), pinned by trace_recorder_test's parse
// of an exported trace.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "obs/trace_event.h"

namespace aptserve::obs {

/// Structural summary returned by CheckTraceEvents (and used as CI gates),
/// counted as the exported trace renders the events.
struct ChromeTraceStats {
  int64_t events = 0;  ///< non-metadata trace events (a flow event is two)
  int64_t tracks = 0;  ///< distinct tracks
  int64_t flow_begins = 0;  ///< "s" phase events
  int64_t flow_ends = 0;    ///< "f" phase events
  int64_t matched_flows = 0;  ///< flow ids with both halves present
  int64_t scale_events = 0;   ///< "scale" instants
  /// "queue_wait" complete ("X") events. Queue wait is a *duration*: the
  /// check rejects a "queue_wait" instant (the paired-instant encoding
  /// this span replaced), so a regression to instants fails it.
  int64_t queue_wait_spans = 0;
};

/// Checks `events` against the contract described above.
StatusOr<ChromeTraceStats> CheckTraceEvents(
    const std::vector<TraceEvent>& events);

/// Writes events to `out` as a `{"traceEvents": [...]}` JSON document.
/// Events are sorted per track by timestamp (stable), so the output is
/// deterministic for a deterministic event sequence and per-track
/// timestamps are monotonic by construction. Pass events that
/// CheckTraceEvents accepts: a NaN stamp has no place in that order.
void ExportChromeTrace(std::vector<TraceEvent> events, std::ostream& out);

}  // namespace aptserve::obs
