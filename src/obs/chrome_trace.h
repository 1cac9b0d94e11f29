// Chrome trace_event JSON exporter + validator for TraceRecorder events.
//
// The emitted JSON loads directly in chrome://tracing and Perfetto: one
// thread track per instance (tids = instance ids) plus "router" and
// "controller" tracks, spans as "X" complete events, instants as "i", and
// flow arrows ("s"/"f" pairs sharing an id) linking migration export ->
// import across instance tracks. Timestamps convert
// from the recorder's seconds (virtual or wall — one frame per run) to the
// microseconds the format requires.
//
// ValidateChromeTrace re-parses the JSON with a self-contained parser (no
// third-party deps) and checks the structural contract CI relies on:
// well-formed JSON, required keys per event, per-track monotonic
// timestamps, and every flow-begin matched by a flow-end at a later-or-
// equal timestamp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_event.h"

namespace aptserve::obs {

/// Structural summary returned by the validator (and used as CI gates).
struct ChromeTraceStats {
  int64_t events = 0;       ///< non-metadata trace events
  int64_t tracks = 0;       ///< distinct (pid, tid) pairs
  int64_t flow_begins = 0;  ///< "s" phase events
  int64_t flow_ends = 0;    ///< "f" phase events
  int64_t matched_flows = 0;  ///< flow ids with both halves present
  int64_t scale_events = 0;   ///< events named "scale"
  /// "queue_wait" complete ("X") events. Queue wait is a *duration*: the
  /// validator rejects a "queue_wait" instant (the paired-instant encoding
  /// this span replaced), so a regression to instants fails validation.
  int64_t queue_wait_spans = 0;
};

/// Renders events as a `{"traceEvents": [...]}` JSON document. Events are
/// sorted per track by timestamp (stable), so the output is deterministic
/// for a deterministic event sequence and per-track timestamps are
/// monotonic by construction.
std::string ExportChromeTrace(std::vector<TraceEvent> events);

/// Parses `json` and checks the structural contract described above.
StatusOr<ChromeTraceStats> ValidateChromeTrace(const std::string& json);

}  // namespace aptserve::obs
