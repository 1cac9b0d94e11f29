// TraceRecorder: sharded ring buffers for request-lifecycle events.
//
// Design constraints, in order:
//   1. Purely observational — attaching a recorder must not perturb
//      scheduling, token streams, or the virtual timeline (same contract as
//      ServingLoopState::AttachWallClock).
//   2. Zero allocation on the hot path — each shard reserves its ring at
//      acquire time; Emit is a struct copy under a per-shard mutex that is
//      uncontended in steady state (one shard per instance/worker thread).
//   3. TSan-clean under the async serving mode — shards are mutex-guarded,
//      flow ids come from one atomic counter, Flush locks shard by shard.
//   4. One branch when disabled — a default-constructed (null) sink is the
//      only "off" path: every TraceSink method is a null check and a return
//      (bench_trace_overhead times it against an attached recorder).
//
// Determinism: under the virtual-time FleetController sinks are created and
// flow ids drawn on the serial controller path, and each instance emits only
// from its own serial Step loop, so Flush() returns a bit-identical event
// sequence at any engine/fleet thread count. The async mode promises only
// token-stream identity; its wall timestamps and interleavings are real.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace_event.h"

namespace aptserve::obs {

class TraceRecorder;

namespace internal {

/// One event ring with its capacity reserved up front: Emit appends until
/// the ring is full, then overwrites the oldest event (keeping the most
/// recent window) and counts the overwritten ones. Reserving rather than
/// filling leaves the ring's pages uncommitted until events reach them.
class TraceShard {
 public:
  TraceShard(size_t capacity, int32_t track);

  void Emit(const TraceEvent& e);

  int32_t track() const { return track_; }

 private:
  friend class aptserve::obs::TraceRecorder;

  std::mutex mu_;
  const size_t capacity_;
  std::vector<TraceEvent> ring_;  // live events; capacity_ reserved
  size_t head_ = 0;               // next write slot once the ring is full
  uint64_t emitted_ = 0;
  uint64_t dropped_ = 0;  // overwritten by ring wrap
  const int32_t track_;
};

}  // namespace internal

/// A borrowed, copyable handle onto one recorder shard. Default-constructed
/// sinks are "off": every method is a null check and a return. Layers store
/// a TraceSink by value and never touch the recorder directly.
class TraceSink {
 public:
  TraceSink() = default;

  explicit operator bool() const { return shard_ != nullptr; }

  void Emit(TraceEvent e) const;

  void Instant(TraceOp op, double ts, int64_t id, double a0 = 0,
               double a1 = 0, double a2 = 0) const;
  void Span(TraceOp op, double ts, double dur, int64_t id, double a0 = 0,
            double a1 = 0) const;
  /// Emits a flow-begin event and returns its flow id (0 when the sink is
  /// off — pass it along unchanged; FlowEnd ignores id 0).
  uint64_t FlowBegin(TraceOp op, double ts, int64_t id, double a0 = 0) const;
  /// Terminates `flow` (from a FlowBegin, possibly on another sink). A zero
  /// flow id downgrades the event to an instant so unmatched imports still
  /// show on the timeline.
  void FlowEnd(TraceOp op, double ts, int64_t id, uint64_t flow,
               double a0 = 0, double a1 = 0) const;

  int32_t track() const { return track_; }

 private:
  friend class TraceRecorder;
  TraceSink(TraceRecorder* recorder, internal::TraceShard* shard,
            int32_t track)
      : recorder_(recorder), shard_(shard), track_(track) {}

  TraceRecorder* recorder_ = nullptr;
  internal::TraceShard* shard_ = nullptr;
  int32_t track_ = 0;
};

class TraceRecorder {
 public:
  /// `shard_capacity`: events retained per shard before the ring starts
  /// overwriting its oldest entries.
  explicit TraceRecorder(size_t shard_capacity = size_t{1} << 14);

  /// Creates a shard for `track` and returns a sink bound to it. Not a
  /// hot-path call — the serial setup paths (controller spawn, router
  /// start) acquire sinks once and hand them to the layers.
  TraceSink MakeSink(int32_t track);

  /// Next nonzero flow id (atomic; shared across all sinks so an arrow's
  /// two halves agree).
  uint64_t NextFlowId() {
    return next_flow_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Drains every shard, in shard-creation order, each shard's events in
  /// emission order. Ring-dropped events are gone; TotalDropped() says how
  /// many.
  std::vector<TraceEvent> Flush();

  uint64_t TotalEmitted() const;
  uint64_t TotalDropped() const;

 private:
  mutable std::mutex mu_;  // guards shards_ (vector growth only)
  std::vector<std::unique_ptr<internal::TraceShard>> shards_;
  std::atomic<uint64_t> next_flow_{0};
  const size_t shard_capacity_;
};

}  // namespace aptserve::obs
