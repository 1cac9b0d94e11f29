#include "obs/trace_recorder.h"

namespace aptserve::obs {

namespace internal {

TraceShard::TraceShard(size_t capacity, int32_t track)
    : capacity_(capacity == 0 ? 1 : capacity), track_(track) {
  ring_.reserve(capacity_);
}

void TraceShard::Emit(const TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);  // within the reserved capacity: no allocation
  } else {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;  // wrapped: overwrote the oldest event
  }
  ++emitted_;
}

}  // namespace internal

#if !defined(APTSERVE_NO_TRACING)

void TraceSink::Emit(TraceEvent e) const {
  if (shard_ == nullptr) return;
  e.track = track_;
  shard_->Emit(e);
}

void TraceSink::Instant(TraceOp op, double ts, int64_t id, double a0,
                        double a1, double a2) const {
  if (shard_ == nullptr) return;
  TraceEvent e;
  e.op = op;
  e.kind = EventKind::kInstant;
  e.track = track_;
  e.id = id;
  e.ts = ts;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  shard_->Emit(e);
}

void TraceSink::Span(TraceOp op, double ts, double dur, int64_t id, double a0,
                     double a1) const {
  if (shard_ == nullptr) return;
  TraceEvent e;
  e.op = op;
  e.kind = EventKind::kSpan;
  e.track = track_;
  e.id = id;
  e.ts = ts;
  e.dur = dur < 0 ? 0 : dur;
  e.a0 = a0;
  e.a1 = a1;
  shard_->Emit(e);
}

uint64_t TraceSink::FlowBegin(TraceOp op, double ts, int64_t id,
                              double a0) const {
  if (shard_ == nullptr) return 0;
  TraceEvent e;
  e.op = op;
  e.kind = EventKind::kFlowBegin;
  e.track = track_;
  e.id = id;
  e.flow = recorder_->NextFlowId();
  e.ts = ts;
  e.a0 = a0;
  shard_->Emit(e);
  return e.flow;
}

void TraceSink::FlowEnd(TraceOp op, double ts, int64_t id, uint64_t flow,
                        double a0, double a1) const {
  if (shard_ == nullptr) return;
  TraceEvent e;
  e.op = op;
  e.kind = flow == 0 ? EventKind::kInstant : EventKind::kFlowEnd;
  e.track = track_;
  e.id = id;
  e.flow = flow;
  e.ts = ts;
  e.a0 = a0;
  e.a1 = a1;
  shard_->Emit(e);
}

#endif  // !APTSERVE_NO_TRACING

TraceRecorder::TraceRecorder(size_t shard_capacity)
    : shard_capacity_(shard_capacity) {}

TraceSink TraceRecorder::MakeSink(int32_t track) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(
      std::make_unique<internal::TraceShard>(shard_capacity_, track));
  return TraceSink(this, shards_.back().get(), track);
}

std::vector<TraceEvent> TraceRecorder::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu_);
    // Until the ring wraps the oldest event is slot 0; after, the write head.
    const size_t cap = shard->capacity_;
    size_t pos = shard->head_;
    for (size_t i = 0; i < shard->ring_.size(); ++i) {
      out.push_back(shard->ring_[pos]);
      pos = (pos + 1) % cap;
    }
    shard->ring_.clear();  // keeps the reserved capacity
    shard->head_ = 0;
  }
  return out;
}

uint64_t TraceRecorder::TotalEmitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu_);
    total += shard->emitted_;
  }
  return total;
}

uint64_t TraceRecorder::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu_);
    total += shard->dropped_;
  }
  return total;
}

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kArrival:
      return "arrival";
    case TraceOp::kRouteDecision:
      return "route_decision";
    case TraceOp::kAdmission:
      return "admission";
    case TraceOp::kQueueWait:
      return "queue_wait";
    case TraceOp::kPrefill:
      return "prefill";
    case TraceOp::kDecodeStep:
      return "decode_step";
    case TraceOp::kIteration:
      return "iteration";
    case TraceOp::kPreempt:
      return "preempt";
    case TraceOp::kSwapIn:
      return "swap_in";
    case TraceOp::kMigrationExport:
      return "migration_export";
    case TraceOp::kMigrationImport:
      return "migration_import";
    case TraceOp::kCompletion:
      return "completion";
    case TraceOp::kScale:
      return "scale";
  }
  return "unknown";
}

const char* TraceOpArgName(TraceOp op, int32_t slot) {
  switch (op) {
    case TraceOp::kArrival:
      return nullptr;
    case TraceOp::kRouteDecision:
      switch (slot) {
        case 0: return "instance";
        case 1: return "score";
        case 2: return "policy";
      }
      return nullptr;
    case TraceOp::kAdmission:
      switch (slot) {
        case 0: return "verdict";
        case 1: return "predicted_ttft_s";
        case 2: return "deadline_s";
      }
      return nullptr;
    case TraceOp::kQueueWait:
      // a0: on router/cell tracks, the chosen instance of the predicted
      // wait; instance-track (measured) spans leave it 0.
      return slot == 0 ? "instance" : nullptr;
    case TraceOp::kPrefill:
      return slot == 0 ? "positions" : nullptr;
    case TraceOp::kDecodeStep:
      return slot == 0 ? "tokens" : nullptr;
    case TraceOp::kIteration:
      switch (slot) {
        case 0: return "batch";
        case 1: return "decodes";
      }
      return nullptr;
    case TraceOp::kPreempt:
      return slot == 0 ? "reason" : nullptr;
    case TraceOp::kSwapIn:
      return nullptr;
    case TraceOp::kMigrationExport:
      return slot == 0 ? "cached_tokens" : nullptr;
    case TraceOp::kMigrationImport:
      switch (slot) {
        case 0: return "cache_restored";
        case 1: return "copied_tokens";
      }
      return nullptr;
    case TraceOp::kCompletion:
      switch (slot) {
        case 0: return "ttft_s";
        case 1: return "e2e_s";
      }
      return nullptr;
    case TraceOp::kScale:
      return slot == 0 ? "kind" : nullptr;
  }
  return nullptr;
}

}  // namespace aptserve::obs
