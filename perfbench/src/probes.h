// Timing decorators over the two per-instance seams of the serving loop:
// Scheduler::PlanIteration and ExecutionBackend. Each decorated
// scheduler/backend pair shares one InstanceProbe; the probe is written
// only from the thread that steps that instance, and read after the run
// has joined its threads, so async workers share no counters.
//
// A probe always logs token emissions (the benchmark derives TTFT, TBT and
// SLO attainment from them). With `timed` set it also times every call
// into the layers below the loop; that is the traced run.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/execution_backend.h"
#include "serve/fleet_controller.h"
#include "sim/scheduler.h"

namespace perfbench {

using aptserve::RequestId;

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (all threads). On a single-threaded pass this is
/// the pass's own timeline with the host's descheduled time left out.
inline double CpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Clock frame token emissions are read in.
enum class TokenFrame {
  /// steady_clock seconds, read when EndIteration returns: the same
  /// instant the serving loop stamps its own wall metrics.
  kWall,
  /// The serving loop's own clock (virtual time), observed through
  /// SimRequest::last_token_time on the next backend call that sees the
  /// request.
  kLoop,
};

struct InstanceProbe {
  TokenFrame frame = TokenFrame::kWall;
  bool timed = false;

  // ---- Always recorded -----------------------------------------------------
  /// Emission time of every token, per request, in `frame`.
  std::unordered_map<RequestId, std::vector<double>> token_times;
  /// Wall time the backend first registered each request (Prepare/Admit).
  std::unordered_map<RequestId, double> accepted_at;
  /// Tokens of the current iteration awaiting their wall stamp.
  std::vector<RequestId> pending_tokens;
  /// kLoop bookkeeping: generated count already logged per request.
  std::unordered_map<RequestId, int32_t> logged;
  /// Loop-frame emissions that skipped a count (would mean the
  /// observation rule above does not hold).
  int64_t token_gaps = 0;
  /// Requests scheduled at least once in the hidden cache / preempted.
  std::unordered_set<RequestId> hidden_requests;
  std::unordered_set<RequestId> preempted_requests;

  // ---- Recorded when timed -------------------------------------------------
  std::vector<double> plan_us;
  int64_t plan_items = 0;
  int64_t waiting_seen = 0;
  double pool_util_sum = 0.0;
  double pool_peak_frac = 0.0;
  /// Loop-frame instant each request was first scheduled, minus arrival.
  std::unordered_map<RequestId, double> queue_wait_s;

  std::vector<double> prepare_us;
  std::vector<double> flush_ms;
  int64_t oom_steps = 0;
  int64_t convert_calls = 0;
  int64_t swap_outs = 0;
  /// Wall seconds between BeginIteration and EndIteration's return.
  double busy_s = 0.0;
  int64_t pure_prefill_tokens = 0;
  double pure_prefill_busy_s = 0.0;
  int64_t pure_decode_tokens = 0;
  double pure_decode_busy_s = 0.0;

  /// Loop remainder: wall between consecutive plans of one continuing
  /// batch, and the part of it spent inside the scheduler or backend.
  double loop_wall_s = 0.0;
  double loop_covered_s = 0.0;

  // Per-iteration scratch.
  double iter_begin = -1.0;
  int32_t iter_prefill_items = 0;
  int32_t iter_decode_items = 0;
  int64_t iter_prefill_tokens = 0;
  double plan_started = -1.0;
  double covered_since_plan = 0.0;
  std::unordered_set<RequestId> prev_plan_ids;

  bool has_backend = false;
};

/// Forwards PlanIteration to `inner`, timing it when the probe is timed.
class TimedScheduler : public aptserve::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<aptserve::Scheduler> inner,
                 InstanceProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  aptserve::BatchPlan PlanIteration(
      const aptserve::SchedulerInput& input) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<aptserve::Scheduler> inner_;
  InstanceProbe* probe_;
};

/// Forwards every ExecutionBackend virtual to `inner`, the defaulted ones
/// included, logging tokens and (when timed) call durations.
class TimedBackend : public aptserve::ExecutionBackend {
 public:
  TimedBackend(std::unique_ptr<aptserve::ExecutionBackend> inner,
               InstanceProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  aptserve::Status Prepare(
      const std::vector<aptserve::SimRequest>& reqs) override;
  aptserve::Status Admit(const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<aptserve::MigrationImage> ExportRequest(
      const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<aptserve::MigrationImport> ImportRequest(
      const aptserve::SimRequest& sr,
      const aptserve::MigrationImage& image) override;
  const aptserve::BlockPool* pool() const override { return inner_->pool(); }
  const aptserve::HybridCacheAssigner* assigner() const override {
    return inner_->assigner();
  }
  const aptserve::CostModel* cost_model() const override {
    return inner_->cost_model();
  }
  void BeginIteration() override;
  aptserve::StatusOr<double> EndIteration() override;
  double IdleAdvanceSeconds() const override {
    return inner_->IdleAdvanceSeconds();
  }
  aptserve::Status Release(const aptserve::SimRequest& sr) override;
  aptserve::Status Convert(const aptserve::SimRequest& sr,
                           aptserve::CacheType new_type) override;
  aptserve::StatusOr<bool> TrySwapOut(const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<bool> TrySwapIn(const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<StepOutcome> ExecutePrefillChunk(
      const aptserve::SimRequest& sr, aptserve::CacheType cache_type,
      int32_t chunk) override;
  aptserve::StatusOr<StepOutcome> ExecuteDecode(
      const aptserve::SimRequest& sr) override;
  aptserve::Status OnFinish(const aptserve::SimRequest& sr) override;
  aptserve::Status Finalize() override;
  int64_t swap_outs() const override { return inner_->swap_outs(); }
  int64_t swap_ins() const override { return inner_->swap_ins(); }
  const aptserve::PrefixStats* prefix_stats() const override {
    return inner_->prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override;

 private:
  /// kLoop frame: logs a token the loop emitted since the last sighting.
  void Observe(const aptserve::SimRequest& sr);
  /// Adds a timed call's duration to the loop-coverage account.
  void Cover(double t0) const;

  std::unique_ptr<aptserve::ExecutionBackend> inner_;
  InstanceProbe* probe_;
};

/// Probes for one run. Factories from Wrap() create one probe per
/// scheduler/backend pair; both fleet runners build an instance's
/// scheduler immediately before its backend, which is what pairs them.
class ProbeSet {
 public:
  ProbeSet(TokenFrame frame, bool timed) : frame_(frame), timed_(timed) {}

  InstanceProbe* Add();
  aptserve::SchedulerFactory Wrap(aptserve::SchedulerFactory inner);
  aptserve::BackendFactory Wrap(aptserve::BackendFactory inner);

  TokenFrame frame() const { return frame_; }
  const std::deque<InstanceProbe>& probes() const { return probes_; }

 private:
  TokenFrame frame_;
  bool timed_;
  std::deque<InstanceProbe> probes_;
};

}  // namespace perfbench
