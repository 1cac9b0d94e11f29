#include "probes.h"

#include <algorithm>

#include "common/logging.h"

namespace perfbench {

using aptserve::BatchPlan;
using aptserve::CacheType;
using aptserve::SimRequest;
using aptserve::Status;
using aptserve::StatusOr;

BatchPlan TimedScheduler::PlanIteration(const aptserve::SchedulerInput& input) {
  InstanceProbe& p = *probe_;
  const double t0 = p.timed ? NowS() : 0.0;
  BatchPlan plan = inner_->PlanIteration(input);
  const double t1 = p.timed ? NowS() : 0.0;
  for (const aptserve::ScheduledItem& item : plan.items) {
    if (item.cache_type == CacheType::kHidden) {
      p.hidden_requests.insert(item.id);
    }
  }
  for (const aptserve::PreemptionItem& pre : plan.preempt) {
    p.preempted_requests.insert(pre.id);
  }
  if (!p.timed) return plan;

  // Loop remainder: close the previous iteration if this plan continues
  // its batch (some request of the last plan is still queued or running);
  // otherwise the instance may have parked in between.
  bool continues = false;
  std::unordered_set<RequestId> ids;
  ids.reserve(input.waiting.size() + input.running.size());
  for (const auto* queue : {&input.waiting, &input.running}) {
    for (const SimRequest* sr : *queue) {
      ids.insert(sr->spec.id);
      if (!continues && p.prev_plan_ids.count(sr->spec.id) > 0) {
        continues = true;
      }
    }
  }
  if (continues && p.plan_started >= 0) {
    p.loop_wall_s += t0 - p.plan_started;
    p.loop_covered_s += p.covered_since_plan;
  }
  p.prev_plan_ids = std::move(ids);
  p.plan_started = t0;
  p.covered_since_plan = t1 - t0;

  p.plan_us.push_back((t1 - t0) * 1e6);
  p.plan_items += static_cast<int64_t>(plan.items.size());
  p.waiting_seen += static_cast<int64_t>(input.waiting.size());
  if (input.pool != nullptr && input.pool->num_blocks() > 0) {
    const double blocks = input.pool->num_blocks();
    p.pool_util_sum += input.pool->num_allocated() / blocks;
    p.pool_peak_frac =
        std::max(p.pool_peak_frac, input.pool->peak_allocated() / blocks);
  }

  std::unordered_set<RequestId> scheduled;
  for (const aptserve::ScheduledItem& item : plan.items) {
    scheduled.insert(item.id);
  }
  for (const SimRequest* sr : input.waiting) {
    if (scheduled.count(sr->spec.id) > 0) {
      p.queue_wait_s.emplace(sr->spec.id, input.now - sr->spec.arrival);
    }
  }
  return plan;
}

void TimedBackend::Cover(double t0) const {
  probe_->covered_since_plan += NowS() - t0;
}

void TimedBackend::Observe(const SimRequest& sr) {
  if (probe_->frame != TokenFrame::kLoop) return;
  int32_t& logged = probe_->logged[sr.spec.id];
  if (sr.generated == logged) return;
  if (sr.generated != logged + 1) ++probe_->token_gaps;
  logged = sr.generated;
  probe_->token_times[sr.spec.id].push_back(sr.last_token_time);
}

Status TimedBackend::Prepare(const std::vector<SimRequest>& reqs) {
  const double now = NowS();
  for (const SimRequest& sr : reqs) {
    probe_->accepted_at.emplace(sr.spec.id, now);
  }
  return inner_->Prepare(reqs);
}

Status TimedBackend::Admit(const SimRequest& sr) {
  probe_->accepted_at.emplace(sr.spec.id, NowS());
  const double t0 = NowS();
  Status s = inner_->Admit(sr);
  if (probe_->timed) Cover(t0);
  return s;
}

StatusOr<aptserve::MigrationImage> TimedBackend::ExportRequest(
    const SimRequest& sr) {
  const double t0 = NowS();
  auto out = inner_->ExportRequest(sr);
  if (probe_->timed) Cover(t0);
  return out;
}

StatusOr<aptserve::MigrationImport> TimedBackend::ImportRequest(
    const SimRequest& sr, const aptserve::MigrationImage& image) {
  const double t0 = NowS();
  auto out = inner_->ImportRequest(sr, image);
  if (probe_->timed) Cover(t0);
  return out;
}

void TimedBackend::BeginIteration() {
  InstanceProbe& p = *probe_;
  p.pending_tokens.clear();
  p.iter_prefill_items = 0;
  p.iter_decode_items = 0;
  p.iter_prefill_tokens = 0;
  const double t0 = NowS();
  p.iter_begin = t0;
  inner_->BeginIteration();
  if (p.timed) Cover(t0);
}

StatusOr<double> TimedBackend::EndIteration() {
  InstanceProbe& p = *probe_;
  const double t0 = NowS();
  StatusOr<double> latency = inner_->EndIteration();
  const double t1 = NowS();
  if (p.frame == TokenFrame::kWall) {
    for (RequestId id : p.pending_tokens) p.token_times[id].push_back(t1);
  }
  p.pending_tokens.clear();
  if (!p.timed) return latency;

  p.covered_since_plan += t1 - t0;
  p.flush_ms.push_back((t1 - t0) * 1e3);
  const double busy = t1 - p.iter_begin;
  p.busy_s += busy;
  if (p.iter_prefill_items > 0 && p.iter_decode_items == 0) {
    p.pure_prefill_tokens += p.iter_prefill_tokens;
    p.pure_prefill_busy_s += busy;
  } else if (p.iter_decode_items > 0 && p.iter_prefill_items == 0) {
    p.pure_decode_tokens += p.iter_decode_items;
    p.pure_decode_busy_s += busy;
  }
  return latency;
}

Status TimedBackend::Release(const SimRequest& sr) {
  const double t0 = NowS();
  Status s = inner_->Release(sr);
  if (probe_->timed) Cover(t0);
  return s;
}

Status TimedBackend::Convert(const SimRequest& sr, CacheType new_type) {
  const double t0 = NowS();
  Status s = inner_->Convert(sr, new_type);
  if (probe_->timed) {
    Cover(t0);
    ++probe_->convert_calls;
  }
  return s;
}

StatusOr<bool> TimedBackend::TrySwapOut(const SimRequest& sr) {
  const double t0 = NowS();
  auto out = inner_->TrySwapOut(sr);
  if (probe_->timed) Cover(t0);
  return out;
}

StatusOr<bool> TimedBackend::TrySwapIn(const SimRequest& sr) {
  const double t0 = NowS();
  auto out = inner_->TrySwapIn(sr);
  if (probe_->timed) Cover(t0);
  return out;
}

StatusOr<TimedBackend::StepOutcome> TimedBackend::ExecutePrefillChunk(
    const SimRequest& sr, CacheType cache_type, int32_t chunk) {
  Observe(sr);
  InstanceProbe& p = *probe_;
  const double t0 = NowS();
  StatusOr<StepOutcome> out =
      inner_->ExecutePrefillChunk(sr, cache_type, chunk);
  const double t1 = NowS();
  if (!out.ok()) return out;
  if (out->out_of_memory) {
    if (p.timed) ++p.oom_steps;
  } else {
    if (out->token) p.pending_tokens.push_back(sr.spec.id);
    ++p.iter_prefill_items;
    p.iter_prefill_tokens += out->computed > 0 ? out->computed : chunk;
  }
  if (p.timed) {
    p.covered_since_plan += t1 - t0;
    p.prepare_us.push_back((t1 - t0) * 1e6);
  }
  return out;
}

StatusOr<TimedBackend::StepOutcome> TimedBackend::ExecuteDecode(
    const SimRequest& sr) {
  Observe(sr);
  InstanceProbe& p = *probe_;
  const double t0 = NowS();
  StatusOr<StepOutcome> out = inner_->ExecuteDecode(sr);
  const double t1 = NowS();
  if (!out.ok()) return out;
  if (out->out_of_memory) {
    if (p.timed) ++p.oom_steps;
  } else {
    if (out->token) p.pending_tokens.push_back(sr.spec.id);
    ++p.iter_decode_items;
  }
  if (p.timed) {
    p.covered_since_plan += t1 - t0;
    p.prepare_us.push_back((t1 - t0) * 1e6);
  }
  return out;
}

Status TimedBackend::OnFinish(const SimRequest& sr) {
  Observe(sr);
  const double t0 = NowS();
  Status s = inner_->OnFinish(sr);
  if (probe_->timed) Cover(t0);
  return s;
}

Status TimedBackend::Finalize() {
  Status s = inner_->Finalize();
  probe_->swap_outs = inner_->swap_outs();
  return s;
}

int32_t TimedBackend::ReclaimCache(int32_t min_blocks) {
  const double t0 = NowS();
  const int32_t freed = inner_->ReclaimCache(min_blocks);
  if (probe_->timed) Cover(t0);
  return freed;
}

InstanceProbe* ProbeSet::Add() {
  probes_.emplace_back();
  probes_.back().frame = frame_;
  probes_.back().timed = timed_;
  return &probes_.back();
}

aptserve::SchedulerFactory ProbeSet::Wrap(aptserve::SchedulerFactory inner) {
  return [this, inner = std::move(inner)]()
             -> std::unique_ptr<aptserve::Scheduler> {
    return std::make_unique<TimedScheduler>(inner(), Add());
  };
}

aptserve::BackendFactory ProbeSet::Wrap(aptserve::BackendFactory inner) {
  return [this, inner = std::move(inner)](int32_t i)
             -> StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
    APT_CHECK_MSG(!probes_.empty() && !probes_.back().has_backend,
                  "backend factory called without a fresh scheduler probe");
    APT_ASSIGN_OR_RETURN(std::unique_ptr<aptserve::ExecutionBackend> backend,
                         inner(i));
    probes_.back().has_backend = true;
    return std::unique_ptr<aptserve::ExecutionBackend>(
        std::make_unique<TimedBackend>(std::move(backend), &probes_.back()));
  };
}

}  // namespace perfbench
