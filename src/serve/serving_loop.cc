#include "serve/serving_loop.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace aptserve {

namespace {

Status Validate(const Request& r) {
  if (r.prompt_len <= 0 || r.output_len <= 0) {
    return Status::InvalidArgument("request lengths must be positive");
  }
  if (r.id == kInvalidRequestId) {
    return Status::InvalidArgument("request id must be valid");
  }
  return Status::OK();
}

}  // namespace

ServingLoopState::ServingLoopState(ExecutionBackend* backend,
                                   const ServingLoopConfig& config)
    : backend_(backend), config_(config) {
  APT_CHECK(backend != nullptr);
}

Status ServingLoopState::Start(const std::vector<Request>& trace,
                               Scheduler* scheduler, const SloSpec& slo) {
  APT_CHECK_MSG(!started_, "Start() called twice");
  APT_CHECK(scheduler != nullptr);
  scheduler_ = scheduler;
  slo_ = slo;
  started_ = true;

  // Requests in arrival order (the trace builder guarantees sorted output;
  // re-sort defensively for hand-built traces).
  std::vector<SimRequest> reqs;
  reqs.reserve(trace.size());
  for (const Request& r : trace) {
    APT_RETURN_NOT_OK(Validate(r));
    SimRequest sr;
    sr.spec = r;
    reqs.push_back(sr);
    metrics_.RegisterRequest(r);  // trace order: the report's sum order
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const SimRequest& a, const SimRequest& b) {
              return a.spec.arrival < b.spec.arrival;
            });
  APT_RETURN_NOT_OK(backend_->Prepare(reqs));
  slots_.reserve(reqs.size());
  for (const SimRequest& sr : reqs) {
    auto slot = std::make_unique<Slot>();
    slot->sr = sr;
    slot->record = metrics_.Find(sr.spec.id);
    slot->available_at = sr.spec.arrival;
    slot->obs_enqueued_at = sr.spec.arrival;
    trace_.Instant(obs::TraceOp::kArrival, slot->available_at, sr.spec.id);
    Adopt(std::move(slot));  // sorted input: each lands at the back
  }
  return Status::OK();
}

void ServingLoopState::Adopt(std::unique_ptr<Slot> slot) {
  slot->seq = next_seq_++;
  index_.Put(slot->sr.spec.id, slot.get());
  InsertPending(slot.get());
  slots_.push_back(std::move(slot));
}

void ServingLoopState::InsertPending(Slot* slot) {
  const auto before = [](const Slot* a, const Slot* b) {
    if (a->available_at != b->available_at) {
      return a->available_at < b->available_at;
    }
    return a->seq < b->seq;
  };
  pending_.insert(
      std::upper_bound(pending_.begin(), pending_.end(), slot, before), slot);
}

Status ServingLoopState::Inject(const Request& r, double available_at,
                                double wall_arrival) {
  APT_CHECK_MSG(started_ && !finished_run_, "Inject outside a live run");
  APT_RETURN_NOT_OK(Validate(r));
  if (index_.Contains(r.id)) {
    return Status::AlreadyExists("request " + std::to_string(r.id) +
                                 " already registered with this instance");
  }
  auto slot = std::make_unique<Slot>();
  slot->sr.spec = r;
  slot->available_at = std::max(available_at, r.arrival);
  slot->record = metrics_.RegisterRequest(r);
  APT_RETURN_NOT_OK(backend_->Admit(slot->sr));
  if (wall_clock_ != nullptr) {
    wall_metrics_.OnArrival(wall_arrival);
    slot->wall_arrival = wall_arrival;
    slot->obs_enqueued_at = wall_arrival;
  } else {
    slot->obs_enqueued_at = slot->available_at;
  }
  trace_.Instant(obs::TraceOp::kArrival, slot->obs_enqueued_at, r.id);
  Adopt(std::move(slot));
  return Status::OK();
}

void ServingLoopState::AttachObservability(obs::TraceSink sink,
                                           obs::MetricsRegistry* metrics,
                                           int32_t instance_id) {
  trace_ = sink;
  obs_metrics_ = metrics;
  if (metrics == nullptr) return;
  // Handles resolve once here; every update below is a null check plus a
  // relaxed atomic.
  const std::string inst =
      "instance=\"" + std::to_string(instance_id) + "\"";
  const auto by_reason = [&inst](const char* reason) {
    return inst + ",reason=\"" + reason + "\"";
  };
  obs_.preempt_scheduler =
      metrics->GetCounter("aptserve_preemptions_total", by_reason("scheduler"));
  obs_.preempt_memory_wall = metrics->GetCounter("aptserve_preemptions_total",
                                                 by_reason("memory_wall"));
  obs_.preempt_swap_out =
      metrics->GetCounter("aptserve_preemptions_total", by_reason("swap_out"));
  obs_.preempt_conversion = metrics->GetCounter("aptserve_preemptions_total",
                                                by_reason("conversion"));
  obs_.tokens = metrics->GetCounter("aptserve_tokens_generated_total", inst);
  obs_.swap_outs = metrics->GetCounter("aptserve_swap_outs_total", inst);
  obs_.swap_ins = metrics->GetCounter("aptserve_swap_ins_total", inst);
  obs_.prefix_hit_tokens =
      metrics->GetCounter("aptserve_prefix_hit_tokens_total", inst);
  obs_.queue_high_water =
      metrics->GetGauge("aptserve_queue_depth_high_water", inst);
  obs_.pool_peak = metrics->GetGauge("aptserve_pool_blocks_peak", inst);
  obs_.iteration_seconds =
      metrics->GetHistogram("aptserve_iteration_seconds", inst);
}

void ServingLoopState::AttachWallClock(const runtime::Clock* clock) {
  APT_CHECK(clock != nullptr);
  APT_CHECK_MSG(!EverRegistered(),
                "attach the wall clock before any request registers");
  wall_clock_ = clock;
}

StatusOr<MigratedRequest> ServingLoopState::Extract(RequestId id) {
  APT_CHECK_MSG(started_ && !finished_run_, "Extract outside a live run");
  APT_CHECK_MSG(wall_clock_ == nullptr, "no migration on the wall clock");
  Slot* const* found = index_.Find(id);
  if (found == nullptr) {
    return Status::NotFound("request " + std::to_string(id) +
                            " is not live on this instance");
  }
  Slot* slot = *found;
  SimRequest& sr = slot->sr;
  if (sr.phase != RequestPhase::kWaiting || sr.swapped) {
    return Status::FailedPrecondition(
        "only queued or preempted (non-swapped) requests are migratable");
  }
  MigratedRequest m;
  m.sr = sr;
  m.available_at = slot->available_at;
  APT_ASSIGN_OR_RETURN(m.image, backend_->ExportRequest(sr));
  // The previous-token time travels in m.sr: the record carries only the
  // history.
  m.record = metrics_.ExtractRecord(id);
  slot->record = nullptr;
  if (trace_) {
    // Flow-begin half of the cross-track migration arrow; the id and stamp
    // travel with the request so the destination can terminate it.
    m.obs_export_ts = ObsNow();
    m.obs_flow =
        trace_.FlowBegin(obs::TraceOp::kMigrationExport, m.obs_export_ts, id,
                         static_cast<double>(sr.cached_tokens));
  }
  // The request is no longer this instance's: release its slot (the rest
  // keep their order), so slots_ grows with owned requests, not with hops.
  index_.Erase(id);
  active_.erase(std::remove(active_.begin(), active_.end(), slot),
                active_.end());
  pending_.erase(std::remove(pending_.begin(), pending_.end(), slot),
                 pending_.end());
  slots_.erase(std::find_if(slots_.begin(), slots_.end(),
                            [slot](const auto& s) { return s.get() == slot; }));
  return m;
}

StatusOr<MigrationImport> ServingLoopState::Receive(
    MigratedRequest m, double base_available_at,
    const std::function<double(const MigrationImport&)>& transfer_delay) {
  APT_CHECK_MSG(started_ && !finished_run_, "Receive outside a live run");
  APT_CHECK_MSG(wall_clock_ == nullptr, "no migration on the wall clock");
  if (index_.Contains(m.sr.spec.id)) {
    return Status::AlreadyExists("request " + std::to_string(m.sr.spec.id) +
                                 " already live on this instance");
  }
  auto slot = std::make_unique<Slot>();
  SimRequest& sr = slot->sr;
  sr = m.sr;
  APT_ASSIGN_OR_RETURN(MigrationImport import,
                       backend_->ImportRequest(sr, m.image));
  if (!import.cache_restored) {
    // Cold import (destination pool full): the request re-prefills here,
    // the migration analogue of a recompute preemption.
    sr.cached_tokens = 0;
    sr.prefill_progress = 0;
  }
  slot->record = metrics_.AdoptRecord(std::move(m.record));
  slot->available_at =
      base_available_at + (transfer_delay ? transfer_delay(import) : 0.0);
  slot->obs_enqueued_at = slot->available_at;
  if (trace_) {
    // Terminate the arrow no earlier than its export stamp — the
    // destination's virtual clock may lag the source's by a fraction of an
    // iteration, and flow ends must not precede their begins.
    trace_.FlowEnd(obs::TraceOp::kMigrationImport,
                   std::max(ObsNow(), m.obs_export_ts), sr.spec.id,
                   m.obs_flow, import.cache_restored ? 1.0 : 0.0,
                   static_cast<double>(import.copied_tokens));
  }
  Adopt(std::move(slot));
  return import;
}

int32_t ServingLoopState::CountActive(RequestPhase phase) const {
  return static_cast<int32_t>(
      std::count_if(active_.begin(), active_.end(),
                    [phase](const Slot* s) { return s->sr.phase == phase; }));
}

int32_t ServingLoopState::NumWaiting() const {
  // Every pending slot is a not-yet-admitted kWaiting request.
  return CountActive(RequestPhase::kWaiting) +
         static_cast<int32_t>(pending_.size());
}

int32_t ServingLoopState::NumRunning() const {
  return CountActive(RequestPhase::kRunning);
}

std::vector<RequestId> ServingLoopState::MigratableWaiting(
    double ready_by) const {
  // Unfinished requests are all admitted (active_) or pending.
  std::vector<const Slot*> found;
  const auto consider = [&](const Slot* s) {
    if (s->sr.phase == RequestPhase::kWaiting && !s->sr.swapped &&
        s->available_at <= ready_by) {
      found.push_back(s);
    }
  };
  for (const Slot* s : active_) consider(s);
  for (const Slot* s : pending_) consider(s);
  std::sort(found.begin(), found.end(),
            [](const Slot* a, const Slot* b) { return a->seq < b->seq; });
  std::vector<RequestId> ids;
  ids.reserve(found.size());
  for (const Slot* s : found) ids.push_back(s->sr.spec.id);
  return ids;
}

std::pair<int64_t, int64_t> ServingLoopState::TtftFinishesSince(
    double since) const {
  int64_t met = 0, total = 0;
  for (auto it = finish_log_.rbegin(); it != finish_log_.rend(); ++it) {
    if (it->first < since) break;  // finish times are nondecreasing
    ++total;
    if (it->second) ++met;
  }
  return {met, total};
}

StatusOr<ServingLoopState::Progress> ServingLoopState::Step() {
  APT_CHECK_MSG(started_ && !finished_run_, "Step outside a live run");
  const bool swap_mode = config_.preemption_mode == PreemptionMode::kSwap;

  // 1. Admit requests whose availability the clock reached.
  while (!pending_.empty() && pending_.front()->available_at <= now_) {
    active_.push_back(pending_.front());
    pending_.pop_front();
  }

  // 2. Build queues (into the reused scratch views).
  SchedulerInput& input = input_;
  input.now = now_;
  input.pool = backend_->pool();
  input.assigner = backend_->assigner();
  input.cost_model = backend_->cost_model();
  input.waiting.clear();
  input.running.clear();
  for (Slot* s : active_) {
    SimRequest& sr = s->sr;
    if (sr.phase == RequestPhase::kWaiting) {
      input.waiting.push_back(&sr);
    } else if (sr.phase == RequestPhase::kRunning) {
      input.running.push_back(&sr);
    }
  }
  if (obs_.queue_high_water != nullptr) {
    obs_.queue_high_water->SetMax(static_cast<double>(input.waiting.size()));
  }
  if (input.waiting.empty() && input.running.empty()) {
    if (!pending_.empty()) {
      now_ = std::max(now_, pending_.front()->available_at);
      ++iterations_done_;
      return Progress::kFastForward;
    }
    return Progress::kDrained;  // parked; no iteration consumed
  }

  // 3. Plan.
  BatchPlan plan = scheduler_->PlanIteration(input);

  // Backends start their iteration clock here so that preemption work —
  // in particular real swap-out payload copies — is charged to the
  // iteration that caused it.
  const double obs_iter_start = trace_ ? ObsNow() : 0.0;
  backend_->BeginIteration();

  // 4a. Preemptions / conversions / swap-outs.
  for (const PreemptionItem& p : plan.preempt) {
    Slot* const* found = index_.Find(p.id);
    if (found == nullptr) {
      return Status::Internal("scheduler preempted unknown request");
    }
    SimRequest& sr = (*found)->sr;
    // Preemption targets are running requests or waiting requests that
    // hold a partial (chunked-prefill) cache; both free their blocks and
    // restart their prefill pass later.
    const bool preemptible =
        backend_->assigner()->Has(p.id) &&
        (sr.phase == RequestPhase::kRunning ||
         sr.phase == RequestPhase::kWaiting);
    if (!preemptible) {
      return Status::Internal(
          "scheduler preempted a request holding no cache");
    }
    const bool is_conversion = p.resume_cache_type != sr.cache_type;
    if (is_conversion) {
      // Type-conversion fallback: even in swap mode a conversion discards
      // the cache — a swapped copy of the old type would be useless.
      APT_RETURN_NOT_OK(backend_->Convert(sr, p.resume_cache_type));
      ++sr.conversions;
      metrics_.OnConversion();
      if (obs_.preempt_conversion != nullptr) obs_.preempt_conversion->Inc();
      trace_.Instant(obs::TraceOp::kPreempt, obs_iter_start, p.id, 3.0);
    } else {
      if (swap_mode && sr.phase == RequestPhase::kRunning) {
        APT_ASSIGN_OR_RETURN(const bool swapped_out,
                             backend_->TrySwapOut(sr));
        if (swapped_out) {
          // Swap-based preemption: the cache moves to host memory; the
          // request keeps its logical progress and resumes via a swap-in
          // instead of a recompute prefill.
          metrics_.OnPreemption();
          if (obs_.preempt_swap_out != nullptr) obs_.preempt_swap_out->Inc();
          trace_.Instant(obs::TraceOp::kPreempt, obs_iter_start, p.id, 2.0);
          ++sr.preemptions;
          sr.phase = RequestPhase::kWaiting;
          sr.swapped = true;
          sr.prefill_progress = sr.cached_tokens;
          continue;
        }
        // Full swap space: fall back to a recompute preemption.
      }
      APT_RETURN_NOT_OK(backend_->Release(sr));
      metrics_.OnPreemption();
      if (obs_.preempt_scheduler != nullptr) obs_.preempt_scheduler->Inc();
      trace_.Instant(obs::TraceOp::kPreempt, obs_iter_start, p.id, 0.0);
    }
    ++sr.preemptions;
    sr.phase = RequestPhase::kWaiting;
    sr.cache_type = p.resume_cache_type;
    sr.cached_tokens = 0;
    sr.prefill_progress = 0;
  }

  // 4b. Execute scheduled items with memory allocation. Each item's id is
  // resolved once here; everything after works on the carried slot.
  std::vector<Applied>& applied = applied_;
  applied.clear();
  bool hit_memory_wall = false;
  int32_t accepted = 0;
  for (const ScheduledItem& item : plan.items) {
    if (accepted >= config_.max_batch_size) break;
    Slot* const* found = index_.Find(item.id);
    if (found == nullptr) {
      return Status::Internal("scheduler scheduled unknown request");
    }
    Slot* slot = *found;
    SimRequest& sr = slot->sr;
    if (sr.phase == RequestPhase::kFinished) {
      return Status::Internal("scheduler scheduled a finished request");
    }
    if (item.prefill_chunk == 0) {
      // Decode step.
      if (sr.phase != RequestPhase::kRunning || sr.cached_tokens < 1) {
        return Status::Internal("decode scheduled for non-running request");
      }
      if (item.cache_type != sr.cache_type) {
        return Status::Internal(
            "decode cache type mismatch; use preemption to convert");
      }
      APT_ASSIGN_OR_RETURN(ExecutionBackend::StepOutcome out,
                           backend_->ExecuteDecode(sr));
      if (out.out_of_memory) {
        // vLLM-style recompute preemption: this request yields its memory
        // and re-enters the waiting queue.
        APT_RETURN_NOT_OK(backend_->Release(sr));
        metrics_.OnPreemption();
        if (obs_.preempt_memory_wall != nullptr) {
          obs_.preempt_memory_wall->Inc();
        }
        trace_.Instant(obs::TraceOp::kPreempt, obs_iter_start, item.id, 1.0);
        ++sr.preemptions;
        sr.phase = RequestPhase::kWaiting;
        sr.cached_tokens = 0;
        sr.prefill_progress = 0;
        hit_memory_wall = true;
        continue;
      }
      applied.push_back({slot, StepKind::kDecode, 0, out.token});
      ++accepted;
    } else {
      // Prefill chunk (or swap-in for a swapped request).
      if (sr.phase != RequestPhase::kWaiting) {
        return Status::Internal("prefill scheduled for running request");
      }
      if (sr.swapped) {
        // A scheduled swapped request performs a swap-in instead of a
        // recompute: restore its blocks and resume decoding.
        APT_ASSIGN_OR_RETURN(const bool swapped_in, backend_->TrySwapIn(sr));
        if (!swapped_in) {
          hit_memory_wall = true;
          continue;  // stays swapped; retried later
        }
        sr.swapped = false;
        sr.phase = RequestPhase::kRunning;
        trace_.Instant(obs::TraceOp::kSwapIn, obs_iter_start, item.id);
        applied.push_back({slot, StepKind::kSwapIn, 0, false});
        ++accepted;
        continue;
      }
      const int32_t remaining = sr.PrefillTarget() - sr.prefill_progress;
      const int32_t chunk = std::min(item.prefill_chunk, remaining);
      if (chunk <= 0) {
        return Status::Internal("empty prefill chunk scheduled");
      }
      if (!backend_->assigner()->Has(item.id)) {
        // A request that already produced tokens and resumes with a
        // different cache type is an effective conversion (paper §5's
        // discard-and-recompute, with the recompute folded into this
        // resume prefill).
        if (sr.has_first_token && sr.cache_type != item.cache_type) {
          metrics_.OnConversion();
          ++sr.conversions;
        }
        sr.cache_type = item.cache_type;
      } else if (item.cache_type != sr.cache_type) {
        return Status::Internal(
            "chunked prefill cannot switch cache type mid-pass");
      }
      APT_ASSIGN_OR_RETURN(
          ExecutionBackend::StepOutcome out,
          backend_->ExecutePrefillChunk(sr, item.cache_type, chunk));
      if (out.out_of_memory) {
        hit_memory_wall = true;
        continue;  // stays waiting; retried in a later iteration
      }
      // A prefix-sharing backend may process fewer positions than the
      // scheduled chunk (matched positions are adopted, not computed);
      // the request still advances past both.
      const int32_t computed = out.computed > 0 ? out.computed : chunk;
      result_.prefill_tokens_computed += computed;
      result_.prefill_tokens_skipped += out.prefix_skipped;
      applied.push_back({slot, StepKind::kPrefill,
                         computed + out.prefix_skipped, out.token});
      ++accepted;
    }
  }

  if (applied.empty()) {
    // No work executed. Advance to the next availability if any; repeated
    // no-progress iterations with work at hand indicate a scheduler bug.
    ++consecutive_idle_;
    if (consecutive_idle_ > 1000) {
      return Status::Internal("scheduler made no progress for 1000 "
                              "iterations with requests pending");
    }
    // No-progress memory pressure: evict cold prefix-index blocks so the
    // schedulers' free-block gates can see them. Index blocks are normally
    // reclaimed inside allocations — but a gated scheduler never attempts
    // one, so a pool filled with indexed prefixes would otherwise livelock
    // the queue. No-op for backends without an index (bit-identical).
    for (Slot* s : active_) {
      const SimRequest& sr = s->sr;
      if (sr.phase != RequestPhase::kWaiting || sr.swapped) continue;
      const int32_t deficit =
          backend_->assigner()->BlocksNeeded(CacheType::kKV,
                                             sr.PrefillTarget()) -
          backend_->pool()->num_free();
      if (deficit > 0) backend_->ReclaimCache(deficit);
      break;  // the head of the queue is what gates progress
    }
    const double step = backend_->IdleAdvanceSeconds();
    if (!pending_.empty()) {
      now_ = std::max(now_ + step, pending_.front()->available_at);
    } else {
      now_ += step;
    }
    ++iterations_done_;
    return Progress::kIdle;
  }
  consecutive_idle_ = 0;

  // 5. Cost: the backend prices (or measured) the batch it just ran.
  APT_ASSIGN_OR_RETURN(const double latency, backend_->EndIteration());
  int32_t prefill_steps = 0;
  int32_t decode_steps = 0;
  for (const Applied& a : applied) {
    if (a.kind == StepKind::kPrefill) ++prefill_steps;
    if (a.kind == StepKind::kDecode) ++decode_steps;
  }
  const bool is_prefill_iter = prefill_steps > 0 && decode_steps == 0;
  const bool is_decode_iter = prefill_steps == 0 && decode_steps > 0;
  if (is_prefill_iter) {
    ++result_.prefill_iterations;
  } else if (is_decode_iter) {
    ++result_.decode_iterations;
  } else {
    ++result_.mixed_iterations;
  }
  now_ += latency;
  result_.compute_seconds += latency;

  // 6. Emit tokens / finish requests. With an attached wall clock every
  // emission is additionally stamped in real time — one reading per
  // iteration, shared by the batch, exactly like the virtual timeline.
  const double wall_now = wall_clock_ != nullptr ? wall_clock_->Now() : 0.0;
  const double obs_iter_end = wall_clock_ != nullptr ? wall_now : now_;
  bool any_finished = false;
  if (obs_.iteration_seconds != nullptr) {
    obs_.iteration_seconds->Observe(latency);
  }
  trace_.Span(obs::TraceOp::kIteration, obs_iter_start,
              obs_iter_end - obs_iter_start, /*id=*/-1,
              static_cast<double>(applied.size()),
              static_cast<double>(decode_steps));
  for (const Applied& a : applied) {
    Slot* slot = a.slot;
    SimRequest& sr = slot->sr;
    if (a.kind == StepKind::kSwapIn) continue;  // swap-in emits no token
    if (a.kind == StepKind::kDecode) {
      sr.cached_tokens += 1;  // mirror of the backend's cache growth
      ++sr.generated;
      slot->record->OnToken(now_, sr.last_token_time);
      ++result_.tokens_generated;
      sr.last_token_time = now_;
      if (obs_.tokens != nullptr) obs_.tokens->Inc();
      if (trace_) {  // checked inline: this runs once per decoded token
        trace_.Instant(obs::TraceOp::kDecodeStep, obs_iter_end, sr.spec.id,
                       static_cast<double>(sr.generated));
      }
    } else {
      sr.prefill_progress += a.chunk;
      sr.cached_tokens += a.chunk;
      if (trace_) {
        if (!slot->obs_first_run) {
          // First scheduled work closes the queue-wait span, which started
          // back when the request joined this instance's queue.
          slot->obs_first_run = true;
          trace_.Span(obs::TraceOp::kQueueWait, slot->obs_enqueued_at,
                      obs_iter_start - slot->obs_enqueued_at, sr.spec.id);
        }
        trace_.Span(obs::TraceOp::kPrefill, obs_iter_start,
                    obs_iter_end - obs_iter_start, sr.spec.id,
                    static_cast<double>(a.chunk));
      }
      const bool completes = sr.prefill_progress >= sr.PrefillTarget();
      APT_CHECK_MSG(completes == a.token,
                    "backend and loop disagree on prefill completion");
      if (!completes) continue;  // more chunks
      sr.phase = RequestPhase::kRunning;
      ++sr.generated;
      slot->record->OnToken(now_, sr.last_token_time);
      ++result_.tokens_generated;
      sr.has_first_token = true;
      sr.last_token_time = now_;
      if (obs_.tokens != nullptr) obs_.tokens->Inc();
    }
    if (wall_clock_ != nullptr) {
      wall_metrics_.OnToken(slot->wall_arrival, slot->wall_last_token,
                            wall_now);
      slot->wall_last_token = wall_now;
    }
    if (sr.IsFinished()) {
      sr.phase = RequestPhase::kFinished;
      RequestRecord& rec = *slot->record;
      rec.finish_time = now_;
      APT_RETURN_NOT_OK(backend_->OnFinish(sr));
      ++finished_;
      any_finished = true;
      finish_log_.emplace_back(now_, rec.MeetsTtft(slo_));
      trace_.Instant(obs::TraceOp::kCompletion, obs_iter_end, sr.spec.id,
                     rec.ttft, now_ - sr.spec.arrival);
      if (wall_clock_ != nullptr) {
        wall_metrics_.OnFinish(slot->wall_arrival, wall_now);
      }
    }
  }

  // Finished requests leave the admission queue (order-preserving), so
  // every per-iteration scan costs O(live requests), not O(history). Their
  // slots stay owned by slots_ and indexed, for the finished-request check.
  if (any_finished) {
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [](const Slot* s) {
                                   return s->sr.phase ==
                                          RequestPhase::kFinished;
                                 }),
                  active_.end());
  }

  // 7. Batch-limit accounting (Figure 2): the batch could not be grown —
  // either an allocation failed above, or unscheduled waiting work exists
  // that would not fit in the remaining pool space. The pool test runs
  // first; only a request that would not fit is looked up in `applied`.
  bool at_limit = hit_memory_wall;
  if (!at_limit) {
    const int32_t num_free = backend_->pool()->num_free();
    for (Slot* s : active_) {
      const SimRequest& sr = s->sr;
      if (sr.phase != RequestPhase::kWaiting ||
          backend_->assigner()->BlocksNeeded(CacheType::kKV,
                                             sr.PrefillTarget()) <= num_free) {
        continue;
      }
      const bool scheduled_now =
          std::any_of(applied.begin(), applied.end(),
                      [s](const Applied& a) { return a.slot == s; });
      if (!scheduled_now) {
        at_limit = true;
        break;
      }
    }
  }
  metrics_.OnIteration(latency, static_cast<int32_t>(applied.size()),
                       at_limit);
  result_.peak_blocks =
      std::max(result_.peak_blocks, backend_->pool()->peak_allocated());
  ++iterations_done_;
  return Progress::kExecuted;
}

Status ServingLoopState::StepUntil(double t_end) {
  while (now_ < t_end && !AllServed()) {
    if (iterations_done_ >= config_.max_iterations) return CapError();
    APT_ASSIGN_OR_RETURN(const Progress progress, Step());
    if (progress == Progress::kDrained) break;
  }
  return Status::OK();
}

Status ServingLoopState::CapError() const {
  return Status::Internal("serving loop hit the iteration cap with " +
                          std::to_string(NumUnfinished()) +
                          " unfinished requests");
}

StatusOr<ServingLoopResult> ServingLoopState::Finish() {
  APT_CHECK_MSG(started_ && !finished_run_, "Finish outside a live run");
  finished_run_ = true;
  if (!AllServed()) return CapError();
  APT_RETURN_NOT_OK(backend_->Finalize());
  result_.swap_outs = backend_->swap_outs();
  result_.swap_ins = backend_->swap_ins();
  if (const PrefixStats* ps = backend_->prefix_stats()) result_.prefix = *ps;
  if (obs_metrics_ != nullptr) {
    // Pull-style publication of the run totals the loop only knows at the
    // end (live counters above cover the per-event series).
    obs_.pool_peak->SetMax(static_cast<double>(result_.peak_blocks));
    obs_.swap_outs->Inc(result_.swap_outs);
    obs_.swap_ins->Inc(result_.swap_ins);
    obs_.prefix_hit_tokens->Inc(result_.prefix.matched_tokens);
  }
  result_.report = metrics_.Report(slo_);
  result_.records = metrics_.TakeRecords();  // moved: the state is done
  result_.wall_metrics = std::move(wall_metrics_);
  return std::move(result_);
}

ServingLoop::ServingLoop(ExecutionBackend* backend,
                         const ServingLoopConfig& config)
    : backend_(backend), config_(config) {
  APT_CHECK(backend != nullptr);
}

StatusOr<ServingLoopResult> ServingLoop::Run(const std::vector<Request>& trace,
                                             Scheduler* scheduler,
                                             const SloSpec& slo) {
  ServingLoopState state(backend_, config_);
  APT_RETURN_NOT_OK(state.Start(trace, scheduler, slo));
  APT_RETURN_NOT_OK(state.StepUntil(std::numeric_limits<double>::infinity()));
  return state.Finish();
}

}  // namespace aptserve
