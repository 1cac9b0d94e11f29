#include "core/apt_scheduler.h"

#include <algorithm>

#include "core/runtime_tracker.h"

namespace aptserve {

QuantificationConfig AptScheduler::MakeQuantConfig(
    const SchedulerInput& input, double violation_decay, bool enable_hidden) {
  QuantificationConfig qc;
  // Disabling hidden cache is modeled as an unaffordable penalty, which
  // makes the solver collapse to the pure 0-1 knapsack special case the
  // paper uses in its NP-hardness argument.
  qc.rho_seconds_per_token =
      enable_hidden ? input.cost_model->RhoSecondsPerToken() : 1e18;
  qc.num_requests_in_system =
      static_cast<int32_t>(input.waiting.size() + input.running.size());
  qc.violation_decay = violation_decay;
  return qc;
}

void AptScheduler::UpdatePredictor(const SchedulerInput& input) {
  std::unordered_map<RequestId, std::pair<int32_t, int32_t>> current;
  for (const SimRequest* sr : input.waiting) {
    current[sr->spec.id] = {sr->spec.prompt_len, sr->generated};
  }
  for (const SimRequest* sr : input.running) {
    current[sr->spec.id] = {sr->spec.prompt_len, sr->generated};
  }
  for (const auto& [id, pg] : live_) {
    if (!current.count(id)) {
      // Left the system since last iteration => finished with pg.second
      // output tokens.
      predictor_.Observe(pg.first, pg.second);
    }
  }
  live_ = std::move(current);
}

BatchPlan AptScheduler::PlanIteration(const SchedulerInput& input) {
  BatchPlan plan;
  if (config_.prediction_quantile > 0) UpdatePredictor(input);
  if (input.waiting.empty() && input.running.empty()) return plan;

  // Stage 1: iteration type by cumulative pending time (urgency) of the two
  // queues.
  double waiting_pending = 0.0, running_pending = 0.0;
  for (const SimRequest* w : input.waiting) {
    waiting_pending += w->PendingTime(input.now);
  }
  for (const SimRequest* r : input.running) {
    running_pending += r->PendingTime(input.now);
  }
  bool prefill_iter;
  if (input.running.empty()) {
    prefill_iter = true;
  } else if (input.waiting.empty()) {
    prefill_iter = false;
  } else {
    prefill_iter = waiting_pending > running_pending;
  }

  const QuantificationModel quant(MakeQuantConfig(
      input, config_.violation_decay, config_.enable_hidden));
  const GreedySolver solver(&quant);

  if (prefill_iter) {
    plan = PlanPrefill(input, solver);
    // A prefill iteration that cannot place any request (memory wall) must
    // fall back to decoding: decode frees memory by finishing requests,
    // whereas repeating the empty prefill would deadlock the system.
    if (!plan.items.empty() || input.running.empty()) return plan;
  }
  return PlanDecode(input, solver);
}

BatchPlan AptScheduler::PlanPrefill(const SchedulerInput& input,
                                    const GreedySolver& solver) const {
  BatchPlan plan;
  std::vector<CandidateInfo> candidates;
  candidates.reserve(input.waiting.size());
  for (const SimRequest* sr : input.waiting) {
    CandidateInfo c =
        BuildCandidate(*sr, input.now, *input.assigner, config_.slo);
    if (config_.prediction_quantile > 0) {
      // Account for the memory the request is *predicted* to reach, not
      // just its current size: m_i covers the prompt plus the expected
      // remaining output.
      const double predicted_out = predictor_.PredictQuantile(
          sr->spec.prompt_len, config_.prediction_quantile);
      const int32_t remaining = std::max(
          0, static_cast<int32_t>(predicted_out) - sr->generated);
      c.m_tokens += remaining;
      c.m_blocks =
          input.assigner->BlocksNeeded(CacheType::kKV, c.m_tokens);
    }
    candidates.push_back(c);
  }
  // M_e for prefill iterations: the pool minus what running requests hold.
  const GreedySolution sol =
      solver.Solve(candidates, input.pool->num_free());
  plan.items.reserve(std::min(input.waiting.size(),
                              static_cast<size_t>(config_.max_batch)));
  int32_t batched = 0;
  int64_t prefill_tokens = 0;
  for (size_t i = 0; i < input.waiting.size(); ++i) {
    const SimRequest* sr = input.waiting[i];
    const ScheduleDecision& d = sol.decisions[i];
    if (!d.selected || batched >= config_.max_batch) continue;
    const int32_t chunk = sr->PrefillTarget() - sr->prefill_progress;
    // Token budget per prefill iteration; always admit at least one request
    // so oversized single prompts still run.
    if (batched > 0 && prefill_tokens + chunk > config_.max_prefill_tokens) {
      continue;
    }
    prefill_tokens += chunk;
    // A partially prefilled request must keep its existing cache type; a
    // fresh or fully-preempted one takes the solver's assignment.
    const CacheType want =
        d.use_hidden ? CacheType::kHidden : CacheType::kKV;
    const CacheType type =
        input.assigner->Has(sr->spec.id) ? sr->cache_type : want;
    plan.items.push_back(
        {sr->spec.id, type, sr->PrefillTarget() - sr->prefill_progress});
    ++batched;
  }
  return plan;
}

BatchPlan AptScheduler::PlanDecode(const SchedulerInput& input,
                                   const GreedySolver& solver) const {
  BatchPlan plan;
  plan.items.reserve(std::min(input.running.size(),
                              static_cast<size_t>(config_.max_batch)));
  // Fast path: if this iteration's cache growth fits in the free blocks,
  // every running request decodes — evicting earlier than physically
  // necessary wastes a full re-prefill on a request that may well finish
  // (and free its memory) on its own.
  int32_t growth = 0;
  for (const SimRequest* sr : input.running) {
    growth += input.assigner->BlocksToGrow(sr->spec.id,
                                           sr->cached_tokens + 1);
  }
  if (growth <= input.pool->num_free()) {
    int32_t batched = 0;
    for (const SimRequest* sr : input.running) {
      if (batched >= config_.max_batch) break;
      plan.items.push_back({sr->spec.id, sr->cache_type, 0});
      ++batched;
    }
    return plan;
  }

  std::vector<CandidateInfo> candidates;
  candidates.reserve(input.running.size());
  for (const SimRequest* sr : input.running) {
    CandidateInfo c =
        BuildCandidate(*sr, input.now, *input.assigner, config_.slo);
    // In-place type switches are off the table for running requests (see
    // below); the solver weighs each by its actual current footprint.
    c.type_fixed = true;
    candidates.push_back(c);
  }
  // M_e for decode iterations: the whole pool — the solver decides who
  // keeps memory (Definition 1).
  const GreedySolution sol =
      solver.Solve(candidates, input.pool->num_blocks());
  int32_t batched = 0;
  for (size_t i = 0; i < input.running.size(); ++i) {
    const SimRequest* sr = input.running[i];
    const ScheduleDecision& d = sol.decisions[i];
    if (d.selected) {
      // Selected requests keep their memory and decode with their current
      // cache type. The solver's beta decision is not applied in place:
      // switching types mid-flight costs a full discard-and-re-prefill
      // (paper §5), which dwarfs the per-iteration gain the value model
      // prices. Type reassignment instead happens for free at the next
      // (re-)prefill of evicted or newly arriving requests — the paper's
      // "assign hidden cache for certain subsequent requests directly from
      // the outset" path.
      if (batched < config_.max_batch) {
        plan.items.push_back({sr->spec.id, sr->cache_type, 0});
        ++batched;
      }
      // Over the batch cap: keep the cache (it was counted against the
      // memory constraint) and stall one iteration.
    } else {
      // Not selected: evict so the chosen composition satisfies Eq. 7. The
      // resume prefill re-decides the cache type (an eviction resumed as
      // hidden is the paper's "reassign hidden cache usage in place of KV
      // cache usage for some ongoing requests", with the recompute cost
      // already sunk in the preemption).
      plan.preempt.push_back({sr->spec.id, sr->cache_type});
    }
  }
  return plan;
}

}  // namespace aptserve
