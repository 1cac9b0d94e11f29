#include "core/apt_sarathi_scheduler.h"

#include <algorithm>
#include <numeric>

#include "core/apt_scheduler.h"
#include "core/runtime_tracker.h"

namespace aptserve {

BatchPlan AptSarathiScheduler::PlanIteration(const SchedulerInput& input) {
  BatchPlan plan;
  if (input.waiting.empty() && input.running.empty()) return plan;

  const QuantificationModel quant(
      AptScheduler::MakeQuantConfig(input, config_.violation_decay));
  const GreedySolver solver(&quant);

  int32_t budget = config_.token_budget;
  int32_t free_blocks = input.pool->num_free();

  // Decode side: all running requests ride along unless their collective
  // growth does not fit, in which case the greedy selects who keeps memory
  // (same Definition 1 machinery as the base scheduler).
  int32_t growth_needed = 0;
  for (const SimRequest* r : input.running) {
    growth_needed +=
        input.assigner->BlocksToGrow(r->spec.id, r->cached_tokens + 1);
  }
  std::vector<const SimRequest*> decoding;
  if (growth_needed <= free_blocks || input.running.empty()) {
    decoding.assign(input.running.begin(), input.running.end());
    free_blocks -= growth_needed;
  } else {
    std::vector<CandidateInfo> cands;
    cands.reserve(input.running.size());
    for (const SimRequest* r : input.running) {
      cands.push_back(
          BuildCandidate(*r, input.now, *input.assigner, config_.slo));
    }
    const GreedySolution sol =
        solver.Solve(cands, input.pool->num_blocks());
    for (size_t i = 0; i < input.running.size(); ++i) {
      const SimRequest* r = input.running[i];
      const ScheduleDecision& d = sol.decisions[i];
      const CacheType want =
          d.use_hidden ? CacheType::kHidden : CacheType::kKV;
      if (d.selected && want == r->cache_type) {
        decoding.push_back(r);
      } else {
        // Selected with the other type: convert; unselected: preempt.
        plan.preempt.push_back({r->spec.id, d.selected ? want : r->cache_type});
        free_blocks +=
            input.assigner->BlocksNeeded(r->cache_type, r->cached_tokens);
      }
    }
    for (const SimRequest* r : decoding) {
      free_blocks -=
          input.assigner->BlocksToGrow(r->spec.id, r->cached_tokens + 1);
    }
    free_blocks = std::max(free_blocks, 0);
  }
  for (const SimRequest* r : decoding) {
    if (static_cast<int32_t>(plan.items.size()) >= config_.max_batch) break;
    if (budget <= 0) break;
    plan.items.push_back({r->spec.id, r->cache_type, 0});
    --budget;
  }

  if (budget <= 0 || input.waiting.empty()) return plan;

  // Prefill side: greedy value/density selection over the waiting queue
  // with hidden-cache assignment, then chunk the winners into the leftover
  // budget in density order.
  std::vector<CandidateInfo> wcands;
  wcands.reserve(input.waiting.size());
  for (const SimRequest* w : input.waiting) {
    wcands.push_back(
        BuildCandidate(*w, input.now, *input.assigner, config_.slo));
  }
  const GreedySolution wsol = solver.Solve(wcands, free_blocks);

  // Order selected waiting requests by value density, highest first.
  std::vector<size_t> order;
  for (size_t i = 0; i < wcands.size(); ++i) {
    if (wsol.decisions[i].selected) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double da =
        quant.EffectivePending(wcands[a]) / std::max(1, wcands[a].m_blocks);
    const double db =
        quant.EffectivePending(wcands[b]) / std::max(1, wcands[b].m_blocks);
    return da > db;
  });

  for (size_t idx : order) {
    if (static_cast<int32_t>(plan.items.size()) >= config_.max_batch) break;
    if (budget <= 0) break;
    const SimRequest* w = input.waiting[idx];
    const int32_t remaining = w->PrefillTarget() - w->prefill_progress;
    const int32_t chunk = std::min(budget, remaining);
    if (chunk <= 0) continue;
    // Mid-pass chunked requests must keep their existing cache type; fresh
    // requests take the solver's assignment.
    const CacheType type = input.assigner->Has(w->spec.id)
                               ? w->cache_type
                               : (wsol.decisions[idx].use_hidden
                                      ? CacheType::kHidden
                                      : CacheType::kKV);
    plan.items.push_back({w->spec.id, type, chunk});
    budget -= chunk;
  }

  // Deadlock breaker (same as the Sarathi baseline): if nothing is
  // runnable while partially-prefilled waiting requests hold pool memory,
  // evict the lowest-value one so progress resumes.
  if (plan.items.empty() && plan.preempt.empty()) {
    const SimRequest* victim = nullptr;
    double victim_density = 0.0;
    for (size_t i = 0; i < input.waiting.size(); ++i) {
      const SimRequest* w = input.waiting[i];
      if (!input.assigner->Has(w->spec.id)) continue;
      const double density = quant.EffectivePending(wcands[i]) /
                             std::max(1, wcands[i].m_blocks);
      if (victim == nullptr || density < victim_density) {
        victim = w;
        victim_density = density;
      }
    }
    if (victim != nullptr) {
      plan.preempt.push_back({victim->spec.id, victim->cache_type});
    }
  }
  return plan;
}

}  // namespace aptserve
