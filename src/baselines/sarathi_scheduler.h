// SarathiScheduler: the Sarathi-Serve baseline (paper §6.2). Chunked
// prefill plus prefill-decode coalesced batching: every iteration carries
// all running decodes and fills the remaining per-iteration token budget
// with fixed-size chunks of waiting prompts in FCFS order. This removes
// generation stalls for decodes at the cost of slower individual prefills.
//
// The DeepSpeed-FastGen baseline (paper §6.2) is this scheduler with
// chunk_size == token_budget (SarathiConfig::FastGen()): Dynamic
// SplitFuse takes whole remaining prompts while they fit and splits only
// the last one to land on the budget — "differing in the token
// composition strategy under the same token budget".
#pragma once

#include "sim/scheduler.h"

namespace aptserve {

struct SarathiConfig {
  /// Per-iteration token budget shared by decodes (1 token each) and
  /// prefill chunks.
  int32_t token_budget = 512;
  /// Fixed prefill chunk size (Sarathi schedules uniform chunks).
  int32_t chunk_size = 256;
  int32_t max_batch = 256;

  /// DeepSpeed-FastGen: chunks as large as the budget.
  static SarathiConfig FastGen() {
    SarathiConfig c;
    c.chunk_size = c.token_budget;
    return c;
  }
};

class SarathiScheduler : public Scheduler {
 public:
  explicit SarathiScheduler(const SarathiConfig& config = {})
      : config_(config) {}

  BatchPlan PlanIteration(const SchedulerInput& input) override;
  std::string name() const override { return "Sarathi-Serve"; }

 private:
  SarathiConfig config_;
};

}  // namespace aptserve
