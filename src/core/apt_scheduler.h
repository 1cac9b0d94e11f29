// AptScheduler: the paper's adaptive runtime scheduling mechanism (§5) on
// the hybrid cache. Each iteration it
//   1. decides the iteration type by comparing the cumulative pending time
//      of the waiting queue W against the running queue R;
//   2. solves the hybrid-cache-based scheduling problem (Definition 1) over
//      the chosen candidate set with the greedy 2-approximation;
//   3. emits the batch: selected waiting requests prefill with their
//      assigned cache type; selected running requests decode; running
//      requests selected with a different cache type are converted (cache
//      discarded, requeued for re-prefill); unselected running requests are
//      preempted so the chosen composition fits the memory constraint.
#pragma once

#include <unordered_map>
#include <utility>

#include "core/greedy_solver.h"
#include "core/length_predictor.h"
#include "sim/scheduler.h"

namespace aptserve {

struct AptConfig {
  SloSpec slo;
  /// 0 => violated requests demoted to epsilon (paper default); in (0,1] =>
  /// decay factor (Apt-Serve* of §6.6, e.g. 0.4).
  double violation_decay = 0.0;
  /// Disable hidden cache entirely (the Table 4 "KV Cache" ablation).
  bool enable_hidden = true;
  int32_t max_batch = 256;
  /// Cap on new tokens processed per prefill iteration (vLLM's
  /// max_num_batched_tokens). Without it a backlog drains as one enormous
  /// prefill that stalls every running decode past its TBT SLO.
  int32_t max_prefill_tokens = 2048;
  /// Prediction-based extension (paper §7 future work, after S^3 [34] and
  /// learning-to-rank [27]): learn output lengths online from completed
  /// requests and account for each candidate's *predicted* final memory at
  /// admission, instead of only the memory used so far. Reduces
  /// admit-then-evict churn under long-output workloads. The value is the
  /// quantile of the learned output-length distribution used for the
  /// memory estimate (higher = more conservative admission); 0 = off.
  double prediction_quantile = 0.0;
};

class AptScheduler : public Scheduler {
 public:
  explicit AptScheduler(const AptConfig& config) : config_(config) {}

  BatchPlan PlanIteration(const SchedulerInput& input) override;
  std::string name() const override {
    return config_.enable_hidden ? "Apt-Serve" : "Apt-Serve(KV-only)";
  }

  const AptConfig& config() const { return config_; }
  const OutputLengthPredictor& predictor() const { return predictor_; }

  /// The iteration's Eq. 5/6 quantification over `input`'s queues; shared
  /// with Apt-Serve-S, which always enables the hidden cache.
  static QuantificationConfig MakeQuantConfig(const SchedulerInput& input,
                                              double violation_decay,
                                              bool enable_hidden = true);

 private:
  BatchPlan PlanPrefill(const SchedulerInput& input,
                        const GreedySolver& solver) const;
  BatchPlan PlanDecode(const SchedulerInput& input,
                       const GreedySolver& solver) const;
  /// Learns output lengths from requests that left the system since the
  /// previous iteration.
  void UpdatePredictor(const SchedulerInput& input);

  AptConfig config_;
  OutputLengthPredictor predictor_;
  /// Last observed (prompt_len, generated) of every live request, used to
  /// detect completions (a request absent from both queues finished).
  std::unordered_map<RequestId, std::pair<int32_t, int32_t>> live_;
};

}  // namespace aptserve
