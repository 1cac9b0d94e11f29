// CostModel: analytic iteration-latency model for the serving simulator.
// Roofline-style: an iteration takes max(compute time, memory time) plus a
// fixed launch/scheduling overhead. Decode iterations are memory-bound
// (weights + cache streaming); prefill iterations are compute-bound; hidden
// cache shifts cost from memory (half the cache bytes) to compute (K/V
// re-projection, linear in context — paper §3.1 and Eq. 6).
#pragma once

#include "common/status.h"
#include "sim/cluster_spec.h"
#include "sim/model_spec.h"

namespace aptserve {

/// Aggregate description of the work in one iteration, produced by the
/// simulator from the scheduler's batch plan.
struct BatchWorkload {
  /// New tokens processed in prefill this iteration (full or chunked).
  int64_t prefill_tokens = 0;
  /// Sum over prefill tokens of the number of context tokens each attends
  /// to (for a fresh full prefill of length n this is n(n+1)/2).
  int64_t prefill_attend_tokens = 0;
  /// Number of requests taking a decode step.
  int32_t decode_reqs = 0;
  /// Sum of context lengths of decode requests using KV cache.
  int64_t decode_kv_context_tokens = 0;
  /// Sum of context lengths of decode requests using hidden cache.
  int64_t decode_hidden_context_tokens = 0;
  /// Bytes moved over PCIe this iteration (swap-based preemption traffic,
  /// out + in).
  double swap_bytes = 0.0;

  bool Empty() const {
    return prefill_tokens == 0 && decode_reqs == 0 && swap_bytes == 0.0;
  }
  BatchWorkload& operator+=(const BatchWorkload& o) {
    prefill_tokens += o.prefill_tokens;
    prefill_attend_tokens += o.prefill_attend_tokens;
    decode_reqs += o.decode_reqs;
    decode_kv_context_tokens += o.decode_kv_context_tokens;
    decode_hidden_context_tokens += o.decode_hidden_context_tokens;
    swap_bytes += o.swap_bytes;
    return *this;
  }
};

class CostModel {
 public:
  CostModel(const ModelSpec& model, const ClusterSpec& cluster,
            double iteration_overhead_s = 0.003);

  /// Wall-clock seconds for one iteration executing `w`.
  double IterationSeconds(const BatchWorkload& w) const;

  /// Seconds to move `bytes` of cache state between two fleet instances
  /// (live request migration), including the fixed coordination overhead.
  /// 0 for an empty (cold/deduped) transfer. `cross_cell` prices the
  /// transfer over the slower aggregation tier a hierarchical fleet
  /// crosses between cells instead of the intra-cell interconnect.
  double MigrationSeconds(double bytes, bool cross_cell = false) const;

  /// The scheduler's rho (paper Eq. 6): extra iteration seconds per cached
  /// token of a hidden-cache request, derived from the recompute FLOPs at
  /// the cluster's effective compute rate. The paper measures this with a
  /// ~30 s offline profiling pass; the analytic value plays that role here
  /// (the mini engine's RhoCalibrator demonstrates the measured variant).
  double RhoSecondsPerToken() const;

  const ModelSpec& model() const { return model_; }
  const ClusterSpec& cluster() const { return cluster_; }
  double overhead() const { return overhead_; }

  /// Replaces the analytic rho with a measured value (e.g. from the mini
  /// engine's RhoCalibrator), mirroring the paper's offline profiling pass.
  void SetRhoOverride(double rho_seconds_per_token) {
    rho_override_ = rho_seconds_per_token;
  }

 private:
  ModelSpec model_;
  ClusterSpec cluster_;
  double overhead_;
  double rho_override_ = -1.0;
  // The spec-derived terms IterationSeconds and RhoSecondsPerToken use,
  // computed once: model_ and cluster_ never change after construction.
  // Each is the value the spec's accessor returns, so every formula keeps
  // its operation order and its result bits (divisors are stored as
  // divisors, never as reciprocals).
  double flops_per_token_;
  double attention_flops_per_context_token_;
  double hidden_recompute_flops_per_token_;
  double weight_bytes_;
  double kv_bytes_per_token_;
  double hidden_bytes_per_token_;
  double effective_flops_;
  double effective_bandwidth_;
  double analytic_rho_;
};

}  // namespace aptserve
