#include "sim/cost_model.h"

#include <algorithm>

namespace aptserve {

CostModel::CostModel(const ModelSpec& model, const ClusterSpec& cluster,
                     double iteration_overhead_s)
    : model_(model),
      cluster_(cluster),
      overhead_(iteration_overhead_s),
      flops_per_token_(model.FlopsPerToken()),
      attention_flops_per_context_token_(
          model.AttentionFlopsPerContextToken()),
      hidden_recompute_flops_per_token_(model.HiddenRecomputeFlopsPerToken()),
      weight_bytes_(model.WeightBytes()),
      kv_bytes_per_token_(model.KvBytesPerToken()),
      hidden_bytes_per_token_(model.HiddenBytesPerToken()),
      effective_flops_(cluster.EffectiveFlops()),
      effective_bandwidth_(cluster.EffectiveBandwidth()),
      analytic_rho_(hidden_recompute_flops_per_token_ / effective_flops_) {}

double CostModel::IterationSeconds(const BatchWorkload& w) const {
  if (w.Empty()) return overhead_;

  const int64_t processed = w.prefill_tokens + w.decode_reqs;
  const int64_t attended = w.prefill_attend_tokens +
                           w.decode_kv_context_tokens +
                           w.decode_hidden_context_tokens;

  // Compute: full forward for every processed token, attention context
  // terms, plus the hidden-cache K/V re-projection (the paper's extra
  // linear-complexity cost, Figure 3b).
  double flops = flops_per_token_ * static_cast<double>(processed);
  flops += attention_flops_per_context_token_ * static_cast<double>(attended);
  flops += hidden_recompute_flops_per_token_ *
           static_cast<double>(w.decode_hidden_context_tokens);
  const double compute_s = flops / effective_flops_;

  // Memory: one pass over the weights, plus cache streaming. Hidden-cache
  // requests read half the bytes per context token.
  double bytes = weight_bytes_;
  bytes += kv_bytes_per_token_ *
           static_cast<double>(w.decode_kv_context_tokens);
  bytes += hidden_bytes_per_token_ *
           static_cast<double>(w.decode_hidden_context_tokens);
  // Prefill writes its cache once per token (component bytes ~ KV).
  bytes += kv_bytes_per_token_ * static_cast<double>(w.prefill_tokens);
  const double memory_s = bytes / effective_bandwidth_;

  // PCIe swap traffic does not overlap usefully with the iteration's
  // compute in practice (blocking cudaMemcpy in vLLM's swap path), so it
  // adds serially.
  const double swap_s = w.swap_bytes / cluster_.gpu.pcie_bandwidth;

  return std::max(compute_s, memory_s) + swap_s + overhead_;
}

double CostModel::MigrationSeconds(double bytes, bool cross_cell) const {
  if (bytes <= 0.0) return 0.0;
  const double bandwidth = cross_cell ? cluster_.gpu.cross_cell_bandwidth
                                      : cluster_.gpu.interconnect_bandwidth;
  return bytes / bandwidth + overhead_;
}

double CostModel::RhoSecondsPerToken() const {
  return rho_override_ >= 0.0 ? rho_override_ : analytic_rho_;
}

}  // namespace aptserve
