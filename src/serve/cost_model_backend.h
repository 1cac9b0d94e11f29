// CostModelBackend: the analytic execution backend behind the serving
// simulator. It owns a standalone BlockPool/HybridCacheAssigner/SwapSpace,
// performs cache accounting for every scheduled step, and prices each
// iteration with the roofline CostModel — no real compute. The operation
// sequence (and therefore the virtual timeline) is bit-for-bit identical
// to the pre-refactor simulator loop; tests/serving_loop_parity_test.cc
// keeps that loop as a reference and pins the equivalence.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "cache/swap_space.h"
#include "serve/execution_backend.h"
#include "sim/cost_model.h"

namespace aptserve {

class CostModelBackend : public ExecutionBackend {
 public:
  struct Options {
    /// Token positions per cache block.
    int32_t block_size = 16;
    /// Override the pool size (blocks). <= 0 derives it from the cost
    /// model's cluster memory minus weights (Table 2 accounting).
    int32_t pool_blocks_override = -1;
    /// Host swap capacity in blocks; <= 0 defaults to 4x the GPU pool
    /// (vLLM's swap_space default is of that order).
    int32_t swap_blocks = -1;
    /// Prefix sharing over the analytic pool: matched prefill positions
    /// are adopted instead of priced. The assigner runs the same sharing
    /// code as on the inference engine, so both backends agree on what a
    /// hit is worth. Off by default — the operation sequence is then
    /// bit-identical to the pre-sharing backend.
    bool enable_prefix_sharing = false;
    /// Vocabulary for synthesizing token ids of requests that carry none
    /// (workload/token_ids.h, seeded like the default
    /// InferenceBackendOptions::prompt_seed). Traces with real token_ids
    /// ignore it. For cross-backend hit-accounting parity on length-only
    /// traces, match the engine's vocab_size.
    int32_t token_vocab = 50272;
    /// Per-tier block encoding (cache/cache_types.h): an int8 tier packs
    /// kInt8SlotPack tokens per pool block (admission and growth inherit
    /// the density through the assigner) and its migration payloads are
    /// priced at int8 transport bytes. Prefix sharing gates itself off
    /// for an int8 KV tier. Default all-fp32 keeps the operation sequence
    /// bit-identical to the pre-quantization backend.
    CacheEncodingPolicy cache_encoding;
  };

  /// Pool blocks the configuration yields (what Create would allocate).
  static StatusOr<int32_t> DerivePoolBlocks(const CostModel& cost_model,
                                            const Options& options);

  static StatusOr<std::unique_ptr<CostModelBackend>> Create(
      const CostModel& cost_model, const Options& options);

  std::string name() const override { return "cost-model"; }
  Status Prepare(const std::vector<SimRequest>& reqs) override;
  Status Admit(const SimRequest& sr) override;
  StatusOr<MigrationImage> ExportRequest(const SimRequest& sr) override;
  StatusOr<MigrationImport> ImportRequest(const SimRequest& sr,
                                          const MigrationImage& image) override;
  const BlockPool* pool() const override { return &pool_; }
  const HybridCacheAssigner* assigner() const override { return &assigner_; }
  const CostModel* cost_model() const override { return &cost_model_; }
  void BeginIteration() override;
  StatusOr<double> EndIteration() override;
  double IdleAdvanceSeconds() const override { return cost_model_.overhead(); }
  Status Release(const SimRequest& sr) override;
  Status Convert(const SimRequest& sr, CacheType new_type) override;
  StatusOr<bool> TrySwapOut(const SimRequest& sr) override;
  StatusOr<bool> TrySwapIn(const SimRequest& sr) override;
  StatusOr<StepOutcome> ExecutePrefillChunk(const SimRequest& sr,
                                            CacheType cache_type,
                                            int32_t chunk) override;
  StatusOr<StepOutcome> ExecuteDecode(const SimRequest& sr) override;
  Status OnFinish(const SimRequest& sr) override;
  Status Finalize() override;
  int64_t swap_outs() const override { return swap_.total_swap_outs(); }
  int64_t swap_ins() const override { return swap_.total_swap_ins(); }
  const PrefixStats* prefix_stats() const override {
    return assigner_.prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override {
    return assigner_.ReclaimPrefixBlocks(min_blocks);
  }

  int32_t pool_blocks() const { return pool_.num_blocks(); }

 private:
  CostModelBackend(const CostModel& cost_model, const Options& options,
                   int32_t pool_blocks);

  /// Rejects a request that cannot fit even as hidden cache in an empty
  /// pool; Prepare and Admit (and through Admit, ImportRequest) run it.
  Status CheckFits(const SimRequest& sr) const;
  /// Records the request's prompt token ids (trace-provided or synthesized)
  /// when prefix sharing is on.
  Status RegisterTokenIds(const SimRequest& sr);
  /// The request's registered prompt token ids; empty while sharing is off.
  const std::vector<int32_t>& TokenIds(RequestId id) const;

  CostModel cost_model_;
  Options options_;
  BlockPool pool_;
  HybridCacheAssigner assigner_;
  SwapSpace swap_;
  /// Prompt token ids per request (trace-provided or synthesized).
  std::unordered_map<RequestId, std::vector<int32_t>> token_ids_;
  /// Requests whose prefill completed this iteration; indexed at
  /// EndIteration so within-iteration hit accounting matches the engine
  /// backend, which also publishes blocks only at its end-of-iteration
  /// flush.
  std::vector<RequestId> pending_inserts_;
  /// Bytes per cache block, for PCIe swap-traffic costing.
  double block_bytes_;
  /// Swap traffic generated between executed iterations is charged to the
  /// next iteration that actually runs.
  double carry_swap_bytes_ = 0.0;
  /// Workload of the iteration currently being applied.
  BatchWorkload workload_;
  double iter_swap_bytes_ = 0.0;
};

}  // namespace aptserve
