// InferenceBackend: the execution backend that drives the *real* mini
// transformer. Where CostModelBackend advances a virtual clock with an
// analytic model, this performs actual prefills and decode steps on an
// InferenceEngine — real float blocks, real hybrid-cache memory — and
// reports measured wall-clock iteration latencies (or a deterministic
// virtual latency for reproducible tests). Swap-based preemption moves the
// real cache payload through the engine's host staging buffer, with a
// SwapSpace capacity account mirroring the simulator's so both backends
// share the same full-swap-space fallback behaviour.
//
// Batch execution: scheduled items are *prepared* (checked and allocated)
// serially in schedule order as the loop applies them, then EndIteration
// flushes the batch as one layer-major forward (InferenceEngine::
// ExecuteSteps), kernels parallel across the engine's thread pool when it
// has one. Sampling happens behind a serial barrier in schedule order, so
// token streams, SLO reports and scheduler decisions are bit-identical to
// serial execution at any thread count (tests/parallel_determinism_test.cc
// pins this).
//
// Caveat (DESIGN.md): each layer's weights are read once per iteration
// (per row group), even on one thread, so a bigger batch costs less per
// token — the shape of the GPU batching economics the analytic CostModel
// assumes, at CPU absolute speeds.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/swap_space.h"
#include "common/rng.h"
#include "engine/inference_engine.h"
#include "serve/execution_backend.h"
#include "sim/cost_model.h"

namespace aptserve {

struct InferenceBackendOptions {
  /// Seed for synthesizing prompt tokens from trace prompt lengths.
  uint64_t prompt_seed = 7;
  /// Runtime (thread pool) configuration for the owned-engine constructor;
  /// ignored when borrowing an engine (the engine's own pool is used).
  RuntimeConfig runtime;
  /// Host swap capacity in blocks; <= 0 defaults to 4x the GPU pool.
  int32_t swap_blocks = -1;
  /// Measured rho (paper Eq. 6) carried to the scheduler through the
  /// backend's cost model; 0 disables the hidden-cache decode surcharge.
  double rho_seconds_per_token = 0.0;
  /// When true, iteration latency is `virtual_item_seconds` per executed
  /// item instead of measured wall time — same seeds then give the same
  /// timeline, tokens and TTFT/TBT (used by determinism tests).
  bool virtual_timing = false;
  double virtual_item_seconds = 1e-3;
  /// Enables the engine's prefix index: fresh KV prefills adopt blocks
  /// matched on real prompt content and skip the matched compute. Token
  /// streams are unaffected (causal K/V of equal prefixes are
  /// bit-identical); only latency and memory change.
  bool enable_prefix_sharing = false;
  /// Per-tier block encoding (cache/cache_types.h), applied to the owned
  /// engine at construction: int8 tiers hold and migrate their blocks at
  /// ~kInt8SlotPack x density with bounded quantization error. The default
  /// all-fp32 policy leaves token streams bit-identical to the
  /// pre-quantization backend. Ignored when borrowing an engine (the
  /// engine owner configures it).
  CacheEncodingPolicy cache_encoding;
  /// Optional sink receiving every finished request's full token sequence
  /// (prompt + generated): fleet owners read tokens after the controller
  /// destroys per-instance backends. Borrowed, must outlive the backend,
  /// and must be private to this backend (instances step concurrently).
  std::unordered_map<RequestId, std::vector<int32_t>>* finished_sink = nullptr;
};

class InferenceBackend : public ExecutionBackend {
 public:
  /// Borrows `engine` (must outlive the backend).
  InferenceBackend(InferenceEngine* engine, const InferenceBackendOptions& options);

  /// Owns a freshly built engine (multi-instance fleets build one engine
  /// per instance through this constructor; engines alive together share
  /// the model of one (model, weight_seed)).
  InferenceBackend(const ModelConfig& model, uint64_t weight_seed,
                   int32_t num_blocks, int32_t block_size,
                   const SamplingParams& sampling,
                   const InferenceBackendOptions& options);

  std::string name() const override { return "inference-engine"; }
  Status Prepare(const std::vector<SimRequest>& reqs) override;
  Status Admit(const SimRequest& sr) override;
  StatusOr<MigrationImage> ExportRequest(const SimRequest& sr) override;
  StatusOr<MigrationImport> ImportRequest(const SimRequest& sr,
                                          const MigrationImage& image) override;
  const BlockPool* pool() const override { return &engine_->pool(); }
  const HybridCacheAssigner* assigner() const override {
    return &engine_->assigner();
  }
  const CostModel* cost_model() const override { return &cost_model_; }
  void BeginIteration() override;
  StatusOr<double> EndIteration() override;
  double IdleAdvanceSeconds() const override { return 1e-4; }
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
    return engine_->assigner().prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override {
    return engine_->assigner().ReclaimPrefixBlocks(min_blocks);
  }

  InferenceEngine& engine() { return *engine_; }
  /// Full token sequences (prompt + generated) of finished requests,
  /// captured before the engine drops them. Moves the map out; call once,
  /// after the run.
  std::unordered_map<RequestId, std::vector<int32_t>> TakeFinishedTokens() {
    return std::move(finished_tokens_);
  }

 private:
  /// Rejects a request whose prompt plus output overflows the model
  /// context; Prepare, Admit and ImportRequest run it.
  Status CheckContext(const SimRequest& sr) const;
  /// Prompt synthesis + engine registration.
  Status Register(const SimRequest& sr);
  /// Computes all deferred steps in one forward and samples in schedule
  /// order.
  Status FlushPending();
  /// Flushes early iff `id` already has a deferred step this iteration.
  Status FlushIfPending(RequestId id);

  std::unique_ptr<InferenceEngine> owned_engine_;
  InferenceEngine* engine_;
  InferenceBackendOptions options_;
  /// Carrier for rho; the scheduler's quantification model reads it from
  /// SchedulerInput::cost_model.
  CostModel cost_model_;
  SwapSpace swap_;
  Rng prompt_rng_;
  double iteration_start_ = 0.0;
  int32_t executed_items_ = 0;
  /// Steps prepared this iteration whose compute is deferred to the
  /// EndIteration flush (one batched forward).
  std::vector<PendingStep> pending_;
  /// Virtual-timing cost of swap-outs not yet charged to an executed
  /// iteration (the engine-side analogue of carry_swap_bytes_).
  int32_t carry_items_ = 0;
  std::unordered_map<RequestId, std::vector<int32_t>> finished_tokens_;
};

}  // namespace aptserve
