// InferenceEngine: multi-request generation over the unified block pool.
// This is the executable core of the paper's inference engine (Figure 5,
// right half): per-request hybrid cache, block allocation through the
// assigner, full and chunked prefill passes, decode iterations, cache-type
// conversion via discard + re-prefill (paper §5), and preemption/resume.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "cache/migration_image.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/block_storage.h"
#include "engine/sampling.h"
#include "engine/transformer.h"
#include "obs/metrics_registry.h"
#include "runtime/runtime_config.h"
#include "runtime/thread_pool.h"

namespace aptserve {

/// Per-request generation state tracked by the engine.
struct GenerationState {
  std::vector<int32_t> tokens;  ///< prompt followed by generated tokens.
  int32_t prompt_len = 0;
  CacheType cache_type = CacheType::kKV;
  /// Number of leading positions of `tokens` whose cache entries exist.
  int32_t cached_tokens = 0;
  /// True once the current prefill pass completed and the request is in the
  /// decode phase (cleared by preemption/conversion).
  bool in_decode = false;
  int32_t generated() const {
    return static_cast<int32_t>(tokens.size()) - prompt_len;
  }
  /// Positions the current prefill pass must cover (prompt plus any tokens
  /// generated before a preemption — paper footnote 2).
  int32_t PrefillTarget() const {
    return static_cast<int32_t>(tokens.size());
  }
};

/// A prepared-but-not-yet-computed engine step. Preparation (validation
/// plus block allocation) runs serially in schedule order — it is what
/// determines out-of-memory behaviour — while the deferred transformer
/// forwards of a batch run together in one layer-major pass: distinct
/// steps touch disjoint cache blocks and only share the (immutable)
/// weights. Finishing then samples each request from its own
/// counter-based RNG (seeded on (sample_seed, request, position)), so
/// token streams are bit-identical to serial execution at any thread
/// count and any batch composition.
struct PendingStep {
  RequestId id = -1;
  bool is_decode = false;
  /// Decode: the position processed and its input token.
  int32_t pos = 0;
  int32_t token = -1;
  /// Prefill: the chunk's tokens (positions [start, upto)), the first new
  /// position, the chunk end, whether this pass created the cache, and
  /// whether it completes prefill.
  std::vector<int32_t> prefill_tokens;
  int32_t start = 0;
  int32_t upto = 0;
  bool fresh = false;
  bool completes = false;
  /// Positions seeded from the prefix index instead of being computed
  /// (prefill only; the pass starts after them).
  int32_t prefix_skipped = 0;
  /// Filled by the forward (ExecuteSteps).
  std::vector<float> logits;
  Status compute_status = Status::OK();
  bool computed = false;
};

class InferenceEngine {
 public:
  /// Attaches to the live model of (config, seed) when another engine
  /// holds one, else builds it with seeded random weights
  /// (TransformerModel::Shared), and creates a unified pool of
  /// `num_blocks` blocks of `block_size` token positions each. `runtime`
  /// sizes the engine's thread pool (default: serial; see RuntimeConfig).
  InferenceEngine(const ModelConfig& config, uint64_t seed, int32_t num_blocks,
                  int32_t block_size,
                  const RuntimeConfig& runtime = RuntimeConfig{});

  /// Sets the sampling strategy for generated tokens (default: greedy).
  void SetSampling(const SamplingParams& params, uint64_t sample_seed = 1);

  /// Selects the per-tier block encoding for caches created from now on
  /// (call before requests hold cache; existing maps keep their encoding).
  /// An int8 tier holds and migrates its blocks at ~kInt8SlotPack x density
  /// with bounded quantization error; the default all-fp32 policy leaves
  /// token streams bit-identical to the pre-quantization engine. Prefix
  /// sharing disables itself for an int8 KV tier (shared blocks must be
  /// exact across adopters).
  void SetEncodingPolicy(const CacheEncodingPolicy& policy);
  const CacheEncodingPolicy& encoding_policy() const {
    return assigner_.encoding_policy();
  }

  /// Attaches live engine-level metrics to `registry` (borrowed; must
  /// outlive the engine). `labels` is the Prometheus label set stamped on
  /// every handle (e.g. `instance="0"`). Wires step counters on the
  /// Prepare/Compute/Finish phases, pool occupancy gauges labeled with the
  /// current encoding policy's tiers, and the prefix index's
  /// hit/insert/evict counters (they stay zero while sharing is off, and
  /// an index enabled later picks them up). Distinct metric names from the
  /// serving-loop pulls (`aptserve_engine_*` / `aptserve_prefix_index_*`)
  /// so engine-level and loop-level accounting never double-count. Purely
  /// observational: token streams are unaffected.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& labels);

  /// Registers a request with its prompt; no compute or memory yet.
  Status AddRequest(RequestId id, std::vector<int32_t> prompt,
                    CacheType cache_type);

  /// Runs (the remainder of) the prefill phase in one batched pass:
  /// allocates cache for all un-cached tokens, processes them, samples the
  /// next token (appended to the request) and returns it. Also used to
  /// resume preempted/converted requests, in which case the pass covers the
  /// prompt plus previously generated tokens.
  StatusOr<int32_t> Prefill(RequestId id);

  /// Chunked prefill (Sarathi-style): processes up to `max_tokens` pending
  /// prefill positions. Returns the sampled first token when the pass
  /// completes, std::nullopt when more chunks remain.
  StatusOr<std::optional<int32_t>> PrefillChunk(RequestId id,
                                                int32_t max_tokens);

  /// Runs one decode iteration for the request: extends the cache by one
  /// position, processes the latest token, appends and returns the next.
  StatusOr<int32_t> DecodeStep(RequestId id);

  // ---- Batched execution --------------------------------------------------
  // PrefillChunk/DecodeStep are one-step batches of the two phases below,
  // so the serial and batched paths share one implementation. A batch
  // executor (serve/inference_backend.h) prepares steps in schedule order
  // and executes them together.

  /// Validates and allocates one decode step without computing it.
  StatusOr<PendingStep> PrepareDecode(RequestId id);

  /// Validates and allocates (the next chunk of) a prefill pass without
  /// computing it. Identical checks and allocation to PrefillChunk.
  StatusOr<PendingStep> PreparePrefillChunk(RequestId id, int32_t max_tokens);

  /// Computes `steps` in one layer-major forward (TransformerModel::
  /// ForwardBatch: each layer's weights are read once per row group of the
  /// batch, kernels parallel across the runtime pool when the engine has
  /// one), then finishes them in preparation order: advances each cached
  /// token count and — for decodes and completing prefills — samples the
  /// next token from the request's counter-based RNG (a pure function of
  /// (sample_seed, request id, position): independent of batch
  /// composition, chunking, migration, and serving mode). Bit-identical to
  /// executing the steps one by one. A step whose compute fails fails
  /// alone (`compute_status`): every step is finished, and the first
  /// failure is returned.
  Status ExecuteSteps(std::vector<PendingStep>* steps);

  /// Switches the request's cache type: discards the existing cache; the
  /// caller must run Prefill() again to rebuild it (mirrors the paper's
  /// recompute-on-switch policy). No-op Status::OK if already `new_type`.
  Status ConvertCacheType(RequestId id, CacheType new_type);

  /// Releases the request's cache but keeps its token state so it can be
  /// resumed later with Prefill() (scheduler preemption).
  Status Preempt(RequestId id);

  /// Swap-based preemption (vLLM's alternative to recompute): copies the
  /// request's cached vectors to a host-side staging buffer and frees its
  /// GPU blocks. The request cannot decode until SwapIn().
  Status SwapOut(RequestId id);

  /// Restores a swapped-out request's cache to GPU blocks bit-identically;
  /// generation resumes exactly where it stopped (no recompute).
  /// OutOfMemory when the pool lacks blocks (the swap copy is kept).
  Status SwapIn(RequestId id);

  bool IsSwappedOut(RequestId id) const { return swapped_.count(id) > 0; }

  /// Drops the request and frees its cache.
  Status RemoveRequest(RequestId id);

  // ---- Live migration (fleet cache-state handoff) --------------------------

  /// Serializes the request for migration to another engine instance: full
  /// token state plus — when the request holds cache — the cached vectors
  /// gathered through BlockStorage (same layout as the swap staging
  /// buffer). The request is removed from this engine; its blocks release
  /// through BlockPool::ExportBlocks, so prefix-shared blocks stay resident
  /// for their remaining owners. FailedPrecondition for swapped-out
  /// requests (swap-in first, or migrate them cold after a release).
  StatusOr<MigrationImage> ExportRequest(RequestId id);

  /// Registers a migrated-in request and restores its cache. The prompt
  /// prefix of the cached span is first re-resolved against this engine's
  /// PrefixIndex: matched blocks are adopted (dedupe — the content is
  /// bit-identical by causality when the fleet replicates weights), a
  /// mid-block tail is copy-on-written locally, and only the rest is
  /// scattered from the image's payload. If the pool cannot hold the cache
  /// even after reclaim, the request imports cold (cache_restored=false)
  /// and re-prefills here — the migration analogue of a recompute
  /// preemption.
  StatusOr<MigrationImport> ImportRequest(RequestId id,
                                          const MigrationImage& image);

  /// Convenience: generate up to `max_new_tokens` tokens (prefill if needed
  /// then decode steps), stopping early on `eos_token` (pass -1 to disable).
  /// Returns the full token sequence.
  StatusOr<std::vector<int32_t>> Generate(RequestId id, int32_t max_new_tokens,
                                          int32_t eos_token = -1);

  const GenerationState* Find(RequestId id) const;
  const TransformerModel& model() const { return *model_; }
  BlockPool& pool() { return pool_; }
  HybridCacheAssigner& assigner() { return assigner_; }
  BlockStorage& storage() { return storage_; }
  /// The engine's runtime pool; null when configured serial.
  runtime::ThreadPool* thread_pool() { return thread_pool_.get(); }

 private:
  StatusOr<int32_t> SampleNext(RequestId id, const GenerationState& gs,
                               const std::vector<float>& logits);

  /// Computes steps[0, n) in one ForwardBatch call and marks them computed.
  void ComputeSteps(PendingStep* steps, size_t n);

  /// Applies a computed step to the request state (see ExecuteSteps). Must
  /// run in preparation order to reproduce serial token streams.
  StatusOr<std::optional<int32_t>> FinishStep(PendingStep* step);

  /// Host-side copy of a swapped-out request's cache.
  struct SwappedCache {
    CacheType type = CacheType::kKV;
    int32_t tokens = 0;
    bool was_in_decode = false;
    /// Layout: [component][layer][pos][d_model], components in the order
    /// CacheMap::Components() returns for `type`.
    std::vector<float> data;
  };

  /// The engine's largest buffer: a mapping of its own, outside the heap,
  /// whose pages are committed only as the pool's blocks are first written.
  BlockStorage storage_;
  /// Shared with every live engine of the same (config, seed): the
  /// weights are read-only (TransformerModel::Shared).
  std::shared_ptr<const TransformerModel> model_;
  BlockPool pool_;
  /// Owns the prefix index (assigner().EnablePrefixSharing()); declared
  /// after pool_ so destruction releases index references first.
  HybridCacheAssigner assigner_;
  std::unique_ptr<runtime::ThreadPool> thread_pool_;
  std::unordered_map<RequestId, GenerationState> requests_;
  std::unordered_map<RequestId, SwappedCache> swapped_;
  SamplingParams sampling_;
  uint64_t sample_seed_ = 1;

  /// AttachMetrics handles (null = detached).
  obs::Counter* obs_decode_prepared_ = nullptr;
  obs::Counter* obs_prefill_prepared_ = nullptr;
  obs::Counter* obs_steps_computed_ = nullptr;
  obs::Counter* obs_steps_finished_ = nullptr;
};

}  // namespace aptserve
