// TransformerModel: the decoder-only transformer of paper §2.1 with two
// inference paths:
//   1. ForwardFull  — no cache, recompute everything (reference oracle; its
//      attention runs in plain per-key Dot loops, independent of the
//      batched path's attention kernels);
//   2. ForwardBatch — one layer-major forward over an engine iteration's
//      items, each a span of new positions over its own cache map:
//        * KV map     — Figure 3a: past K/V are read straight from cache;
//        * hidden map — Figure 3b: past layer inputs x_j^l are read and
//          K/V rebuilt with on-the-fly projections (the extra O(n) linear
//          work whose cost the scheduler models as rho * m_i).
//      Every item's rows go through each layer's projections together, so
//      a layer's weights are streamed once per iteration, not once per
//      request. Decode is a one-position item, (chunked) prefill a longer
//      one.
// Both paths produce identical logits for the same token history — the
// correctness invariant behind the hybrid cache (tested extensively).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_map.h"
#include "common/status.h"
#include "engine/block_storage.h"
#include "engine/model_weights.h"

namespace aptserve {

namespace runtime {
class ThreadPool;
}  // namespace runtime

/// One request's span of new positions in a ForwardBatch call: tokens at
/// positions [start, start + count), whose cache entries are written through
/// `map`; positions [0, start) must already be cached there. Decode is a
/// span of one.
struct ForwardItem {
  const int32_t* tokens = nullptr;  ///< `count` tokens, from `start` on.
  int32_t start = 0;
  int32_t count = 0;
  const CacheMap* map = nullptr;
  /// Receives the next-token logits ([vocab]) at the span's last position.
  std::vector<float>* logits = nullptr;
  /// This item's result; a rejected item leaves its batch-mates unaffected.
  Status status = Status::OK();
};

// All forward paths accept an optional runtime::ThreadPool. Parallel
// execution is bit-identical to serial: the batched kernels preserve the
// scalar accumulation order per output element, and rows/heads/items only
// read state that was fully written before the parallel region. Each kernel
// splits only work large enough to pay for a fork/join
// (ops::ParallelTasks). A null pool (the default) is the serial code path.
class TransformerModel {
 public:
  explicit TransformerModel(ModelWeights weights);

  /// The model with ModelWeights::Random(config, seed), shared by everyone
  /// holding it: while any holder of a (config, seed) model is alive, every
  /// call with that key returns the same instance; once the last holder
  /// drops it the weights are freed, and the next call builds them anew
  /// (bit-identical, being seeded). The registry keeps only weak
  /// references, pruned on lookup, under one process-wide mutex that is
  /// held through the build: concurrent callers of one key get one model,
  /// and builds of different keys run one after the other. The model is
  /// immutable and every forward keeps its scratch per call, so holders
  /// may run it concurrently.
  static std::shared_ptr<const TransformerModel> Shared(
      const ModelConfig& config, uint64_t seed);

  const ModelConfig& config() const { return weights_.config; }
  const ModelWeights& weights() const { return weights_; }

  /// Reference path: processes `tokens` from scratch with no cache and
  /// returns the next-token logits ([vocab]) at the last position.
  StatusOr<std::vector<float>> ForwardFull(
      const std::vector<int32_t>& tokens,
      runtime::ThreadPool* pool = nullptr) const;

  /// Rows per layer-major pass: ForwardBatch stacks consecutive items'
  /// rows up to this many (an item with more rows runs alone), which
  /// bounds a call's scratch while each layer's weights are still read
  /// once per few hundred rows.
  static constexpr int32_t kGroupRows = 256;
  /// Rows per tile of row-local work (the FFN, the hidden cache's past
  /// re-projection), which bounds those buffers.
  static constexpr int32_t kTileRows = 64;

  /// Runs layer-major forwards over `items`: the accepted items' rows are
  /// stacked into [T, d_model] matrices (row groups of up to kGroupRows)
  /// and every projection is one MatMat over a group; each layer's cache
  /// writes, past K/V assembly and causal attention then run per item.
  /// Per item, writes the span's cache entries and its last position's
  /// logits, or sets `status` (token out of vocabulary, span beyond
  /// max_seq_len, map not covering the span) and is skipped. Every output
  /// element keeps the float-operation sequence of a one-item call, so
  /// results are bit-identical to running the items one by one, at any
  /// thread count. Items must touch disjoint cache positions.
  void ForwardBatch(ForwardItem* items, int32_t n_items,
                    BlockStorage* storage,
                    runtime::ThreadPool* pool = nullptr) const;

 private:
  /// ForwardBatch's scratch (defined in transformer.cc) and one attention
  /// task's context within it.
  struct Workspace;
  struct Context;

  /// ForwardFull's causal attention for one row over keys/values of
  /// positions [0, n_ctx), all heads, written to `out` (pre-Wo): per-key
  /// Dot, Softmax, then the literal `o += a * v` loop.
  void ReferenceAttention(const float* q, const float* keys,
                          const float* values, int32_t n_ctx,
                          float* out) const;

  /// ForwardBatch's causal attention of one head for one row (ScoreKeys,
  /// Softmax, WeightedSum): q has d_model floats and keys/values hold
  /// d_model-float rows for positions [0, n_ctx); writes the head's
  /// head_dim slice of `out` (pre-Wo). `out` may be `q`: the head's q
  /// slice is consumed before its out slice is written. `scores` holds
  /// n_ctx floats of scratch.
  void AttendHead(const float* q, const float* keys, const float* values,
                  int32_t n_ctx, int32_t head, float* out,
                  float* scores) const;

  /// ForwardBatch over the row group in ws->spans (`rows` rows in total).
  void ForwardGroup(ForwardItem* items, int32_t rows, BlockStorage* storage,
                    Workspace* ws, runtime::ThreadPool* pool) const;

  /// Checks one ForwardBatch item against the model and its map.
  Status CheckItem(const ForwardItem& item) const;

  /// Layer `layer` attention for one item whose span starts at row `row`
  /// of the workspace: assembles the item's K/V (for an item with a past,
  /// in `ctx`: gathered or re-projected past, then the span's new rows)
  /// and writes the span's attention output over its Q rows. `pool`
  /// parallelizes the re-projection and the (row, head) units when they
  /// carry enough work; null runs serially.
  void AttendItem(const ForwardItem& item, int32_t row, int32_t layer,
                  const BlockStorage& storage, Workspace* ws, Context* ctx,
                  runtime::ThreadPool* pool) const;

  void Activation(float* x, int32_t n) const;

  ModelWeights weights_;
};

}  // namespace aptserve
