// PrefixIndex: the prefix-sharing subsystem's radix tree over token-id
// block chunks (vLLM automatic-prefix-caching / SGLang RadixAttention on
// the unified pool of paper §4.3).
//
// Each tree edge is one *full* cache block's worth of token ids
// (`block_size` tokens); each node owns the K/V block pair that caches
// exactly those positions for that token prefix. Matching is therefore
// block-granular: a request whose prompt starts with the concatenation of
// the chunks along a root path can adopt those K/V blocks instead of
// recomputing them. Because the transformer is causal, the K/V vectors of
// position i depend only on tokens [0, i], so adopted blocks are
// bit-identical to what the request would have computed itself.
//
// Ownership protocol (refcounted BlockPool):
//   - Insert() takes one reference per indexed block: the index is an
//     owner, so a request releasing its cache never frees indexed blocks.
//   - Match() is a pure lookup; HybridCacheAssigner::CreateSeeded() takes
//     the requester's references *before* any allocation can trigger
//     eviction, so a concurrent eviction (the reclaimer running inside the
//     same seeding's tail allocation) can never free matched blocks.
//   - EvictLru() removes least-recently-used leaves whose blocks have no
//     owner besides the index (RefCount == 1) and returns them to the pool.
//
// Scope: one index per HybridCacheAssigner, which owns it and makes every
// call into it, so one per engine/backend instance (the fleet runner builds
// per-instance backends, so no cross-instance sharing exists yet). All
// calls happen on the instance's serial prepare path — the parallel
// runtime's compute threads never touch the index — so no locking is
// needed; the same single-writer argument that covers BlockPool applies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/block_pool.h"
#include "cache/cache_types.h"
#include "common/status.h"

namespace aptserve {

/// Result of a prefix lookup. `tokens` counts every matched position the
/// requester may reuse; the first `k_blocks.size() * block_size` of them
/// are covered by fully shared blocks, the remaining `cow_tokens` live in
/// the leading slots of the cow source pair, which the requester must
/// copy-on-write into a private tail block (the match ends mid-block, so
/// the requester will keep writing positions the source block does not
/// own — see HybridCacheAssigner::CreateSeeded).
struct PrefixMatch {
  int32_t tokens = 0;  ///< usable matched positions (full blocks + COW span)
  std::vector<BlockId> k_blocks;  ///< fully shared K blocks, in position order
  std::vector<BlockId> v_blocks;  ///< fully shared V blocks, in position order
  BlockId cow_src_k = kInvalidBlock;
  BlockId cow_src_v = kInvalidBlock;
  int32_t cow_tokens = 0;  ///< leading slots of the COW source to copy

  bool hit() const { return tokens > 0; }
};

/// Lifetime counters of one index (mirrored into ServingLoopResult so both
/// execution backends report hit accounting through the same struct).
/// Match() counts only lookups; the adoption counters advance via
/// RecordAdoption() once seeding actually succeeded, so an OOM-failed
/// seeding (or its memory-wall retry) never inflates hits relative to the
/// prefill positions genuinely skipped.
struct PrefixStats {
  int64_t lookups = 0;
  int64_t hits = 0;             ///< successful adoptions
  int64_t matched_tokens = 0;   ///< prefill positions skipped via the index
  int64_t shared_blocks = 0;    ///< full-block adoptions handed to requests
  int64_t cow_matches = 0;      ///< adoptions that ended mid-block
  int64_t inserted_blocks = 0;
  int64_t evicted_blocks = 0;
};

class PrefixIndex {
 public:
  /// Borrows `pool` (must outlive the index); `block_size` must equal the
  /// pool's. Only CacheType::kKV blocks are ever indexed — hidden-cache
  /// maps are per-request by construction (the hybrid scheme re-projects
  /// K/V from request-local hidden states, so there is nothing to share).
  PrefixIndex(BlockPool* pool, int32_t block_size);
  ~PrefixIndex();

  PrefixIndex(const PrefixIndex&) = delete;
  PrefixIndex& operator=(const PrefixIndex&) = delete;

  /// Longest indexed prefix of `tokens`, capped at `max_usable` positions
  /// (callers cap at prompt_len and at target-1 so at least one position
  /// remains to produce logits from). Pure lookup plus an LRU touch of the
  /// matched path; takes no block references and counts only a lookup.
  PrefixMatch Match(const std::vector<int32_t>& tokens, int32_t max_usable);

  /// Advances the adoption counters for a match whose seeding succeeded
  /// (HybridCacheAssigner invokes this once the whole step that seeded
  /// from the match succeeded).
  void RecordAdoption(const PrefixMatch& match);

  /// Indexes the full-block prefix of `tokens`: chunks [i*B, (i+1)*B) for
  /// every i with (i+1)*B <= num_tokens, caching `k_blocks[i]`/`v_blocks[i]`.
  /// Existing nodes are kept (first writer wins — their payload is
  /// identical by the causality argument above); new nodes take one pool
  /// reference per block. Returns the number of newly indexed nodes.
  int32_t Insert(const std::vector<int32_t>& tokens, int32_t num_tokens,
                 const std::vector<BlockId>& k_blocks,
                 const std::vector<BlockId>& v_blocks);

  /// Evicts least-recently-used leaves whose blocks have no owner besides
  /// the index, until at least `min_blocks` blocks were returned to the
  /// pool or nothing evictable remains. Returns blocks freed. Interior
  /// nodes become leaves as their subtrees drain, so repeated pressure
  /// peels the tree bottom-up.
  int32_t EvictLru(int32_t min_blocks);

  /// Drops every node and releases the index's block references.
  void Clear();

  int32_t num_nodes() const { return num_nodes_; }
  /// Blocks currently owned by the index (2 per node: one K, one V).
  int32_t indexed_blocks() const { return 2 * num_nodes_; }
  int32_t block_size() const { return block_size_; }
  const PrefixStats& stats() const { return stats_; }

  /// Live counter handles mirroring PrefixStats increments (optional,
  /// borrowed; any member may stay null). Purely observational — stats()
  /// remains the accounting source of truth.
  struct MetricHooks {
    obs::Counter* lookups = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* hit_tokens = nullptr;
    obs::Counter* inserted_blocks = nullptr;
    obs::Counter* evicted_blocks = nullptr;
  };
  void AttachMetrics(const MetricHooks& hooks) { hooks_ = hooks; }

  /// Multi-line dump: node count, stats, and the pool's refcount summary.
  std::string DebugString() const;

 private:
  struct Node {
    /// Children keyed by their full token chunk. std::map keeps traversal
    /// deterministic (lexicographic) independent of insertion order.
    std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    BlockId k_block = kInvalidBlock;
    BlockId v_block = kInvalidBlock;
    /// Logical LRU clock value of the last Match/Insert touching this node.
    uint64_t last_use = 0;
  };

  void Touch(Node* node) { node->last_use = ++clock_; }
  /// Appends every currently evictable leaf under `node` to `out`.
  void CollectEvictableLeaves(Node* node, std::vector<Node*>* out) const;

  BlockPool* pool_;
  int32_t block_size_;
  Node root_;
  int32_t num_nodes_ = 0;
  uint64_t clock_ = 0;
  PrefixStats stats_;
  MetricHooks hooks_;
};

}  // namespace aptserve
