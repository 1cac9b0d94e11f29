// HybridCacheAssigner: owns the per-request cache maps over the unified
// block pool (paper §4.3). It grants/extends/releases cache for scheduled
// requests and implements cache-type switches, which per §5 discard the old
// cache (the request must then re-run a prefill to rebuild it in the new
// type). It also owns prefix sharing: the optional PrefixIndex and every
// rule about it (which passes may share, how far a match reaches, seeding,
// rollback, when an adoption counts, what a finished pass publishes, and
// the dedupe on migration import). Both execution backends allocate
// through it, so they agree on what a hit is worth by running this code.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/block_pool.h"
#include "cache/cache_map.h"
#include "common/flat_id_map.h"
#include "common/status.h"
#include "common/types.h"
#include "prefix/prefix_index.h"

namespace aptserve {

/// Result of seeding a cache map from a prefix match. When the match ended
/// mid-block the assigner allocated a private tail pair (`dst_*`) whose
/// first `tokens` slots must be populated from the shared source pair
/// (`src_*`) — the engine copies real payload (a CowCopy), the analytic
/// backend only accounts. The sources stay pinned until the assigner's
/// ReleaseCowSource, so eviction cannot free them mid-copy.
struct CowSeed {
  BlockId src_k = kInvalidBlock;
  BlockId src_v = kInvalidBlock;
  BlockId dst_k = kInvalidBlock;
  BlockId dst_v = kInvalidBlock;
  int32_t tokens = 0;
};

/// Logical snapshot of one request's cache map for live migration: type and
/// filled positions only — block ids are pool-local and never travel (the
/// destination re-resolves shared prefixes through its own index and
/// allocates the rest via BlockPool::ImportBlocks).
struct RequestCacheImage {
  CacheType type = CacheType::kKV;
  int32_t num_tokens = 0;
};

/// Per-step cost: every per-request operation resolves its map through one
/// flat id index (common/flat_id_map.h) over maps the assigner keeps at
/// stable addresses, so a CacheMap pointer from Find stays valid until that
/// request's cache is released, whatever other requests do. Released maps
/// are reused with their block-list storage, and growth allocates into one
/// reused buffer, so a warm decode step allocates nothing here unless a
/// block list outgrows its storage.
class HybridCacheAssigner {
 public:
  /// The assigner borrows the pool; the pool must outlive it.
  explicit HybridCacheAssigner(BlockPool* pool);

  /// Selects the per-tier block encoding for caches created from now on
  /// (existing maps keep the encoding they were built with). Int8 tiers
  /// pack kInt8SlotPack times the tokens into each pool block, which every
  /// BlocksNeeded/BlocksToGrow caller (admission, scheduling, growth)
  /// inherits automatically.
  void SetEncodingPolicy(const CacheEncodingPolicy& policy) {
    policy_ = policy;
  }
  const CacheEncodingPolicy& encoding_policy() const { return policy_; }
  BlockEncoding EncodingFor(CacheType type) const { return policy_.For(type); }
  /// Token slots one pool block holds for caches of `type` under the
  /// current policy.
  int32_t SlotsPerBlockFor(CacheType type) const {
    return SlotsPerBlock(EncodingFor(type), pool_->block_size());
  }

  /// Blocks required to cache `num_tokens` tokens with the given type:
  /// 2*ceil(t/S) for KV, ceil(t/S) for hidden, where S is the tier's
  /// slots-per-block (the pool block size, times kInt8SlotPack for an int8
  /// tier).
  int32_t BlocksNeeded(CacheType type, int32_t num_tokens) const;

  /// Additional blocks needed to grow request `id`'s existing cache to
  /// `num_tokens` total tokens. 0 when already within capacity.
  int32_t BlocksToGrow(RequestId id, int32_t num_tokens) const;

  /// Creates a cache of `type` for request `id` able to hold `num_tokens`
  /// tokens and marks all of them filled (a completed prefill).
  /// AlreadyExists if the request already has a cache; OutOfMemory if blocks
  /// are unavailable (no block is allocated, but the failed attempt may
  /// already have evicted index-only prefix blocks).
  Status CreateFilled(RequestId id, CacheType type, int32_t num_tokens);

  // ---- Prefix sharing -----------------------------------------------------

  /// Copies the first `tokens` slots of pool block `src` into block `dst`:
  /// the engine's copy-on-write payload copy. It runs after seeding and
  /// before the source's transient pin drops. The analytic backend has no
  /// payload and passes none.
  using CowCopy =
      std::function<void(BlockId src, BlockId dst, int32_t tokens)>;

  /// Turns on prefix sharing: creates the PrefixIndex over the pool. From
  /// then on a fresh KV prefill pass adopts cached blocks of its prompt
  /// (AllocatePrefill), a completed pass publishes its prompt blocks
  /// (PublishPrompt), and every allocation that comes up short evicts
  /// least-recently-used index-only blocks and retries once. Idempotent;
  /// cannot be turned off.
  void EnablePrefixSharing();
  PrefixIndex* prefix_index() { return prefix_index_.get(); }
  const PrefixIndex* prefix_index() const { return prefix_index_.get(); }
  /// Hit accounting; null while sharing is off.
  const PrefixStats* prefix_stats() const {
    return prefix_index_ ? &prefix_index_->stats() : nullptr;
  }
  /// Evicts LRU prefix blocks only the index holds until `min_blocks` were
  /// freed or none is left; returns blocks freed (0 while sharing is off).
  int32_t ReclaimPrefixBlocks(int32_t min_blocks) {
    return prefix_index_ ? prefix_index_->EvictLru(min_blocks) : 0;
  }
  /// Live counters for the index, kept for an index created later.
  void AttachPrefixMetrics(const PrefixIndex::MetricHooks& hooks);

  /// Allocates the next `chunk` positions (> 0, at most the pass's
  /// remaining ones) of request `id`'s prefill pass over `target` positions
  /// whose content is `tokens`. A request with a cache grows it. A fresh
  /// pass of a sharing `type` first matches `tokens` up to min(prompt_len,
  /// target - 1) — generated positions are request-private, and one
  /// position must be computed to sample from — and seeds its map from the
  /// match (CreateSeeded, COW tail through `copy`); seeding that runs out
  /// of memory falls through to an unshared pass. Returns the positions
  /// adopted; the pass then computes min(chunk, target - adopted) of them
  /// after the adopted span. OutOfMemory leaves the request without a new
  /// cache (a seeded map is released again) and counts no adoption; the
  /// failed allocation may already have evicted index-only prefix blocks.
  StatusOr<int32_t> AllocatePrefill(RequestId id, CacheType type,
                                    const std::vector<int32_t>& tokens,
                                    int32_t prompt_len, int32_t target,
                                    int32_t chunk, const CowCopy& copy = {});

  /// Indexes the full prompt blocks of request `id`'s completed pass —
  /// chunks of `tokens` inside the first `prompt_len` positions — so later
  /// passes can adopt them. No-op unless sharing is on and the request
  /// holds an fp32 KV map.
  void PublishPrompt(RequestId id, const std::vector<int32_t>& tokens,
                     int32_t prompt_len);

  /// Creates a kKV cache for request `id` seeded from a prefix-index match:
  /// the match's fully shared blocks join the map (one pool reference per
  /// block is taken for the request, so releasing the map later just drops
  /// that reference) and, when the match ends mid-block, a private tail
  /// pair is allocated for copy-on-write population. Marks all
  /// `match.tokens` positions filled. References are taken *before* the
  /// tail allocation so the reclaimer's eviction can never free matched
  /// blocks; the source of a COW tail stays pinned until ReleaseCowSource.
  /// OutOfMemory (tail pair unavailable even after reclaim) leaves the
  /// request without a cache; the reclaim may have evicted index-only
  /// prefix blocks. AllocatePrefill and
  /// RestoreRequestCache are its callers.
  StatusOr<CowSeed> CreateSeeded(RequestId id, const PrefixMatch& match);

  /// Extends request `id`'s cache by `extra_tokens` filled positions,
  /// allocating blocks on demand (decode growth, one token per iteration in
  /// steady state). OutOfMemory leaves the existing cache intact; the
  /// failed allocation may already have evicted index-only prefix blocks.
  Status Append(RequestId id, int32_t extra_tokens);

  /// Releases all blocks of request `id` (finish or preemption).
  Status Release(RequestId id);

  // ---- Live migration (cache-state handoff) -------------------------------

  /// Snapshot of request `id`'s cache for migration. The map stays intact —
  /// the engine gathers the payload next; ReleaseExported() then drops the
  /// source's blocks.
  StatusOr<RequestCacheImage> SerializeRequestCache(RequestId id) const;

  /// Releases a migrated-out request's blocks through
  /// BlockPool::ExportBlocks: shared prefix blocks stay resident for their
  /// remaining owners (the index, sharing siblings); the rest return to the
  /// free list.
  Status ReleaseExported(RequestId id);

  /// Rebuilds a migrated-in request's cache map from its image. When
  /// sharing applies to `image.type`, the cached prompt prefix — `tokens`,
  /// up to min(prompt_len, image.num_tokens) — is first matched against
  /// *this* pool's index: matched blocks are adopted (dedupe, not copy), a
  /// mid-block tail is copy-on-written through `copy`, and only the
  /// remaining positions get fresh blocks through BlockPool::ImportBlocks.
  /// The adoption counts once the restore succeeded. Returns the positions
  /// deduped (the caller transfers only [deduped, image.num_tokens)).
  /// OutOfMemory leaves the request without a cache (the caller falls back
  /// to a cold import); the failed allocation may already have evicted
  /// index-only prefix blocks.
  StatusOr<int32_t> RestoreRequestCache(RequestId id,
                                        const RequestCacheImage& image,
                                        const std::vector<int32_t>& tokens,
                                        int32_t prompt_len,
                                        const CowCopy& copy = {});

  /// Discards request `id`'s cache so it can be rebuilt with `new_type`
  /// by a subsequent prefill (paper §5: a type switch recomputes the cache).
  /// Equivalent to Release; provided as a named operation for clarity and
  /// stats.
  Status DiscardForConversion(RequestId id);

  bool Has(RequestId id) const { return maps_.Contains(id); }
  const CacheMap* Find(RequestId id) const {
    const CacheMap* const* map = maps_.Find(id);
    return map != nullptr ? *map : nullptr;
  }
  CacheMap* FindMutable(RequestId id) {
    CacheMap** map = maps_.Find(id);
    return map != nullptr ? *map : nullptr;
  }

  BlockPool* pool() const { return pool_; }
  int64_t num_conversions() const { return num_conversions_; }
  int64_t num_seeded() const { return num_seeded_; }
  size_t num_requests() const { return maps_.size(); }

 private:
  /// Whether caches of `type` take part in sharing: the index is on, the
  /// type is KV (hidden caches re-project request-local states) and the KV
  /// tier is fp32 (shared blocks must be exact across adopters).
  bool SharesPrefixes(CacheType type) const {
    return prefix_index_ != nullptr && type == CacheType::kKV &&
           EncodingFor(CacheType::kKV) == BlockEncoding::kFp32;
  }

  /// Drops the transient pin CreateSeeded kept on the COW source pair.
  /// No-op for a seed without a COW tail.
  void ReleaseCowSource(const CowSeed& seed);

  /// A reset map for a new cache: a released one when any is spare, else
  /// a fresh one. Not yet indexed; the caller Puts it into maps_ or pushes
  /// it back onto spare_maps_.
  CacheMap* TakeMap(CacheType type, int32_t block_size,
                    BlockEncoding encoding);
  /// Drops request `id` from the index and keeps its map for reuse (the
  /// caller has already given its blocks back).
  void Forget(RequestId id, CacheMap* map);
  Status AllocateFor(CacheMap* map, int32_t new_blocks_per_component);
  /// AllocateMany with one evict-and-retry round on OutOfMemory when
  /// sharing is on. Routes through ImportBlocks while a RestoreRequestCache
  /// is in flight so migration allocations show up in the pool's lifetime
  /// totals.
  Status AllocateWithReclaim(int32_t n, std::vector<BlockId>* out);
  /// Populates a seed's COW tail through `copy`, then drops the source pin.
  void PopulateCowTail(const CowSeed& seed, const CowCopy& copy);

  BlockPool* pool_;
  CacheEncodingPolicy policy_;
  /// Owns every map ever created; a deque never moves its elements, so
  /// the index's pointers stay valid as it grows.
  std::deque<CacheMap> map_arena_;
  /// Released maps, ready for reuse.
  std::vector<CacheMap*> spare_maps_;
  /// Live request -> its map in map_arena_.
  FlatIdMap<CacheMap*> maps_;
  /// AllocateFor's block buffer, reused across calls.
  std::vector<BlockId> alloc_buffer_;
  /// Owns references into pool_, which outlives the assigner.
  std::unique_ptr<PrefixIndex> prefix_index_;
  PrefixIndex::MetricHooks prefix_hooks_;
  int64_t num_conversions_ = 0;
  int64_t num_seeded_ = 0;
  bool importing_ = false;
};

}  // namespace aptserve
