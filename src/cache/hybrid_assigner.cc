#include "cache/hybrid_assigner.h"

#include <algorithm>

#include "common/logging.h"

namespace aptserve {

namespace {
int32_t CeilDiv(int32_t a, int32_t b) { return (a + b - 1) / b; }

constexpr CacheComponent kAllComponents[] = {
    CacheComponent::kKey, CacheComponent::kValue, CacheComponent::kHidden};

Status NoCache(RequestId id) {
  return Status::NotFound("request " + std::to_string(id) + " has no cache");
}
}  // namespace

HybridCacheAssigner::HybridCacheAssigner(BlockPool* pool) : pool_(pool) {
  APT_CHECK(pool != nullptr);
}

int32_t HybridCacheAssigner::BlocksNeeded(CacheType type,
                                          int32_t num_tokens) const {
  if (num_tokens <= 0) return 0;
  const int32_t per_component = CeilDiv(num_tokens, SlotsPerBlockFor(type));
  return type == CacheType::kKV ? 2 * per_component : per_component;
}

int32_t HybridCacheAssigner::BlocksToGrow(RequestId id,
                                          int32_t num_tokens) const {
  const CacheMap* map = Find(id);
  if (map == nullptr) return BlocksNeeded(CacheType::kKV, num_tokens);
  const int32_t have = map->capacity();
  if (num_tokens <= have) return 0;
  // Grow at the map's own density (it may predate a policy change).
  const int32_t extra = CeilDiv(num_tokens - have, map->block_size());
  return map->type() == CacheType::kKV ? 2 * extra : extra;
}

CacheMap* HybridCacheAssigner::TakeMap(CacheType type, int32_t block_size,
                                       BlockEncoding encoding) {
  CacheMap* map;
  if (spare_maps_.empty()) {
    map = &map_arena_.emplace_back();
  } else {
    map = spare_maps_.back();
    spare_maps_.pop_back();
  }
  map->Reset(type, block_size, encoding);
  return map;
}

void HybridCacheAssigner::Forget(RequestId id, CacheMap* map) {
  maps_.Erase(id);
  spare_maps_.push_back(map);
}

Status HybridCacheAssigner::AllocateWithReclaim(int32_t n,
                                                std::vector<BlockId>* out) {
  const auto allocate = [&] {
    return importing_ ? pool_->ImportBlocks(n, out)
                      : pool_->AllocateMany(n, out);
  };
  Status st = allocate();
  if (st.IsOutOfMemory() && prefix_index_ != nullptr) {
    // Evict unreferenced cached prefixes, then retry once. Eviction may
    // free fewer than asked (pinned leaves are skipped); the retry surfaces
    // the remaining deficit as OOM.
    prefix_index_->EvictLru(n - pool_->num_free());
    st = allocate();
  }
  return st;
}

Status HybridCacheAssigner::AllocateFor(CacheMap* map,
                                        int32_t new_blocks_per_component) {
  if (new_blocks_per_component <= 0) return Status::OK();
  const bool kv = map->type() == CacheType::kKV;
  alloc_buffer_.clear();
  APT_RETURN_NOT_OK(AllocateWithReclaim(
      kv ? 2 * new_blocks_per_component : new_blocks_per_component,
      &alloc_buffer_));
  // Components in CacheMap::Components() order: K then V, or hidden.
  const BlockId* first = alloc_buffer_.data();
  const BlockId* mid = first + new_blocks_per_component;
  if (kv) {
    map->AppendBlocks(CacheComponent::kKey, first, mid);
    map->AppendBlocks(CacheComponent::kValue, mid,
                      mid + new_blocks_per_component);
  } else {
    map->AppendBlocks(CacheComponent::kHidden, first, mid);
  }
  return Status::OK();
}

Status HybridCacheAssigner::CreateFilled(RequestId id, CacheType type,
                                         int32_t num_tokens) {
  if (num_tokens <= 0) {
    return Status::InvalidArgument("cache must hold at least one token");
  }
  if (Has(id)) {
    return Status::AlreadyExists("request " + std::to_string(id) +
                                 " already has a cache");
  }
  CacheMap* map = TakeMap(type, SlotsPerBlockFor(type), EncodingFor(type));
  const Status st = AllocateFor(map, CeilDiv(num_tokens, map->block_size()));
  if (!st.ok()) {
    spare_maps_.push_back(map);
    return st;
  }
  map->AdvanceTokens(num_tokens);
  maps_.Put(id, map);
  return Status::OK();
}

StatusOr<CowSeed> HybridCacheAssigner::CreateSeeded(RequestId id,
                                                    const PrefixMatch& match) {
  if (!match.hit()) {
    return Status::InvalidArgument("cannot seed from an empty match");
  }
  if (EncodingFor(CacheType::kKV) != BlockEncoding::kFp32) {
    // Shared prefix blocks must be exact across adopters; the match sites
    // (AllocatePrefill, RestoreRequestCache) gate themselves off under an
    // int8 KV tier, so this is a misuse guard.
    return Status::FailedPrecondition(
        "prefix seeding requires an fp32 KV tier");
  }
  if (Has(id)) {
    return Status::AlreadyExists("request " + std::to_string(id) +
                                 " already has a cache");
  }
  const int32_t full = static_cast<int32_t>(match.k_blocks.size());
  APT_CHECK(static_cast<int32_t>(match.v_blocks.size()) == full);
  APT_CHECK(match.tokens == full * pool_->block_size() + match.cow_tokens);

  // 1. Pin everything the match refers to before any allocation below can
  // run the reclaimer: the full blocks become the request's owned
  // references; the COW sources are pinned transiently until the caller's
  // ReleaseCowSource (so eviction cannot free them before the payload
  // copy happens).
  for (BlockId b : match.k_blocks) APT_CHECK(pool_->Ref(b).ok());
  for (BlockId b : match.v_blocks) APT_CHECK(pool_->Ref(b).ok());
  CowSeed seed;
  if (match.cow_tokens > 0) {
    APT_CHECK(pool_->Ref(match.cow_src_k).ok());
    APT_CHECK(pool_->Ref(match.cow_src_v).ok());
    std::vector<BlockId> tail;
    Status st = AllocateWithReclaim(2, &tail);
    if (!st.ok()) {
      // Unwind: the pool must end exactly as it started.
      APT_CHECK(pool_->Free(match.cow_src_k).ok());
      APT_CHECK(pool_->Free(match.cow_src_v).ok());
      for (BlockId b : match.k_blocks) APT_CHECK(pool_->Free(b).ok());
      for (BlockId b : match.v_blocks) APT_CHECK(pool_->Free(b).ok());
      return st;
    }
    seed.src_k = match.cow_src_k;
    seed.src_v = match.cow_src_v;
    seed.dst_k = tail[0];
    seed.dst_v = tail[1];
    seed.tokens = match.cow_tokens;
  }

  // 2. Build the map: shared full blocks, then the private COW tail.
  CacheMap* map =
      TakeMap(CacheType::kKV, pool_->block_size(), BlockEncoding::kFp32);
  map->AppendBlocks(CacheComponent::kKey, match.k_blocks);
  map->AppendBlocks(CacheComponent::kValue, match.v_blocks);
  if (match.cow_tokens > 0) {
    map->AppendBlocks(CacheComponent::kKey, &seed.dst_k, &seed.dst_k + 1);
    map->AppendBlocks(CacheComponent::kValue, &seed.dst_v, &seed.dst_v + 1);
  }
  map->AdvanceTokens(match.tokens);
  maps_.Put(id, map);
  ++num_seeded_;
  return seed;
}

void HybridCacheAssigner::ReleaseCowSource(const CowSeed& seed) {
  if (seed.tokens <= 0) return;
  APT_CHECK(pool_->Free(seed.src_k).ok());
  APT_CHECK(pool_->Free(seed.src_v).ok());
}

void HybridCacheAssigner::PopulateCowTail(const CowSeed& seed,
                                          const CowCopy& copy) {
  if (seed.tokens > 0 && copy) {
    copy(seed.src_k, seed.dst_k, seed.tokens);
    copy(seed.src_v, seed.dst_v, seed.tokens);
  }
  ReleaseCowSource(seed);
}

void HybridCacheAssigner::EnablePrefixSharing() {
  if (prefix_index_ != nullptr) return;
  prefix_index_ = std::make_unique<PrefixIndex>(pool_, pool_->block_size());
  prefix_index_->AttachMetrics(prefix_hooks_);
}

void HybridCacheAssigner::AttachPrefixMetrics(
    const PrefixIndex::MetricHooks& hooks) {
  prefix_hooks_ = hooks;
  if (prefix_index_ != nullptr) prefix_index_->AttachMetrics(hooks);
}

StatusOr<int32_t> HybridCacheAssigner::AllocatePrefill(
    RequestId id, CacheType type, const std::vector<int32_t>& tokens,
    int32_t prompt_len, int32_t target, int32_t chunk, const CowCopy& copy) {
  if (Has(id)) {
    APT_RETURN_NOT_OK(Append(id, chunk));
    return 0;
  }
  if (SharesPrefixes(type)) {
    // Causality makes adopted K/V bit-identical to recomputation, so tokens
    // are unchanged; only the prefill work shrinks.
    const PrefixMatch match =
        prefix_index_->Match(tokens, std::min(prompt_len, target - 1));
    if (match.hit()) {
      StatusOr<CowSeed> seeded = CreateSeeded(id, match);
      if (seeded.ok()) {
        PopulateCowTail(*seeded, copy);
        const Status st = Append(id, std::min(chunk, target - match.tokens));
        if (!st.ok()) {
          // Restore the pre-call pool state: the seeded map's references
          // (shared and private alike) all release through the map.
          APT_CHECK(Release(id).ok());
          return st;
        }
        // The adoption counts only now, with the whole step succeeded: a
        // rolled-back seeding must not inflate hits relative to the
        // prefill positions genuinely skipped.
        prefix_index_->RecordAdoption(match);
        return match.tokens;
      }
      if (!seeded.status().IsOutOfMemory()) return seeded.status();
      // Seeding OOM falls through to the unshared pass, whose own
      // allocation surfaces the memory pressure normally.
    }
  }
  APT_RETURN_NOT_OK(CreateFilled(id, type, chunk));
  return 0;
}

void HybridCacheAssigner::PublishPrompt(RequestId id,
                                        const std::vector<int32_t>& tokens,
                                        int32_t prompt_len) {
  if (prefix_index_ == nullptr) return;
  const CacheMap* map = Find(id);
  if (map == nullptr || map->type() != CacheType::kKV ||
      map->encoding() != BlockEncoding::kFp32) {
    return;
  }
  prefix_index_->Insert(tokens, prompt_len, map->blocks(CacheComponent::kKey),
                        map->blocks(CacheComponent::kValue));
}

Status HybridCacheAssigner::Append(RequestId id, int32_t extra_tokens) {
  CacheMap* map = FindMutable(id);
  if (map == nullptr) return NoCache(id);
  if (extra_tokens < 0) return Status::InvalidArgument("negative growth");
  const int32_t target = map->num_tokens() + extra_tokens;
  if (target > map->capacity()) {
    const int32_t extra_blocks =
        CeilDiv(target - map->capacity(), map->block_size());
    APT_RETURN_NOT_OK(AllocateFor(map, extra_blocks));
  }
  map->AdvanceTokens(extra_tokens);
  return Status::OK();
}

Status HybridCacheAssigner::Release(RequestId id) {
  CacheMap* map = FindMutable(id);
  if (map == nullptr) return NoCache(id);
  // K, then V, then hidden: the order AllBlocks() lists them in.
  for (const auto c : kAllComponents) pool_->FreeMany(map->blocks(c));
  Forget(id, map);
  return Status::OK();
}

StatusOr<RequestCacheImage> HybridCacheAssigner::SerializeRequestCache(
    RequestId id) const {
  const CacheMap* map = Find(id);
  if (map == nullptr) return NoCache(id);
  RequestCacheImage image;
  image.type = map->type();
  image.num_tokens = map->num_tokens();
  return image;
}

Status HybridCacheAssigner::ReleaseExported(RequestId id) {
  CacheMap* map = FindMutable(id);
  if (map == nullptr) return NoCache(id);
  for (const auto c : kAllComponents) {
    APT_RETURN_NOT_OK(pool_->ExportBlocks(map->blocks(c)).status());
  }
  Forget(id, map);
  return Status::OK();
}

StatusOr<int32_t> HybridCacheAssigner::RestoreRequestCache(
    RequestId id, const RequestCacheImage& image,
    const std::vector<int32_t>& tokens, int32_t prompt_len,
    const CowCopy& copy) {
  if (image.num_tokens <= 0) {
    return Status::InvalidArgument("cannot restore an empty cache image");
  }
  // Generated positions (beyond prompt_len) are private and always
  // transfer.
  PrefixMatch match;
  if (SharesPrefixes(image.type)) {
    match =
        prefix_index_->Match(tokens, std::min(prompt_len, image.num_tokens));
  }
  importing_ = true;
  StatusOr<CowSeed> result = [&]() -> StatusOr<CowSeed> {
    if (!match.hit()) {
      APT_RETURN_NOT_OK(CreateFilled(id, image.type, image.num_tokens));
      return CowSeed{};
    }
    auto seeded = CreateSeeded(id, match);
    if (!seeded.ok()) return seeded.status();
    const int32_t remainder = image.num_tokens - match.tokens;
    if (remainder > 0) {
      Status st = Append(id, remainder);
      if (!st.ok()) {
        // Unwind to the pre-call pool state; the transient COW pin must
        // drop too.
        ReleaseCowSource(*seeded);
        APT_CHECK(Release(id).ok());
        return st;
      }
    }
    return seeded;
  }();
  importing_ = false;
  APT_RETURN_NOT_OK(result.status());
  PopulateCowTail(*result, copy);
  if (match.hit()) prefix_index_->RecordAdoption(match);
  return match.tokens;
}

Status HybridCacheAssigner::DiscardForConversion(RequestId id) {
  APT_RETURN_NOT_OK(Release(id));
  ++num_conversions_;
  return Status::OK();
}

}  // namespace aptserve
