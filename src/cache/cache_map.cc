#include "cache/cache_map.h"

namespace aptserve {

std::vector<CacheComponent> CacheMap::Components() const {
  if (type_ == CacheType::kKV) {
    return {CacheComponent::kKey, CacheComponent::kValue};
  }
  return {CacheComponent::kHidden};
}

void CacheMap::AdvanceTokens(int32_t n) {
  APT_CHECK_MSG(num_tokens_ + n <= capacity(),
                "advancing past allocated cache capacity");
  if (type_ == CacheType::kKV) {
    // K and V block lists must stay in lockstep.
    APT_CHECK(blocks_[static_cast<size_t>(CacheComponent::kKey)].size() ==
              blocks_[static_cast<size_t>(CacheComponent::kValue)].size());
  }
  num_tokens_ += n;
}

BlockSlot CacheMap::Slot(CacheComponent component, int32_t pos) const {
  APT_CHECK_MSG(pos >= 0 && pos < num_tokens_, "token position out of range");
  const auto& list = blocks_[static_cast<size_t>(component)];
  const int32_t idx = pos / block_size_;
  APT_CHECK_MSG(idx < static_cast<int32_t>(list.size()),
                "cache map missing block for position");
  return BlockSlot{list[idx], pos % block_size_};
}

std::vector<BlockId> CacheMap::AllBlocks() const {
  std::vector<BlockId> out;
  out.reserve(TotalBlocks());
  for (const auto& v : blocks_) out.insert(out.end(), v.begin(), v.end());
  return out;
}

}  // namespace aptserve
