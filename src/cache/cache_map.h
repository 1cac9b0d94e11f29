// CacheMap: per-request mapping from token positions to physical cache
// blocks (paper §4.3 "cache map c_i"). A KV-cached request owns two block
// lists (K and V); a hidden-cached request owns one. Blocks need not be
// contiguous in the pool; positions within one block are contiguous.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache_types.h"
#include "common/logging.h"

namespace aptserve {

/// Physical location of one token position's cached vector.
struct BlockSlot {
  BlockId block = kInvalidBlock;
  int32_t offset = 0;  ///< token slot within the block, in [0, block_size).
};

class CacheMap {
 public:
  CacheMap() = default;
  /// `block_size` is this map's *slots per block* — the pool's block size
  /// for fp32 maps, kInt8SlotPack times that for int8 maps (same physical
  /// block bytes, denser token packing).
  CacheMap(CacheType type, int32_t block_size,
           BlockEncoding encoding = BlockEncoding::kFp32)
      : type_(type), block_size_(block_size), encoding_(encoding) {}

  CacheType type() const { return type_; }
  int32_t block_size() const { return block_size_; }
  BlockEncoding encoding() const { return encoding_; }

  /// Number of token positions currently cached.
  int32_t num_tokens() const { return num_tokens_; }

  /// Number of token positions the owned blocks can hold.
  int32_t capacity() const {
    return static_cast<int32_t>(PrimaryBlocks().size()) * block_size_;
  }

  /// Components this map uses: {K, V} for kKV, {Hidden} for kHidden.
  std::vector<CacheComponent> Components() const;

  /// Empties the map and gives it a new type and density, keeping its block
  /// lists' storage (the assigner reuses released maps).
  void Reset(CacheType type, int32_t block_size, BlockEncoding encoding) {
    type_ = type;
    block_size_ = block_size;
    encoding_ = encoding;
    num_tokens_ = 0;
    for (auto& list : blocks_) list.clear();
  }

  /// Appends `blocks` as the next blocks of `component`. The caller (the
  /// hybrid cache assigner) owns allocation; the map only records layout.
  void AppendBlocks(CacheComponent component,
                    const std::vector<BlockId>& blocks) {
    AppendBlocks(component, blocks.data(), blocks.data() + blocks.size());
  }
  void AppendBlocks(CacheComponent component, const BlockId* first,
                    const BlockId* last) {
    auto& list = blocks_[static_cast<size_t>(component)];
    list.insert(list.end(), first, last);
  }

  /// Marks `n` more token positions as filled. Requires capacity.
  void AdvanceTokens(int32_t n);

  /// Location of token position `pos` for `component`.
  BlockSlot Slot(CacheComponent component, int32_t pos) const;

  const std::vector<BlockId>& blocks(CacheComponent component) const {
    return blocks_[static_cast<size_t>(component)];
  }

  /// All blocks across components (for release).
  std::vector<BlockId> AllBlocks() const;

  /// Total number of blocks owned.
  int32_t TotalBlocks() const {
    int32_t n = 0;
    for (const auto& v : blocks_) n += static_cast<int32_t>(v.size());
    return n;
  }

 private:
  /// The component whose block list defines token capacity (K for KV,
  /// Hidden for hidden). K and V lists are kept in lockstep.
  const std::vector<BlockId>& PrimaryBlocks() const {
    return type_ == CacheType::kKV
               ? blocks_[static_cast<size_t>(CacheComponent::kKey)]
               : blocks_[static_cast<size_t>(CacheComponent::kHidden)];
  }

  CacheType type_ = CacheType::kKV;
  int32_t block_size_ = 1;
  BlockEncoding encoding_ = BlockEncoding::kFp32;
  int32_t num_tokens_ = 0;
  std::array<std::vector<BlockId>, 3> blocks_;
};

}  // namespace aptserve
