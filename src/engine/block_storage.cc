#include "engine/block_storage.h"

#include <cstring>

namespace aptserve {

BlockStorage::BlockStorage(int32_t num_blocks, int32_t block_size,
                           int32_t n_layers, int32_t dim)
    : num_blocks_(num_blocks), block_size_(block_size), n_layers_(n_layers),
      dim_(dim) {
  APT_CHECK(num_blocks >= 0 && block_size > 0 && n_layers > 0 && dim > 0);
  data_ = ZeroMappedArray<float>(static_cast<int64_t>(num_blocks) *
                                 block_size * n_layers * dim);
}

float* BlockStorage::Slot(BlockId block, int32_t layer, int32_t slot) {
  return data_.data() + Offset(block, layer, slot);
}

const float* BlockStorage::Slot(BlockId block, int32_t layer,
                                int32_t slot) const {
  return data_.data() + Offset(block, layer, slot);
}

const uint8_t* BlockStorage::QuantCodes(BlockId block, int32_t layer,
                                        int32_t slot) const {
  // Char-type aliasing of the float arena is well-defined; an int8 block's
  // codes occupy exactly the bytes its fp32 payload would.
  return reinterpret_cast<const uint8_t*>(data_.data()) +
         QuantOffsetBytes(block, layer, slot);
}

uint8_t* BlockStorage::QuantCodes(BlockId block, int32_t layer,
                                  int32_t slot) {
  return reinterpret_cast<uint8_t*>(data_.data()) +
         QuantOffsetBytes(block, layer, slot);
}

void BlockStorage::EnsureQuantParams() {
  if (!qscale_.empty()) return;
  const int64_t n = static_cast<int64_t>(num_blocks_) * n_layers_ *
                    block_size_ * kInt8SlotPack;
  qscale_ = ZeroMappedArray<float>(n);
  qzero_ = ZeroMappedArray<float>(n);
}

void BlockStorage::WriteVector(const CacheMap& map, CacheComponent component,
                               int32_t layer, int32_t pos, const float* vec) {
  const BlockSlot s = map.Slot(component, pos);
  if (map.encoding() == BlockEncoding::kInt8) {
    EnsureQuantParams();
    const QuantParams p = ComputeQuantParams(vec, dim_);
    QuantizeVector(vec, dim_, p, QuantCodes(s.block, layer, s.offset));
    const int64_t qi = QuantParamIndex(s.block, layer, s.offset);
    qscale_[qi] = p.scale;
    qzero_[qi] = p.zero;
    return;
  }
  std::memcpy(Slot(s.block, layer, s.offset), vec, sizeof(float) * dim_);
}

void BlockStorage::Gather(const CacheMap& map, CacheComponent component,
                          int32_t layer, int32_t n, float* out) const {
  if (map.encoding() == BlockEncoding::kInt8) {
    for (int32_t pos = 0; pos < n; ++pos) {
      ReadVector(map, component, layer, pos,
                 out + static_cast<int64_t>(pos) * dim_);
    }
    return;
  }
  // Walk block by block so each memcpy covers a full contiguous run of
  // slots, the same access pattern the paper's fused kernel parallelizes.
  const auto& blocks = map.blocks(component);
  const int32_t slots = map.block_size();
  int32_t pos = 0;
  size_t bi = 0;
  while (pos < n) {
    APT_CHECK_MSG(bi < blocks.size(), "gather past allocated blocks");
    const int32_t run = std::min(slots, n - pos);
    std::memcpy(out + static_cast<int64_t>(pos) * dim_,
                Slot(blocks[bi], layer, 0),
                sizeof(float) * static_cast<int64_t>(run) * dim_);
    pos += run;
    ++bi;
  }
}

void BlockStorage::ReadVector(const CacheMap& map, CacheComponent component,
                              int32_t layer, int32_t pos, float* out) const {
  const BlockSlot s = map.Slot(component, pos);
  if (map.encoding() == BlockEncoding::kInt8) {
    QuantParams p;
    if (!qscale_.empty()) {
      const int64_t qi = QuantParamIndex(s.block, layer, s.offset);
      p.scale = qscale_[qi];
      p.zero = qzero_[qi];
    }
    DequantizeVector(QuantCodes(s.block, layer, s.offset), dim_, p, out);
    return;
  }
  std::memcpy(out, Slot(s.block, layer, s.offset), sizeof(float) * dim_);
}

void BlockStorage::CopyBlockPrefix(BlockId src, BlockId dst, int32_t slots) {
  APT_CHECK(slots > 0 && slots <= block_size_);
  APT_CHECK(src != dst);
  // Slots of one (block, layer) are contiguous, so each layer is one run.
  for (int32_t l = 0; l < n_layers_; ++l) {
    std::memcpy(Slot(dst, l, 0), Slot(src, l, 0),
                sizeof(float) * static_cast<int64_t>(slots) * dim_);
  }
}

void BlockStorage::ReadQuantized(const CacheMap& map, CacheComponent component,
                                 int32_t layer, int32_t pos, uint8_t* codes,
                                 QuantParams* params) const {
  APT_CHECK(map.encoding() == BlockEncoding::kInt8);
  const BlockSlot s = map.Slot(component, pos);
  std::memcpy(codes, QuantCodes(s.block, layer, s.offset), dim_);
  *params = QuantParams{};
  if (!qscale_.empty()) {
    const int64_t qi = QuantParamIndex(s.block, layer, s.offset);
    params->scale = qscale_[qi];
    params->zero = qzero_[qi];
  }
}

void BlockStorage::WriteQuantized(const CacheMap& map,
                                  CacheComponent component, int32_t layer,
                                  int32_t pos, const uint8_t* codes,
                                  const QuantParams& params) {
  APT_CHECK(map.encoding() == BlockEncoding::kInt8);
  EnsureQuantParams();
  const BlockSlot s = map.Slot(component, pos);
  std::memcpy(QuantCodes(s.block, layer, s.offset), codes, dim_);
  const int64_t qi = QuantParamIndex(s.block, layer, s.offset);
  qscale_[qi] = params.scale;
  qzero_[qi] = params.zero;
}

}  // namespace aptserve
