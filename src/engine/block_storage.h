// BlockStorage: the payload arena behind the unified block pool. Each block
// holds `block_size` token slots × `n_layers` × `dim` fp32 values, i.e. one
// cache component (K, V or hidden) for a span of token positions across all
// layers — exactly the block granularity of paper §4.3.
//
// Gather/Scatter are the CPU analogue of the paper's fused CUDA kernel for
// block-wise cache I/O: they stream fragmented blocks into contiguous
// buffers for attention (and back), hiding the physical fragmentation from
// the compute kernels.
//
// Int8-encoded maps reinterpret the same arena bytes as uint8 codes: a
// block's `block_size * dim` floats hold `kInt8SlotPack * block_size` token
// slots of `dim` codes each, with a per-(block, layer, slot) scale/zero
// pair in lazily allocated side arrays (block-local metadata — freeing a
// block through the pool needs no bookkeeping here, exactly like the fp32
// payload). Reads dequantize into the caller's fp32 buffer, so transformer
// kernels never see the encoding.
//
// The arena and the side arrays are zero-on-demand mappings: a page is
// committed on its first write, so resident memory follows the blocks a
// run has written. BlockPool hands ids out in ascending order and reuses
// them LIFO, which keeps the written set at the pool's high-water mark.
#pragma once

#include <cstdint>

#include "cache/cache_map.h"
#include "cache/cache_types.h"
#include "cache/quantization.h"
#include "common/logging.h"
#include "common/zero_mapped_array.h"

namespace aptserve {

class BlockStorage {
 public:
  BlockStorage(int32_t num_blocks, int32_t block_size, int32_t n_layers,
               int32_t dim);

  int32_t dim() const { return dim_; }
  int32_t n_layers() const { return n_layers_; }
  int32_t block_size() const { return block_size_; }

  /// Mutable pointer to the `dim`-float vector at (block, layer, slot).
  float* Slot(BlockId block, int32_t layer, int32_t slot);
  const float* Slot(BlockId block, int32_t layer, int32_t slot) const;

  /// Writes `vec` (dim floats) as the cached vector for token position `pos`
  /// of `component` at `layer`, resolving the physical block via `map`.
  /// Quantizes in place for int8-encoded maps.
  void WriteVector(const CacheMap& map, CacheComponent component,
                   int32_t layer, int32_t pos, const float* vec);

  /// Copies cached vectors for positions [0, n) of `component` at `layer`
  /// into `out` (n*dim floats, contiguous rows). Blocked gather; int8 maps
  /// dequantize per vector.
  void Gather(const CacheMap& map, CacheComponent component, int32_t layer,
              int32_t n, float* out) const;

  /// Reads a single cached vector into `out` (dim floats), dequantizing
  /// for int8-encoded maps.
  void ReadVector(const CacheMap& map, CacheComponent component, int32_t layer,
                  int32_t pos, float* out) const;

  /// Copies the first `slots` token slots of `src` into `dst` across every
  /// layer — the copy-on-write step of prefix sharing: a request adopting a
  /// partially matched tail block duplicates the shared payload into a
  /// private block before writing its own positions after it. Fp32 blocks
  /// only (prefix sharing is gated off for int8 KV tiers).
  void CopyBlockPrefix(BlockId src, BlockId dst, int32_t slots);

  // ---- Raw int8 transport (migration) --------------------------------------
  // Exact code-level access for moving int8 blocks between pools without a
  // dequantize/requantize round-trip.

  /// Reads position `pos`'s raw codes (dim bytes) and quant params from an
  /// int8-encoded map.
  void ReadQuantized(const CacheMap& map, CacheComponent component,
                     int32_t layer, int32_t pos, uint8_t* codes,
                     QuantParams* params) const;

  /// Writes raw codes + params for position `pos` of an int8-encoded map.
  void WriteQuantized(const CacheMap& map, CacheComponent component,
                      int32_t layer, int32_t pos, const uint8_t* codes,
                      const QuantParams& params);

 private:
  int64_t Offset(BlockId block, int32_t layer, int32_t slot) const {
    APT_CHECK(block >= 0 && block < num_blocks_);
    APT_CHECK(layer >= 0 && layer < n_layers_);
    APT_CHECK(slot >= 0 && slot < block_size_);
    return ((static_cast<int64_t>(block) * n_layers_ + layer) * block_size_ +
            slot) *
           dim_;
  }

  /// Byte offset of an int8 slot's codes in the (aliased) arena. The int8
  /// layer stride is block_size_ * kInt8SlotPack slots × dim_ bytes — the
  /// same bytes as the fp32 layer stride (block_size_ × dim_ floats).
  int64_t QuantOffsetBytes(BlockId block, int32_t layer, int32_t slot) const {
    APT_CHECK(block >= 0 && block < num_blocks_);
    APT_CHECK(layer >= 0 && layer < n_layers_);
    APT_CHECK(slot >= 0 && slot < block_size_ * kInt8SlotPack);
    return ((static_cast<int64_t>(block) * n_layers_ + layer) * block_size_ *
                kInt8SlotPack +
            slot) *
           dim_;
  }

  /// Index into the quant-param side arrays for (block, layer, slot).
  int64_t QuantParamIndex(BlockId block, int32_t layer, int32_t slot) const {
    return (static_cast<int64_t>(block) * n_layers_ + layer) * block_size_ *
               kInt8SlotPack +
           slot;
  }

  const uint8_t* QuantCodes(BlockId block, int32_t layer, int32_t slot) const;
  uint8_t* QuantCodes(BlockId block, int32_t layer, int32_t slot);
  /// Allocates the scale/zero side arrays on first quantized write.
  void EnsureQuantParams();

  int32_t num_blocks_;
  int32_t block_size_;
  int32_t n_layers_;
  int32_t dim_;
  ZeroMappedArray<float> data_;
  /// Per-(block, layer, int8-slot) quantization params; empty until the
  /// first quantized write so fp32-only runs pay nothing.
  ZeroMappedArray<float> qscale_;
  ZeroMappedArray<float> qzero_;
};

}  // namespace aptserve
