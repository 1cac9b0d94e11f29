#include "engine/block_storage.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

namespace aptserve {
namespace {

TEST(BlockStorageTest, WriteReadRoundTrip) {
  BlockStorage storage(4, 2, 3, 5);  // 4 blocks, size 2, 3 layers, dim 5
  CacheMap map(CacheType::kHidden, 2);
  map.AppendBlocks(CacheComponent::kHidden, {1, 3});
  map.AdvanceTokens(4);

  std::vector<float> vec = {1, 2, 3, 4, 5};
  storage.WriteVector(map, CacheComponent::kHidden, 2, 3, vec.data());
  std::vector<float> out(5, 0);
  storage.ReadVector(map, CacheComponent::kHidden, 2, 3, out.data());
  EXPECT_EQ(out, vec);
}

TEST(BlockStorageTest, LayersAreIndependent) {
  BlockStorage storage(2, 2, 2, 3);
  CacheMap map(CacheType::kHidden, 2);
  map.AppendBlocks(CacheComponent::kHidden, {0});
  map.AdvanceTokens(1);
  std::vector<float> a = {1, 1, 1}, b = {2, 2, 2};
  storage.WriteVector(map, CacheComponent::kHidden, 0, 0, a.data());
  storage.WriteVector(map, CacheComponent::kHidden, 1, 0, b.data());
  std::vector<float> out(3);
  storage.ReadVector(map, CacheComponent::kHidden, 0, 0, out.data());
  EXPECT_EQ(out, a);
  storage.ReadVector(map, CacheComponent::kHidden, 1, 0, out.data());
  EXPECT_EQ(out, b);
}

// Gather must reassemble fragmented, non-contiguous blocks in token order —
// the core of the paper's fused block-wise cache I/O kernel.
TEST(BlockStorageTest, GatherAcrossFragmentedBlocks) {
  const int32_t dim = 2;
  BlockStorage storage(8, 2, 1, dim);
  CacheMap map(CacheType::kHidden, 2);
  // Deliberately scattered, out-of-order physical blocks.
  map.AppendBlocks(CacheComponent::kHidden, {5, 0, 7});
  map.AdvanceTokens(6);
  for (int32_t pos = 0; pos < 6; ++pos) {
    std::vector<float> v = {static_cast<float>(pos), static_cast<float>(-pos)};
    storage.WriteVector(map, CacheComponent::kHidden, 0, pos, v.data());
  }
  std::vector<float> out(6 * dim, -99);
  storage.Gather(map, CacheComponent::kHidden, 0, 6, out.data());
  for (int32_t pos = 0; pos < 6; ++pos) {
    EXPECT_FLOAT_EQ(out[pos * dim], pos);
    EXPECT_FLOAT_EQ(out[pos * dim + 1], -pos);
  }
}

TEST(BlockStorageTest, GatherPartialPrefix) {
  BlockStorage storage(4, 4, 1, 1);
  CacheMap map(CacheType::kHidden, 4);
  map.AppendBlocks(CacheComponent::kHidden, {2, 1});
  map.AdvanceTokens(7);
  for (int32_t pos = 0; pos < 7; ++pos) {
    float v = pos * 10.0f;
    storage.WriteVector(map, CacheComponent::kHidden, 0, pos, &v);
  }
  std::vector<float> out(5, 0);
  storage.Gather(map, CacheComponent::kHidden, 0, 5, out.data());
  for (int32_t pos = 0; pos < 5; ++pos) EXPECT_FLOAT_EQ(out[pos], pos * 10.0f);
}

TEST(BlockStorageTest, KvComponentsShareBlocksDisjointly) {
  BlockStorage storage(4, 2, 1, 2);
  CacheMap map(CacheType::kKV, 2);
  map.AppendBlocks(CacheComponent::kKey, {0});
  map.AppendBlocks(CacheComponent::kValue, {1});
  map.AdvanceTokens(2);
  std::vector<float> k = {1, 2}, v = {3, 4};
  storage.WriteVector(map, CacheComponent::kKey, 0, 0, k.data());
  storage.WriteVector(map, CacheComponent::kValue, 0, 0, v.data());
  std::vector<float> out(2);
  storage.ReadVector(map, CacheComponent::kKey, 0, 0, out.data());
  EXPECT_EQ(out, k);
  storage.ReadVector(map, CacheComponent::kValue, 0, 0, out.data());
  EXPECT_EQ(out, v);
}

// Indices of the resident pages of [base, base + bytes), via mincore.
std::vector<size_t> ResidentPages(const void* base, size_t bytes,
                                  size_t page) {
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  EXPECT_EQ(mincore(const_cast<void*>(base), bytes, vec.data()), 0);
  std::vector<size_t> out;
  for (size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] & 1) out.push_back(i);
  }
  return out;
}

// The arena commits memory on first write: a fresh 64 MiB arena has no
// resident page, one write commits pages of that block only, and slots
// never written still read zero.
TEST(BlockStorageTest, ArenaCommitsPagesOnFirstWrite) {
  constexpr int32_t kBlocks = 4096, kBlockSize = 16, kLayers = 4, kDim = 64;
  BlockStorage storage(kBlocks, kBlockSize, kLayers, kDim);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t block_bytes = sizeof(float) * kBlockSize * kLayers * kDim;
  const size_t arena_bytes = block_bytes * kBlocks;
  ASSERT_GE(arena_bytes, size_t{64} << 20);
  const char* base = reinterpret_cast<const char*>(storage.Slot(0, 0, 0));
  // Pin base-page granularity for the check: under a host policy of
  // transparent huge pages for every mapping, one write would commit the
  // 2 MiB around it. (Fails harmlessly on kernels without THP.)
  madvise(const_cast<char*>(base), arena_bytes, MADV_NOHUGEPAGE);
  EXPECT_TRUE(ResidentPages(base, arena_bytes, page).empty());

  const BlockId block = 1234;
  CacheMap map(CacheType::kHidden, kBlockSize);
  map.AppendBlocks(CacheComponent::kHidden, {block});
  map.AdvanceTokens(kBlockSize);
  const std::vector<float> vec(kDim, 1.5f);
  storage.WriteVector(map, CacheComponent::kHidden, /*layer=*/2, /*pos=*/5,
                      vec.data());

  // The pages overlapping the block's bytes: exactly the block when it
  // spans whole pages, as it does with 4 KiB pages.
  const size_t first = block * block_bytes / page;
  const size_t end = ((block + 1) * block_bytes + page - 1) / page;
  const std::vector<size_t> resident = ResidentPages(base, arena_bytes, page);
  ASSERT_FALSE(resident.empty());
  const auto outside = std::count_if(
      resident.begin(), resident.end(),
      [&](size_t p) { return p < first || p >= end; });
  EXPECT_EQ(outside, 0) << "of " << resident.size() << " resident pages";

  // Read after the residency check: reading an untouched page maps the
  // shared zero page, which mincore would report as resident.
  std::vector<float> out(kDim, -1.0f);
  storage.ReadVector(map, CacheComponent::kHidden, 0, 0, out.data());
  EXPECT_EQ(out, std::vector<float>(kDim, 0.0f));
  storage.ReadVector(map, CacheComponent::kHidden, 2, 5, out.data());
  EXPECT_EQ(out, vec);
}

}  // namespace
}  // namespace aptserve
