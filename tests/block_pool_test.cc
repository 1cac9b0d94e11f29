#include "cache/block_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"

namespace aptserve {
namespace {

TEST(BlockPoolTest, InitialState) {
  BlockPool pool(8, 16);
  EXPECT_EQ(pool.num_blocks(), 8);
  EXPECT_EQ(pool.block_size(), 16);
  EXPECT_EQ(pool.num_free(), 8);
  EXPECT_EQ(pool.num_allocated(), 0);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.0);
}

TEST(BlockPoolTest, AllocateAscendingAndUnique) {
  BlockPool pool(4, 16);
  std::set<BlockId> seen;
  for (int i = 0; i < 4; ++i) {
    auto b = pool.Allocate();
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, i);  // deterministic ascending order
    EXPECT_TRUE(seen.insert(*b).second);
    EXPECT_TRUE(pool.IsAllocated(*b));
  }
  EXPECT_EQ(pool.num_free(), 0);
  EXPECT_TRUE(pool.Allocate().status().IsOutOfMemory());
}

TEST(BlockPoolTest, FreeAndReuse) {
  BlockPool pool(2, 4);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(pool.Free(*a).ok());
  EXPECT_FALSE(pool.IsAllocated(*a));
  auto c = pool.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // LIFO reuse
}

TEST(BlockPoolTest, DoubleFreeRejected) {
  BlockPool pool(2, 4);
  auto a = pool.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(pool.Free(*a).ok());
  Status s = pool.Free(*a);
  EXPECT_TRUE(s.IsInvalidArgument());
  // The message names the offending block so sharing bugs are debuggable.
  EXPECT_NE(s.ToString().find("block " + std::to_string(*a)),
            std::string::npos)
      << s.ToString();
}

TEST(BlockPoolTest, RefCountsShareAndFreeOnLastRelease) {
  BlockPool pool(2, 4);
  auto a = pool.Allocate();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(pool.RefCount(*a), 1);
  ASSERT_TRUE(pool.Ref(*a).ok());
  ASSERT_TRUE(pool.Ref(*a).ok());
  EXPECT_EQ(pool.RefCount(*a), 3);
  EXPECT_EQ(pool.num_shared(), 1);
  // Intermediate releases keep the block allocated.
  ASSERT_TRUE(pool.Free(*a).ok());
  ASSERT_TRUE(pool.Free(*a).ok());
  EXPECT_TRUE(pool.IsAllocated(*a));
  EXPECT_EQ(pool.num_free(), 1);
  // The last owner's release frees it.
  ASSERT_TRUE(pool.Free(*a).ok());
  EXPECT_FALSE(pool.IsAllocated(*a));
  EXPECT_EQ(pool.num_free(), 2);
  EXPECT_EQ(pool.RefCount(*a), 0);
}

TEST(BlockPoolTest, RefRejectsFreeAndOutOfRangeBlocks) {
  BlockPool pool(2, 4);
  EXPECT_TRUE(pool.Ref(0).IsInvalidArgument());   // free block
  EXPECT_TRUE(pool.Ref(-1).IsInvalidArgument());  // out of range
  EXPECT_TRUE(pool.Ref(2).IsInvalidArgument());
  EXPECT_EQ(pool.RefCount(-1), 0);
  EXPECT_EQ(pool.RefCount(5), 0);
}

TEST(BlockPoolTest, DebugStringDumpsSharingInvariants) {
  BlockPool pool(4, 8);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(pool.Ref(*a).ok());
  const std::string dump = pool.DebugString();
  EXPECT_NE(dump.find("blocks=4"), std::string::npos) << dump;
  EXPECT_NE(dump.find("free=2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("allocated=2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("shared=1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("max_refcount=2"), std::string::npos) << dump;
  // Histogram: 2 free blocks, 1 single-owner, 1 double-owner.
  EXPECT_NE(dump.find("0x2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("1x1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("2x1"), std::string::npos) << dump;
}

TEST(BlockPoolTest, FreeOutOfRangeRejected) {
  BlockPool pool(2, 4);
  EXPECT_TRUE(pool.Free(-1).IsInvalidArgument());
  EXPECT_TRUE(pool.Free(2).IsInvalidArgument());
}

TEST(BlockPoolTest, AllocateManyAllOrNothing) {
  BlockPool pool(5, 4);
  std::vector<BlockId> out;
  ASSERT_TRUE(pool.AllocateMany(3, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(pool.num_free(), 2);
  std::vector<BlockId> out2;
  Status s = pool.AllocateMany(3, &out2);
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_TRUE(out2.empty());
  EXPECT_EQ(pool.num_free(), 2);  // unchanged on failure
}

TEST(BlockPoolTest, AllocateManyAppendsToExisting) {
  BlockPool pool(4, 4);
  std::vector<BlockId> out = {99};
  ASSERT_TRUE(pool.AllocateMany(2, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 99);
}

TEST(BlockPoolTest, NegativeCountRejected) {
  BlockPool pool(4, 4);
  std::vector<BlockId> out;
  EXPECT_TRUE(pool.AllocateMany(-1, &out).IsInvalidArgument());
}

TEST(BlockPoolTest, PeakAndTotalsTracked) {
  BlockPool pool(4, 4);
  std::vector<BlockId> out;
  ASSERT_TRUE(pool.AllocateMany(3, &out).ok());
  pool.FreeMany(out);
  EXPECT_EQ(pool.peak_allocated(), 3);
  EXPECT_EQ(pool.total_allocations(), 3);
  EXPECT_EQ(pool.num_free(), 4);
  auto b = pool.Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pool.peak_allocated(), 3);  // peak unchanged
  EXPECT_EQ(pool.total_allocations(), 4);
}

TEST(BlockPoolTest, UtilizationFraction) {
  BlockPool pool(4, 4);
  std::vector<BlockId> out;
  ASSERT_TRUE(pool.AllocateMany(2, &out).ok());
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.5);
}

TEST(BlockPoolTest, ZeroBlockPool) {
  BlockPool pool(0, 4);
  EXPECT_EQ(pool.num_free(), 0);
  EXPECT_TRUE(pool.Allocate().status().IsOutOfMemory());
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.0);
}

// Stress: interleaved allocate/free cycles keep the free-list consistent.
TEST(BlockPoolTest, StressInterleavedAllocFree) {
  BlockPool pool(64, 8);
  std::vector<BlockId> held;
  uint64_t x = 88172645463325252ULL;  // xorshift
  auto next = [&]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int step = 0; step < 10000; ++step) {
    if (held.empty() || (next() % 2 == 0 && pool.num_free() > 0)) {
      auto b = pool.Allocate();
      ASSERT_TRUE(b.ok());
      held.push_back(*b);
    } else {
      const size_t i = next() % held.size();
      ASSERT_TRUE(pool.Free(held[i]).ok());
      held.erase(held.begin() + i);
    }
    ASSERT_EQ(pool.num_allocated(), static_cast<int32_t>(held.size()));
  }
}

// Property: every id the pool hands out is below its high-water mark, so
// the ids ever used are exactly [0, peak_allocated()). The engine's arena
// commits a block's pages on first write; this is what keeps its resident
// set at the pool's peak. Seeded random mixes of every mutating call, with
// a refcount model checked after each one.
TEST(BlockPoolTest, HandedOutIdsStayBelowPeakAllocated) {
  constexpr int32_t kBlocks = 48;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    BlockPool pool(kBlocks, 4);
    std::vector<int32_t> refs(kBlocks, 0);  // model: owners per block
    std::vector<BlockId> held;              // one entry per owned reference
    std::set<BlockId> ever;
    auto received = [&](const std::vector<BlockId>& ids) {
      for (BlockId id : ids) {
        ASSERT_EQ(refs[id], 0);
        refs[id] = 1;
        held.push_back(id);
        ever.insert(id);
      }
    };
    auto take_held = [&](size_t n) {  // removes n random references
      std::vector<BlockId> out;
      for (size_t i = 0; i < n && !held.empty(); ++i) {
        const size_t j = rng.UniformInt(0, held.size() - 1);
        out.push_back(held[j]);
        held[j] = held.back();
        held.pop_back();
      }
      return out;
    };
    for (int step = 0; step < 2000; ++step) {
      const int32_t n = static_cast<int32_t>(rng.UniformInt(1, 6));
      switch (rng.UniformInt(0, 5)) {
        case 0: {
          auto b = pool.Allocate();
          if (b.ok()) received({*b});
          break;
        }
        case 1:
        case 5: {  // twice as likely, so runs reach a full pool
          std::vector<BlockId> out;
          const int32_t free_before = pool.num_free();
          const bool import = rng.UniformInt(0, 1) == 1;
          const Status s = import ? pool.ImportBlocks(n, &out)
                                  : pool.AllocateMany(n, &out);
          if (s.ok()) {
            received(out);
          } else {
            EXPECT_TRUE(s.IsOutOfMemory());
            EXPECT_TRUE(out.empty());
            EXPECT_EQ(pool.num_free(), free_before);  // all-or-nothing
          }
          break;
        }
        case 2:
          for (BlockId id : take_held(1)) {
            ASSERT_TRUE(pool.Free(id).ok());
            --refs[id];
          }
          break;
        case 3:
          if (!held.empty()) {
            const BlockId id = held[rng.UniformInt(0, held.size() - 1)];
            ASSERT_TRUE(pool.Ref(id).ok());
            ++refs[id];
            held.push_back(id);
          }
          break;
        case 4: {
          const std::vector<BlockId> ids = take_held(n);
          int32_t resident = 0;
          for (BlockId id : ids) resident += refs[id]-- > 1 ? 1 : 0;
          auto r = pool.ExportBlocks(ids);
          ASSERT_TRUE(r.ok());
          EXPECT_EQ(*r, resident);
          break;
        }
      }
      for (BlockId id : ever) ASSERT_LT(id, pool.peak_allocated());
      int32_t allocated = 0;
      for (BlockId id = 0; id < kBlocks; ++id) {
        ASSERT_EQ(pool.RefCount(id), refs[id]) << "block " << id;
        allocated += refs[id] > 0 ? 1 : 0;
      }
      ASSERT_EQ(pool.num_allocated(), allocated);
    }
    // Below the peak, nothing was skipped either: the ids used are exactly
    // [0, peak).
    EXPECT_EQ(static_cast<int32_t>(ever.size()), pool.peak_allocated());
  }
}

}  // namespace
}  // namespace aptserve
