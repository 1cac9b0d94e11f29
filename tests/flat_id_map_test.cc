// FlatIdMap against std::unordered_map under a seeded mix of inserts,
// overwrites, erases (the backward-shift path) and lookups, over both
// sequential ids and ids that share low bits.
#include "common/flat_id_map.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

namespace aptserve {
namespace {

TEST(FlatIdMapTest, BasicOperations) {
  FlatIdMap<int> m;
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Erase(7));
  m.Put(7, 70);
  m.Put(0, 1);
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 70);
  m.Put(7, 71);  // overwrite
  EXPECT_EQ(*m.Find(7), 71);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.Erase(7));
  EXPECT_FALSE(m.Contains(7));
  EXPECT_TRUE(m.Contains(0));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatIdMapTest, ConstLookupsSeeTheSameEntries) {
  FlatIdMap<int> m;
  const FlatIdMap<int>& view = m;
  EXPECT_EQ(view.Find(3), nullptr);
  EXPECT_FALSE(view.Contains(3));
  m.Put(3, 30);
  m.Put(3 + 4096, 31);  // same low bits: a probe run of two
  ASSERT_NE(view.Find(3), nullptr);
  EXPECT_EQ(*view.Find(3), 30);
  EXPECT_EQ(*view.Find(3 + 4096), 31);
  // Both overloads address the one stored value.
  EXPECT_EQ(view.Find(3), m.Find(3));
  *m.Find(3) = 32;
  EXPECT_EQ(*view.Find(3), 32);
  EXPECT_TRUE(m.Erase(3));
  EXPECT_FALSE(view.Contains(3));
  EXPECT_TRUE(view.Contains(3 + 4096));
}

void RunAgainstReference(int64_t stride, uint32_t seed) {
  FlatIdMap<int64_t> m;
  std::unordered_map<RequestId, int64_t> ref;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, 3000);
  std::uniform_int_distribution<int> op(0, 9);
  for (int64_t step = 0; step < 60000; ++step) {
    const RequestId id = key(rng) * stride;
    const int o = op(rng);
    if (o < 5) {
      m.Put(id, step);
      ref[id] = step;
    } else if (o < 8) {
      EXPECT_EQ(m.Erase(id), ref.erase(id) == 1);
    } else {
      const int64_t* v = m.Find(id);
      auto it = ref.find(id);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "id " << id;
      const FlatIdMap<int64_t>& view = m;
      ASSERT_EQ(view.Find(id), v);
      ASSERT_EQ(view.Contains(id), v != nullptr);
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second);
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const auto& [id, v] : ref) {
    ASSERT_NE(m.Find(id), nullptr);
    EXPECT_EQ(*m.Find(id), v);
  }
}

TEST(FlatIdMapTest, MatchesUnorderedMapOnSequentialIds) {
  RunAgainstReference(1, 1);
}

TEST(FlatIdMapTest, MatchesUnorderedMapOnIdsSharingLowBits) {
  RunAgainstReference(4096, 2);
}

}  // namespace
}  // namespace aptserve
