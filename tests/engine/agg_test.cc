// Tests for the aggregation helpers and the set form of the flat table
// (FlatSet, engine/flat_map.h).
#include "engine/agg.h"

#include <gtest/gtest.h>

#include <set>

#include "engine/flat_map.h"
#include "util/prng.h"

namespace spider {
namespace {

TEST(U64SetTest, InsertAndContains) {
  FlatSet<IdentityKeyMix> set;
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.contains(42));
  EXPECT_FALSE(set.contains(43));
  EXPECT_EQ(set.size(), 1u);
}

TEST(U64SetTest, ZeroKeyIsSupported) {
  FlatSet<IdentityKeyMix> set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

TEST(U64SetTest, GrowthPreservesMembership) {
  FlatSet<FingerprintKeyMix> set(4);  // force many growths
  Rng rng(5);
  std::set<std::uint64_t> reference;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = rng.next_u64() % 30000;  // force duplicates
    EXPECT_EQ(set.insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const std::uint64_t key : reference) {
    ASSERT_TRUE(set.contains(key));
  }
}

TEST(U64SetTest, DuplicateStreamNeverGrows) {
  // Probe-before-grow: inserting the same keys forever adds no occupancy,
  // so the table must keep its original capacity.
  FlatSet<IdentityKeyMix> set(8);
  for (std::uint64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.insert(k));
  const std::size_t capacity = set.capacity();
  for (int round = 0; round < 1000; ++round) {
    for (std::uint64_t k = 1; k <= 8; ++k) EXPECT_FALSE(set.insert(k));
  }
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_EQ(set.size(), 8u);
}

TEST(U64SetTest, CheckpointImageIsTheKeyArray) {
  // The set form stores 8 bytes per slot and no value array: its image is
  // the length-prefixed key array, the size and the key-0 flag. A restored
  // set answers every probe like the original.
  FlatSet<FingerprintKeyMix> set;
  for (std::uint64_t key = 0; key < 1000; ++key) set.insert(key << 32);
  std::vector<std::uint8_t> blob;
  StateWriter w(&blob);
  set.save_state(w);
  EXPECT_EQ(blob.size(), 8 + 8 * set.capacity() + 8 + 1);

  StateReader r(blob);
  FlatSet<FingerprintKeyMix> restored;
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_EQ(restored.size(), set.size());
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ASSERT_TRUE(restored.contains(key << 32));
  }
  EXPECT_FALSE(restored.contains(1));
  EXPECT_FALSE(restored.insert(999ull << 32));
}

TEST(TopKTest, OrderAndTieBreak) {
  CountMap<std::string> counts{
      {"b", 5}, {"a", 5}, {"c", 9}, {"d", 1}, {"e", 3}};
  const auto top = top_k(counts, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "c");
  EXPECT_EQ(top[1].first, "a");  // tie with b broken by key
  EXPECT_EQ(top[2].first, "b");
}

TEST(TopKTest, KLargerThanMap) {
  CountMap<int> counts{{1, 1}};
  EXPECT_EQ(top_k(counts, 10).size(), 1u);
  EXPECT_TRUE(top_k(CountMap<int>{}, 3).empty());
}

}  // namespace
}  // namespace spider
