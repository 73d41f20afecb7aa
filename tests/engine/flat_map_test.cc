// Property tests for the flat aggregation layer (DESIGN.md §12): FlatMap,
// also used as a count map, against a std::unordered_map reference on
// randomized key streams, the string dictionary (including forced
// full-hash collisions), and PartitionedU64Set.
#include "engine/flat_map.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/agg.h"
#include "engine/dict.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

// The key policy has no default: a table declared without one does not
// compile.
template <template <typename...> class Table, typename... Args>
concept Declarable = requires { typename Table<Args...>; };
static_assert(Declarable<FlatSet, IdentityKeyMix>);
static_assert(!Declarable<FlatSet>);
static_assert(Declarable<FlatMap, int, FingerprintKeyMix>);
static_assert(!Declarable<FlatMap, int>);

template <typename KeyMix>
using CountTable = FlatMap<std::uint64_t, KeyMix>;

template <typename KeyMix>
void expect_matches_reference(
    const CountTable<KeyMix>& map,
    const std::unordered_map<std::uint64_t, std::uint64_t>& reference) {
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    const std::uint64_t* found = map.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, count) << "key " << key;
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint64_t count) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "phantom key " << key;
    EXPECT_EQ(count, it->second);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatCountMapTest, RandomStreamMatchesUnorderedMap) {
  Rng rng(11);
  CountTable<IdentityKeyMix> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t key = rng.next_u64() % 50000;  // duplicates + key 0
    const std::uint64_t weight = 1 + rng.next_u64() % 3;
    map.slot(key) += weight;
    reference[key] += weight;
  }
  expect_matches_reference(map, reference);
}

TEST(FlatCountMapTest, FingerprintMixHandlesDenseKeys) {
  // Sequential ids are the worst case for identity hashing; the
  // fingerprint policy must stay correct (and the table correct under
  // growth from the minimum capacity).
  CountTable<FingerprintKeyMix> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ++map.slot(k);
    reference[k] += 1;
  }
  expect_matches_reference(map, reference);
}

TEST(FlatCountMapTest, AdversarialCollisionsProbeCorrectly) {
  // Keys crafted to land on the same initial slot under identity mixing:
  // equal low bits, distinct high bits. Linear probing must keep them all.
  CountTable<IdentityKeyMix> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    const std::uint64_t key = (i << 40) | 0x5;  // same low bits for all
    for (std::uint64_t r = 0; r < i % 7 + 1; ++r) {
      ++map.slot(key);
      reference[key] += 1;
    }
  }
  expect_matches_reference(map, reference);
}

TEST(FlatCountMapTest, EmptyKeySentinelIsARealKey) {
  CountTable<IdentityKeyMix> map;
  EXPECT_FALSE(map.contains(0));
  map.slot(0) += 7;
  map.slot(0) += 2;
  ASSERT_TRUE(map.contains(0));
  EXPECT_EQ(*map.find(0), 9u);
  EXPECT_EQ(map.size(), 1u);
  // for_each reports the reserved key exactly once, last.
  std::vector<std::uint64_t> keys;
  ++map.slot(3);
  map.for_each([&](std::uint64_t k, std::uint64_t) { keys.push_back(k); });
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys.back(), 0u);
}

TEST(FlatCountMapTest, DuplicateHeavyStreamNeverGrows) {
  CountTable<IdentityKeyMix> map(8);
  for (std::uint64_t k = 1; k <= 8; ++k) ++map.slot(k);
  const std::size_t capacity = map.capacity();
  for (int round = 0; round < 1000; ++round) {
    for (std::uint64_t k = 1; k <= 8; ++k) ++map.slot(k);
  }
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 8u);
  ASSERT_TRUE(map.contains(5));
  EXPECT_EQ(*map.find(5), 1001u);
}

TEST(FlatMapTest, FindAndGrowthPreserveValues) {
  FlatMap<std::string, FingerprintKeyMix> map;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    map.slot(k) = "v" + std::to_string(k);
  }
  EXPECT_EQ(map.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const std::string* v = map.find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "v" + std::to_string(k));
  }
  EXPECT_EQ(map.find(999999), nullptr);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), nullptr);
}

TEST(StringDictTest, InternAssignsDenseFirstSeenIds) {
  StringDict dict;
  EXPECT_EQ(dict.intern("h5"), 0u);
  EXPECT_EQ(dict.intern("dat"), 1u);
  EXPECT_EQ(dict.intern("h5"), 0u);  // stable on re-intern
  EXPECT_EQ(dict.intern(""), 2u);    // empty string is a real key
  EXPECT_EQ(dict.intern(""), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.name(1), "dat");
  EXPECT_EQ(dict.find("dat"), 1);
  EXPECT_EQ(dict.find("absent"), -1);
}

TEST(StringDictTest, RandomStreamMatchesReference) {
  Rng rng(23);
  StringDict dict;
  std::unordered_map<std::string, std::uint32_t> reference;
  for (int i = 0; i < 100000; ++i) {
    const std::string s = "ext" + std::to_string(rng.next_u64() % 5000);
    const std::uint32_t id = dict.intern(s);
    const auto [it, fresh] = reference.emplace(s, id);
    EXPECT_EQ(it->second, id) << s;
    if (!fresh) EXPECT_LT(id, dict.size());
  }
  EXPECT_EQ(dict.size(), reference.size());
  for (const auto& [s, id] : reference) EXPECT_EQ(dict.name(id), s);
}

TEST(StringDictTest, FullHashCollisionFallsBackToBytes) {
  // Force distinct strings through intern_hashed with the SAME 64-bit
  // hash: the byte comparison must keep them distinct, and re-interning
  // either must return its own id (never a false merge).
  StringDict dict;
  const std::uint64_t hash = 0xdeadbeefcafef00dULL;
  const std::uint32_t a = dict.intern_hashed(hash, "alpha");
  const std::uint32_t b = dict.intern_hashed(hash, "beta");
  const std::uint32_t c = dict.intern_hashed(hash, "gamma");
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(dict.intern_hashed(hash, "alpha"), a);
  EXPECT_EQ(dict.intern_hashed(hash, "beta"), b);
  EXPECT_EQ(dict.intern_hashed(hash, "gamma"), c);
  EXPECT_EQ(dict.size(), 3u);
  // Survives growth (rehash keeps the colliding trio apart).
  for (int i = 0; i < 1000; ++i) dict.intern("grow" + std::to_string(i));
  EXPECT_EQ(dict.intern_hashed(hash, "beta"), b);
}

TEST(PartitionedU64SetTest, UnionMatchesReference) {
  Rng rng(47);
  constexpr std::size_t kSpans = 24;
  std::vector<std::vector<std::uint64_t>> shards(kSpans);
  std::unordered_set<std::uint64_t> reference;
  for (auto& shard : shards) {
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t key = mix64(rng.next_u64() % 60000);
      shard.push_back(key);  // heavy cross-span overlap
      reference.insert(key);
    }
  }
  std::vector<std::span<const std::uint64_t>> spans(shards.begin(),
                                                    shards.end());
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    PartitionedU64Set set;
    set.build(spans, &pool);
    EXPECT_EQ(set.size(), reference.size()) << "threads " << threads;
    for (const std::uint64_t key : reference) {
      ASSERT_TRUE(set.contains(key));
    }
    EXPECT_FALSE(set.contains(mix64(0x123456789abcULL)));
  }
}

TEST(PartitionedU64SetTest, EmptyBuildIsEmpty) {
  PartitionedU64Set set;
  set.build({});
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(7));
}

TEST(TopKDictTest, TiesBreakOnNameNotId) {
  StringDict dict;
  const std::uint32_t zz = dict.intern("zz");  // id 0, interned first
  const std::uint32_t aa = dict.intern("aa");  // id 1
  std::vector<std::uint64_t> counts(dict.size(), 0);
  counts[zz] = 5;
  counts[aa] = 5;
  const auto top = top_k_dict(counts, dict, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, aa);  // "aa" < "zz" despite the later id
  EXPECT_EQ(top[1].first, zz);
}

}  // namespace
}  // namespace spider
