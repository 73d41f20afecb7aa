// Join parity: the partitioned diff (DiffKernel run over the current
// week) must match the serial path-keyed reference (reference_diff.h) at
// every thread count, including the degenerate weeks (empty, all-new,
// all-deleted, dirs-only) and pairs engineered so many paths share the top
// 16 bits of their hash — the partition selector AND the shard
// fingerprint's neighborhood, the worst case for the partitioned probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/diff.h"
#include "reference_diff.h"
#include "snapshot/table.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

RawRecord file_record(const std::string& path, std::int64_t atime,
                      std::int64_t ctime, std::int64_t mtime) {
  RawRecord rec;
  rec.path = path;
  rec.atime = atime;
  rec.ctime = ctime;
  rec.mtime = mtime;
  rec.mode = kModeRegular | 0664;
  return rec;
}

RawRecord dir_record(const std::string& path, std::int64_t atime = 0) {
  RawRecord rec;
  rec.path = path;
  rec.atime = atime;
  rec.mode = kModeDirectory | 0775;
  return rec;
}

struct SnapshotPair {
  SnapshotTable prev;
  SnapshotTable cur;
};

/// A realistic pair: prev has files and directories; cur deletes ~10%,
/// touches ~15% (readonly), rewrites ~10% (updated), changes only the
/// ctime of ~5% (updated too: a chmod or chown), keeps the rest untouched,
/// and adds ~15% new paths.
SnapshotPair random_pair(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  SnapshotPair pair;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string path =
        "/lustre/atlas2/prj" + std::to_string(i % 37) + "/u/f" +
        std::to_string(i);
    if (i % 29 == 0) {
      // A mix of untouched (same timestamps) and changed (atime moved)
      // directories, so the directory diff sees both matched classes.
      const std::string dir = "/lustre/atlas2/prj" + std::to_string(i);
      pair.prev.add(dir_record(dir));
      pair.cur.add(dir_record(dir, i % 58 == 0 ? 0 : 99));
      continue;
    }
    const std::int64_t atime = 1000 + static_cast<std::int64_t>(
                                          rng.uniform_u64(1'000'000));
    const std::int64_t ctime = atime - static_cast<std::int64_t>(
                                           rng.uniform_u64(1000));
    const std::int64_t mtime = ctime;
    pair.prev.add(file_record(path, atime, ctime, mtime));
    const double roll = rng.uniform();
    if (roll < 0.10) continue;  // deleted
    if (roll < 0.25) {          // readonly: only atime moves
      pair.cur.add(file_record(path, atime + 777, ctime, mtime));
    } else if (roll < 0.35) {   // updated
      pair.cur.add(file_record(path, atime + 5, ctime + 5, mtime + 5));
    } else if (roll < 0.40) {   // updated: only ctime moves
      pair.cur.add(file_record(path, atime, ctime + 5, mtime));
    } else {                    // untouched
      pair.cur.add(file_record(path, atime, ctime, mtime));
    }
  }
  const std::size_t fresh = n / 7 + 1;
  for (std::size_t i = 0; i < fresh; ++i) {
    pair.cur.add(file_record("/lustre/atlas2/new/f" + std::to_string(i),
                             2'000'000, 2'000'000, 2'000'000));
  }
  return pair;
}

/// A pair whose file paths are drawn from hash buckets sharing the top 16
/// bits, so hundreds of keys land in the same radix partition and collide
/// on the fingerprint's high half. Found by scanning candidates; fully
/// deterministic.
SnapshotPair collision_pair(std::uint64_t seed) {
  std::unordered_map<std::uint16_t, std::vector<std::string>> buckets;
  std::vector<std::string> cluster;
  for (std::size_t i = 0; i < 150'000 && cluster.size() < 400; ++i) {
    std::string path = "/lustre/atlas2/c/f" + std::to_string(i);
    const auto top = static_cast<std::uint16_t>(hash_path(path) >> 48);
    auto& bucket = buckets[top];
    bucket.push_back(std::move(path));
    if (bucket.size() >= 3) {
      for (auto& p : bucket) cluster.push_back(std::move(p));
      bucket.clear();
    }
  }
  EXPECT_GE(cluster.size(), 100u) << "collision scan found too few clusters";

  Rng rng(seed);
  SnapshotPair pair;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const std::int64_t t = 5000 + static_cast<std::int64_t>(i);
    pair.prev.add(file_record(cluster[i], t, t, t));
    const double roll = rng.uniform();
    if (roll < 0.2) continue;                                   // deleted
    if (roll < 0.4) pair.cur.add(file_record(cluster[i], t + 9, t, t));
    else if (roll < 0.6) pair.cur.add(file_record(cluster[i], t, t + 9, t + 9));
    else pair.cur.add(file_record(cluster[i], t, t, t));
  }
  // The cluster is what this profile tests: each three consecutive rows
  // share the top 16 bits of the hash the table stores and the joins key
  // on.
  for (std::size_t i = 0; i + 2 < cluster.size(); i += 3) {
    const std::uint64_t top = pair.prev.path_hash(i) >> 48;
    EXPECT_EQ(pair.prev.path_hash(i + 1) >> 48, top) << cluster[i];
    EXPECT_EQ(pair.prev.path_hash(i + 2) >> 48, top) << cluster[i];
  }
  // A few filler rows so the tables aren't purely the pathological cluster.
  for (std::size_t i = 0; i < 500; ++i) {
    const std::string path = "/lustre/atlas2/fill/f" + std::to_string(i);
    pair.prev.add(file_record(path, 1, 1, 1));
    if (i % 3 != 0) pair.cur.add(file_record(path, 1, 1, 1));
  }
  for (std::size_t i = 0; i < 200; ++i) {
    pair.cur.add(file_record("/lustre/atlas2/cnew/f" + std::to_string(i),
                             7, 7, 7));
  }
  return pair;
}

SnapshotPair make_profile(const std::string& profile, std::uint64_t seed) {
  if (profile == "random") return random_pair(seed, 6000);
  if (profile == "collisions") return collision_pair(seed);
  if (profile == "both_empty") return {};
  SnapshotPair pair;
  if (profile == "all_new") {
    // prev holds only directories; every cur file is new.
    for (int i = 0; i < 50; ++i) {
      pair.prev.add(dir_record("/lustre/atlas2/d" + std::to_string(i)));
    }
    for (int i = 0; i < 3000; ++i) {
      pair.cur.add(file_record("/lustre/atlas2/n/f" + std::to_string(i),
                               i, i, i));
    }
    return pair;
  }
  if (profile == "all_deleted") {
    for (int i = 0; i < 3000; ++i) {
      pair.prev.add(file_record("/lustre/atlas2/g/f" + std::to_string(i),
                               i, i, i));
    }
    for (int i = 0; i < 50; ++i) {
      pair.cur.add(dir_record("/lustre/atlas2/d" + std::to_string(i)));
    }
    return pair;
  }
  if (profile == "dirs_only") {
    for (int i = 0; i < 200; ++i) {
      const std::string dir = "/lustre/atlas2/d" + std::to_string(i);
      pair.prev.add(dir_record(dir));
      pair.cur.add(dir_record(dir + "/sub"));
    }
    return pair;
  }
  ADD_FAILURE() << "unknown profile " << profile;
  return pair;
}

/// Semantic checks of the prev-row mapping: index-parallel lengths, path
/// agreement row by row (the real guarantee the incremental study leans
/// on), and class membership re-derived from the two tables' timestamps.
void expect_mapping_semantics(const SnapshotPair& pair,
                              const DiffResult& result,
                              const std::string& label) {
  ASSERT_TRUE(result.has_prev_rows) << label;
  ASSERT_EQ(result.readonly_prev_rows.size(), result.readonly_rows.size())
      << label;
  ASSERT_EQ(result.updated_prev_rows.size(), result.updated_rows.size())
      << label;
  ASSERT_EQ(result.untouched_prev_rows.size(), result.untouched_rows.size())
      << label;
  const SnapshotTable& prev = pair.prev;
  const SnapshotTable& cur = pair.cur;
  for (std::size_t i = 0; i < result.readonly_rows.size(); ++i) {
    const std::uint32_t c = result.readonly_rows[i];
    const std::uint32_t p = result.readonly_prev_rows[i];
    ASSERT_EQ(cur.path(c), prev.path(p)) << label;
    EXPECT_NE(cur.atime(c), prev.atime(p)) << label;
    EXPECT_EQ(cur.mtime(c), prev.mtime(p)) << label;
    EXPECT_EQ(cur.ctime(c), prev.ctime(p)) << label;
  }
  for (std::size_t i = 0; i < result.updated_rows.size(); ++i) {
    const std::uint32_t c = result.updated_rows[i];
    const std::uint32_t p = result.updated_prev_rows[i];
    ASSERT_EQ(cur.path(c), prev.path(p)) << label;
    EXPECT_TRUE(cur.mtime(c) != prev.mtime(p) ||
                cur.ctime(c) != prev.ctime(p))
        << label;
  }
  for (std::size_t i = 0; i < result.untouched_rows.size(); ++i) {
    const std::uint32_t c = result.untouched_rows[i];
    const std::uint32_t p = result.untouched_prev_rows[i];
    ASSERT_EQ(cur.path(c), prev.path(p)) << label;
    EXPECT_EQ(cur.atime(c), prev.atime(p)) << label;
    EXPECT_EQ(cur.mtime(c), prev.mtime(p)) << label;
    EXPECT_EQ(cur.ctime(c), prev.ctime(p)) << label;
  }
}

/// Semantic checks of the directory diff against a brute-force path-set
/// recomputation over both tables.
void expect_dir_semantics(const SnapshotPair& pair, const DiffResult& result,
                          const std::string& label) {
  ASSERT_TRUE(result.has_dir_diff) << label;
  const SnapshotTable& prev = pair.prev;
  const SnapshotTable& cur = pair.cur;
  std::unordered_map<std::string, std::uint32_t> prev_dirs;
  for (std::size_t row = 0; row < prev.size(); ++row) {
    if (prev.is_dir(row)) {
      prev_dirs.emplace(std::string(prev.path(row)),
                        static_cast<std::uint32_t>(row));
    }
  }
  std::vector<std::uint32_t> want_new, want_changed, want_changed_prev;
  std::unordered_map<std::string, std::uint32_t> matched;
  for (std::size_t row = 0; row < cur.size(); ++row) {
    if (!cur.is_dir(row)) continue;
    const auto it = prev_dirs.find(std::string(cur.path(row)));
    if (it == prev_dirs.end()) {
      want_new.push_back(static_cast<std::uint32_t>(row));
      continue;
    }
    matched.insert(*it);
    const std::uint32_t p = it->second;
    if (cur.atime(row) != prev.atime(p) || cur.mtime(row) != prev.mtime(p) ||
        cur.ctime(row) != prev.ctime(p)) {
      want_changed.push_back(static_cast<std::uint32_t>(row));
      want_changed_prev.push_back(p);
    }
  }
  std::vector<std::uint32_t> want_deleted;
  for (const auto& [path, row] : prev_dirs) {
    if (!matched.contains(path)) want_deleted.push_back(row);
  }
  std::sort(want_deleted.begin(), want_deleted.end());
  EXPECT_EQ(result.new_dir_rows, want_new) << label;
  EXPECT_EQ(result.changed_dir_rows, want_changed) << label;
  EXPECT_EQ(result.changed_dir_prev_rows, want_changed_prev) << label;
  EXPECT_EQ(result.deleted_dir_rows, want_deleted) << label;
}

class DiffParityTest : public testing::TestWithParam<const char*> {};

TEST_P(DiffParityTest, StrategiesAgreeAtEveryThreadCount) {
  const std::string profile = GetParam();
  for (const std::uint64_t seed : {11ull, 23ull}) {
    const SnapshotPair pair = make_profile(profile, seed);
    const DiffResult reference = reference_diff(pair.prev, pair.cur);

    for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
      ThreadPool pool(threads);
      const std::string label = profile + " seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
      expect_same_diff(diff_snapshots_partitioned(pair.prev, pair.cur, &pool),
                       reference, "partitioned " + label);
    }
  }
}

TEST_P(DiffParityTest, PrevRowMappingAndDirDiffAgree) {
  const std::string profile = GetParam();
  const DiffOptions options{.prev_rows = true, .dirs = true};
  for (const std::uint64_t seed : {11ull, 23ull}) {
    const SnapshotPair pair = make_profile(profile, seed);
    const DiffResult reference = reference_diff(pair.prev, pair.cur, options);
    const std::string base = profile + " seed=" + std::to_string(seed);
    expect_mapping_semantics(pair, reference, base + "/reference");
    expect_dir_semantics(pair, reference, base + "/reference");

    for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
      ThreadPool pool(threads);
      const std::string label = base + " threads=" + std::to_string(threads);
      expect_same_diff(diff_snapshots_partitioned(pair.prev, pair.cur, &pool,
                                                  nullptr, options),
                       reference, "partitioned " + label);
    }
  }

  // Default options must leave the optional outputs untouched.
  const SnapshotPair pair = make_profile(profile, 11);
  const DiffResult plain = diff_snapshots_partitioned(pair.prev, pair.cur);
  EXPECT_FALSE(plain.has_prev_rows) << profile;
  EXPECT_FALSE(plain.has_dir_diff) << profile;
  EXPECT_TRUE(plain.readonly_prev_rows.empty()) << profile;
  EXPECT_TRUE(plain.new_dir_rows.empty()) << profile;
  EXPECT_TRUE(plain.deleted_dir_rows.empty()) << profile;
}

INSTANTIATE_TEST_SUITE_P(Profiles, DiffParityTest,
                         testing::Values("random", "collisions", "both_empty",
                                         "all_new", "all_deleted",
                                         "dirs_only"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(DiffBreakdownTest, PhasesAreRecordedForEveryStrategy) {
  const SnapshotPair pair = random_pair(9, 2000);
  ThreadPool pool(2);
  DiffBreakdown breakdown;
  const DiffResult result =
      diff_snapshots_partitioned(pair.prev, pair.cur, &pool, &breakdown);
  EXPECT_GT(result.prev_files, 0u);
  // The build, the probe (the scan less the kernel's merge) and the sweep
  // (the merge) are each timed.
  EXPECT_GT(breakdown.build_s, 0.0);
  EXPECT_GT(breakdown.probe_s, 0.0);
  EXPECT_GT(breakdown.sweep_s, 0.0);
}

}  // namespace
}  // namespace spider
