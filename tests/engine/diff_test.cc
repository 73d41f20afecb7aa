#include "engine/diff.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/hash_index.h"
#include "reference_diff.h"
#include "util/hash.h"
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
  rec.osts = {1, 2, 3, 4};
  return rec;
}

RawRecord dir_record(const std::string& path) {
  RawRecord rec;
  rec.path = path;
  rec.mode = kModeDirectory | 0775;
  return rec;
}

/// Indexes the rows of `t` that `keep` selects, by position = row, through
/// PathIndex::insert with a path compare.
template <typename Keep>
PathIndex index_rows(const SnapshotTable& t, Keep keep) {
  PathIndex index(t.size());
  for (std::size_t row = 0; row < t.size(); ++row) {
    if (!keep(row)) continue;
    const std::string_view path = t.path(row);
    index.insert(static_cast<std::uint32_t>(row), t.path_hash(row),
                 [&t, path](std::uint32_t other) {
                   return t.path(other) == path;
                 });
  }
  return index;
}

/// The row find() confirms for `path`, or kNotFound.
std::uint32_t find_path(const PathIndex& index, const SnapshotTable& t,
                        std::string_view path) {
  return index.find(hash_path(path), [&t, path](std::uint32_t row) {
    return t.path(row) == path;
  });
}

TEST(PathIndexTest, LookupHitsAndMisses) {
  SnapshotTable t;
  t.add(file_record("/lustre/atlas2/p/u/a", 1, 1, 1));
  t.add(dir_record("/lustre/atlas2/p/u"));
  t.add(file_record("/lustre/atlas2/p/u/b", 2, 2, 2));
  t.add(file_record("/lustre/atlas2/p/u/a", 3, 3, 3));  // repeats row 0

  const PathIndex all = index_rows(t, [](std::size_t) { return true; });
  EXPECT_EQ(all.size(), 3u);  // the repeated path keeps its first row
  EXPECT_EQ(find_path(all, t, "/lustre/atlas2/p/u/a"), 0u);
  EXPECT_EQ(find_path(all, t, "/lustre/atlas2/p/u"), 1u);
  EXPECT_EQ(find_path(all, t, "/lustre/atlas2/p/u/b"), 2u);
  EXPECT_EQ(find_path(all, t, "/nope"), PathIndex::kNotFound);

  const PathIndex files =
      index_rows(t, [&t](std::size_t row) { return !t.is_dir(row); });
  EXPECT_EQ(files.size(), 2u);
  EXPECT_EQ(find_path(files, t, "/lustre/atlas2/p/u"), PathIndex::kNotFound);
}

TEST(PathIndexTest, EmptyTable) {
  SnapshotTable t;
  const PathIndex index = index_rows(t, [](std::size_t) { return true; });
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.find(123, [](std::uint32_t) { return true; }),
            PathIndex::kNotFound);
}

TEST(PathIndexTest, ManyRows) {
  SnapshotTable t;
  for (int i = 0; i < 20000; ++i) {
    t.add(file_record("/lustre/atlas2/p/u/f" + std::to_string(i), i, i, i));
  }
  const PathIndex index = index_rows(t, [](std::size_t) { return true; });
  EXPECT_EQ(index.size(), t.size());
  for (int i = 0; i < 20000; i += 97) {
    const std::string path = "/lustre/atlas2/p/u/f" + std::to_string(i);
    ASSERT_EQ(find_path(index, t, path), static_cast<std::uint32_t>(i));
    ASSERT_EQ(find_path(index, t, path + "x"), PathIndex::kNotFound);
  }
}

class DiffTest : public ::testing::Test {
 protected:
  SnapshotTable prev_, cur_;
};

TEST_F(DiffTest, ClassifiesAllCategories) {
  // prev: untouched, readonly, updated, deleted + a directory
  prev_.add(file_record("/lustre/atlas2/p/u/untouched", 10, 10, 10));
  prev_.add(file_record("/lustre/atlas2/p/u/readonly", 10, 10, 10));
  prev_.add(file_record("/lustre/atlas2/p/u/updated", 10, 10, 10));
  prev_.add(file_record("/lustre/atlas2/p/u/deleted", 10, 10, 10));
  prev_.add(dir_record("/lustre/atlas2/p/u"));

  cur_.add(file_record("/lustre/atlas2/p/u/untouched", 10, 10, 10));
  cur_.add(file_record("/lustre/atlas2/p/u/readonly", 99, 10, 10));
  cur_.add(file_record("/lustre/atlas2/p/u/updated", 99, 99, 99));
  cur_.add(file_record("/lustre/atlas2/p/u/new", 50, 50, 50));
  cur_.add(dir_record("/lustre/atlas2/p/u"));

  const DiffResult diff = diff_snapshots_partitioned(prev_, cur_);
  ASSERT_EQ(diff.untouched_rows.size(), 1u);
  ASSERT_EQ(diff.readonly_rows.size(), 1u);
  ASSERT_EQ(diff.updated_rows.size(), 1u);
  ASSERT_EQ(diff.new_rows.size(), 1u);
  ASSERT_EQ(diff.deleted_rows.size(), 1u);
  EXPECT_EQ(cur_.path(diff.untouched_rows[0]), "/lustre/atlas2/p/u/untouched");
  EXPECT_EQ(cur_.path(diff.readonly_rows[0]), "/lustre/atlas2/p/u/readonly");
  EXPECT_EQ(cur_.path(diff.updated_rows[0]), "/lustre/atlas2/p/u/updated");
  EXPECT_EQ(cur_.path(diff.new_rows[0]), "/lustre/atlas2/p/u/new");
  EXPECT_EQ(prev_.path(diff.deleted_rows[0]), "/lustre/atlas2/p/u/deleted");

  EXPECT_EQ(diff.prev_files, 4u);
  EXPECT_EQ(diff.cur_files, 4u);
  EXPECT_DOUBLE_EQ(diff.new_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(diff.deleted_fraction(), 0.25);
}

TEST_F(DiffTest, MtimeOnlyChangeIsUpdated) {
  prev_.add(file_record("/lustre/atlas2/p/u/f", 10, 10, 10));
  cur_.add(file_record("/lustre/atlas2/p/u/f", 10, 10, 99));
  const DiffResult diff = diff_snapshots_partitioned(prev_, cur_);
  EXPECT_EQ(diff.updated_rows.size(), 1u);
  EXPECT_TRUE(diff.readonly_rows.empty());
}

TEST_F(DiffTest, CtimeOnlyChangeIsUpdated) {
  prev_.add(file_record("/lustre/atlas2/p/u/f", 10, 10, 10));
  cur_.add(file_record("/lustre/atlas2/p/u/f", 10, 99, 10));
  const DiffResult diff = diff_snapshots_partitioned(prev_, cur_);
  EXPECT_EQ(diff.updated_rows.size(), 1u);
}

TEST_F(DiffTest, DirectoriesAreIgnored) {
  prev_.add(dir_record("/lustre/atlas2/p/gone"));
  cur_.add(dir_record("/lustre/atlas2/p/fresh"));
  const DiffResult diff = diff_snapshots_partitioned(prev_, cur_);
  EXPECT_TRUE(diff.new_rows.empty());
  EXPECT_TRUE(diff.deleted_rows.empty());
  EXPECT_EQ(diff.prev_files, 0u);
  EXPECT_EQ(diff.cur_files, 0u);
}

TEST_F(DiffTest, EmptySnapshots) {
  const DiffResult diff = diff_snapshots_partitioned(prev_, cur_);
  EXPECT_EQ(diff.new_rows.size() + diff.deleted_rows.size() +
                diff.readonly_rows.size() + diff.updated_rows.size() +
                diff.untouched_rows.size(),
            0u);
  EXPECT_DOUBLE_EQ(diff.new_fraction(), 0.0);
}

// Property: every current-week file lands in exactly one class, every
// previous-week file is matched or deleted, and outputs are sorted.
class DiffPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffPropertyTest, PartitionInvariant) {
  Rng rng(GetParam());
  SnapshotTable prev, cur;
  for (int i = 0; i < 3000; ++i) {
    const std::string path = "/lustre/atlas2/p/u/f" + std::to_string(i);
    const bool in_prev = rng.chance(0.8);
    const bool in_cur = rng.chance(0.8);
    const std::int64_t base = 1000 + i;
    if (in_prev) prev.add(file_record(path, base, base, base));
    if (in_cur) {
      const int mutation = static_cast<int>(rng.uniform_u64(4));
      std::int64_t a = base, c = base, m = base;
      if (mutation == 1) a += 5;                       // readonly
      if (mutation == 2) { a += 5; c += 5; m += 5; }   // updated
      if (mutation == 3) { c += 5; }                   // updated (ctime)
      cur.add(file_record(path, a, c, m));
    }
  }
  const DiffResult diff = diff_snapshots_partitioned(prev, cur);
  expect_same_diff(diff, reference_diff(prev, cur));
  EXPECT_EQ(diff.new_rows.size() + diff.readonly_rows.size() +
                diff.updated_rows.size() + diff.untouched_rows.size(),
            diff.cur_files);
  // Matched prev files = prev minus deleted.
  EXPECT_EQ(diff.readonly_rows.size() + diff.updated_rows.size() +
                diff.untouched_rows.size() + diff.deleted_rows.size(),
            diff.prev_files);
  for (const auto* rows :
       {&diff.new_rows, &diff.readonly_rows, &diff.updated_rows,
        &diff.untouched_rows, &diff.deleted_rows}) {
    EXPECT_TRUE(std::is_sorted(rows->begin(), rows->end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace spider
