#include "snapshot/table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "util/hash.h"

namespace spider {
namespace {

RawRecord make_record(const std::string& path, std::int64_t t,
                      bool dir = false) {
  RawRecord rec;
  rec.path = path;
  rec.atime = t + 10;
  rec.ctime = t;
  rec.mtime = t;
  rec.uid = 1000;
  rec.gid = 2000;
  rec.mode = dir ? (kModeDirectory | 0775) : (kModeRegular | 0664);
  rec.inode = 42;
  if (!dir) rec.osts = {3, 7, 11, 15};
  return rec;
}

TEST(SnapshotTableTest, AddAndAccess) {
  SnapshotTable t;
  EXPECT_TRUE(t.empty());
  const auto r0 = t.add(make_record("/lustre/atlas2/p1/u1", 100, true));
  const auto r1 = t.add(make_record("/lustre/atlas2/p1/u1/a.dat", 200));
  EXPECT_EQ(r0, 0u);
  EXPECT_EQ(r1, 1u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.path(1), "/lustre/atlas2/p1/u1/a.dat");
  EXPECT_EQ(t.atime(1), 210);
  EXPECT_EQ(t.mtime(1), 200);
  EXPECT_EQ(t.uid(1), 1000u);
  EXPECT_TRUE(t.is_dir(0));
  EXPECT_FALSE(t.is_dir(1));
  EXPECT_EQ(t.depth(0), 4);
  EXPECT_EQ(t.depth(1), 5);
  EXPECT_EQ(t.file_count(), 1u);
  EXPECT_EQ(t.dir_count(), 1u);
}

TEST(SnapshotTableTest, OstListsAreCsrPacked) {
  SnapshotTable t;
  t.add(make_record("/lustre/atlas2/p/u/dir", 1, true));  // empty list
  t.add(make_record("/lustre/atlas2/p/u/f1", 2));
  RawRecord wide = make_record("/lustre/atlas2/p/u/f2", 3);
  wide.osts.assign(1008, 0);
  for (std::uint32_t i = 0; i < 1008; ++i) wide.osts[i] = i;
  t.add(wide);

  EXPECT_EQ(t.stripe_count(0), 0u);
  EXPECT_EQ(t.stripe_count(1), 4u);
  EXPECT_EQ(t.stripe_count(2), 1008u);
  EXPECT_EQ(t.osts(1)[2], 11u);
  EXPECT_EQ(t.osts(2)[1007], 1007u);
}

TEST(SnapshotTableTest, PathHashMatchesHashPath) {
  SnapshotTable t;
  t.add(make_record("/lustre/atlas2/p/u/f", 5));
  EXPECT_EQ(t.path_hash(0), hash_path("/lustre/atlas2/p/u/f"));
  // Every length hash_path branches on: empty, under 4, 4-16, the 16-byte
  // steps and the 48-byte stripes.
  std::string path;
  for (int n = 0; n <= 200; ++n) {
    t.add(make_record(path, n));
    path += static_cast<char>('a' + n % 26);
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(t.path_hash(i), hash_path(t.path(i))) << i;
  }
}

TEST(SnapshotTableTest, RowRoundTrip) {
  SnapshotTable t;
  const RawRecord original = make_record("/lustre/atlas2/p/u/f.h5", 777);
  t.add(original);
  const RawRecord copy = t.row(0);
  EXPECT_EQ(copy.path, original.path);
  EXPECT_EQ(copy.atime, original.atime);
  EXPECT_EQ(copy.ctime, original.ctime);
  EXPECT_EQ(copy.mtime, original.mtime);
  EXPECT_EQ(copy.uid, original.uid);
  EXPECT_EQ(copy.gid, original.gid);
  EXPECT_EQ(copy.mode, original.mode);
  EXPECT_EQ(copy.inode, original.inode);
  EXPECT_EQ(copy.osts, original.osts);
}

TEST(SnapshotTableTest, ManyRowsKeepStableViews) {
  SnapshotTable t;
  std::vector<std::string> paths;
  for (int i = 0; i < 5000; ++i) {
    paths.push_back("/lustre/atlas2/proj/u/file_" + std::to_string(i) +
                    ".dat");
    t.add(make_record(paths.back(), i));
  }
  // Arena growth must not invalidate earlier views.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(t.path(static_cast<std::size_t>(i)), paths[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(t.memory_bytes(), 0u);
}

TEST(SnapshotTableTest, AppendTableSplicesInOrder) {
  SnapshotTable dest;
  dest.add(make_record("/lustre/atlas2/p1/u1", 100, true));
  dest.add(make_record("/lustre/atlas2/p1/u1/a.dat", 200));

  SnapshotTable tail;
  tail.add(make_record("/lustre/atlas2/p2/u2/b.dat", 300));
  RawRecord wide = make_record("/lustre/atlas2/p2/u2/c.dat", 400);
  wide.osts = {1, 2, 3, 4, 5, 6, 7};
  tail.add(wide);

  dest.append_table(std::move(tail));
  ASSERT_EQ(dest.size(), 4u);
  EXPECT_EQ(dest.path(0), "/lustre/atlas2/p1/u1");
  EXPECT_EQ(dest.path(2), "/lustre/atlas2/p2/u2/b.dat");
  EXPECT_EQ(dest.path(3), "/lustre/atlas2/p2/u2/c.dat");
  EXPECT_EQ(dest.path_hash(3), hash_path("/lustre/atlas2/p2/u2/c.dat"));
  EXPECT_EQ(dest.depth(3), 5);
  EXPECT_EQ(dest.mtime(2), 300);
  // CSR OST lists rebased onto the destination's offsets.
  EXPECT_EQ(dest.stripe_count(1), 4u);
  EXPECT_EQ(dest.stripe_count(2), 4u);
  EXPECT_EQ(dest.stripe_count(3), 7u);
  EXPECT_EQ(dest.osts(3)[6], 7u);
  EXPECT_EQ(dest.file_count(), 3u);
  EXPECT_EQ(dest.dir_count(), 1u);
}

TEST(SnapshotTableTest, AppendTableIntoEmptyAndFromEmpty) {
  SnapshotTable dest;
  SnapshotTable src;
  src.add(make_record("/lustre/atlas2/p/u/x.dat", 50));
  dest.append_table(std::move(src));  // whole-table move path
  ASSERT_EQ(dest.size(), 1u);
  EXPECT_EQ(dest.path(0), "/lustre/atlas2/p/u/x.dat");
  EXPECT_EQ(dest.file_count(), 1u);

  SnapshotTable empty;
  dest.append_table(std::move(empty));  // no-op path
  EXPECT_EQ(dest.size(), 1u);

  // The spliced-from table is reusable afterwards.
  SnapshotTable more;
  more.add(make_record("/lustre/atlas2/p/u/y.dat", 60));
  dest.append_table(std::move(more));
  EXPECT_EQ(more.size(), 0u);
  more.add(make_record("/lustre/atlas2/p/u/z.dat", 70));
  EXPECT_EQ(more.size(), 1u);
  EXPECT_EQ(dest.size(), 2u);
  EXPECT_EQ(dest.path(1), "/lustre/atlas2/p/u/y.dat");
}

TEST(SnapshotTableTest, ColumnSpansMatchRowAccessors) {
  SnapshotTable t;
  for (int i = 0; i < 10; ++i) {
    t.add(make_record("/lustre/atlas2/p/u/f" + std::to_string(i), i * 100));
  }
  const auto mtimes = t.mtimes();
  ASSERT_EQ(mtimes.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(mtimes[i], t.mtime(i));
  }
}

TEST(SnapshotTableTest, CloneCopiesEveryColumnAndOutlivesItsSource) {
  auto source = std::make_unique<SnapshotTable>();
  source->add(make_record("/lustre/atlas2/p1", 50, true));
  for (int i = 0; i < 300; ++i) {
    RawRecord rec = make_record(
        "/lustre/atlas2/p1/u" + std::to_string(i % 7) + "/f" +
            std::to_string(i) + std::string(static_cast<std::size_t>(i), 'x'),
        1000 + i * 3, i % 11 == 0);
    rec.uid = 1000 + static_cast<std::uint32_t>(i % 5);
    rec.gid = 2000 + static_cast<std::uint32_t>(i % 3);
    rec.inode = 7'000'000 + static_cast<std::uint64_t>(i);
    rec.osts.resize(static_cast<std::size_t>(i % 4));
    source->add(rec);
  }
  source->add(make_record("", 60));  // an empty path

  std::vector<RawRecord> rows;
  for (std::size_t i = 0; i < source->size(); ++i) {
    rows.push_back(source->row(i));
  }
  const std::vector<std::uint64_t> hashes(source->path_hashes().begin(),
                                          source->path_hashes().end());
  const std::vector<std::uint16_t> depths(source->depths().begin(),
                                          source->depths().end());
  const std::size_t files = source->file_count();

  SnapshotTable copy = source->clone();
  source.reset();  // the copy owns its own bytes

  ASSERT_EQ(copy.size(), rows.size());
  EXPECT_EQ(copy.file_count(), files);
  EXPECT_EQ(copy.dir_count(), rows.size() - files);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(copy.path(i), rows[i].path) << i;
    EXPECT_EQ(copy.path_hash(i), hashes[i]) << i;
    EXPECT_EQ(copy.path_hash(i), hash_path(rows[i].path)) << i;
    EXPECT_EQ(copy.depth(i), depths[i]) << i;
    EXPECT_EQ(copy.atime(i), rows[i].atime) << i;
    EXPECT_EQ(copy.ctime(i), rows[i].ctime) << i;
    EXPECT_EQ(copy.mtime(i), rows[i].mtime) << i;
    EXPECT_EQ(copy.uid(i), rows[i].uid) << i;
    EXPECT_EQ(copy.gid(i), rows[i].gid) << i;
    EXPECT_EQ(copy.mode(i), rows[i].mode) << i;
    EXPECT_EQ(copy.inode(i), rows[i].inode) << i;
    const auto osts = copy.osts(i);
    EXPECT_EQ(std::vector<std::uint32_t>(osts.begin(), osts.end()),
              rows[i].osts)
        << i;
  }

  // The copy keeps growing like any table, without disturbing its rows.
  const std::uint32_t added =
      copy.add(make_record("/lustre/atlas2/p2/u/new.dat", 900));
  EXPECT_EQ(added, rows.size());
  EXPECT_EQ(copy.path(added), "/lustre/atlas2/p2/u/new.dat");
  EXPECT_EQ(copy.path_hash(added), hash_path("/lustre/atlas2/p2/u/new.dat"));
  EXPECT_EQ(copy.osts(added).size(), 4u);
  EXPECT_EQ(copy.file_count(), files + 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(copy.path(i), rows[i].path) << i;
  }

  const SnapshotTable empty_copy = SnapshotTable().clone();
  EXPECT_TRUE(empty_copy.empty());
  EXPECT_EQ(empty_copy.file_count(), 0u);
}

}  // namespace
}  // namespace spider
