#include "snapshot/series.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "snapshot/scol.h"
#include "util/timeutil.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

Snapshot make_snapshot(int week, std::size_t rows) {
  Snapshot snap;
  snap.taken_at = epoch_from_civil({2015, 1, 5}) + week * kSecondsPerWeek;
  for (std::size_t i = 0; i < rows; ++i) {
    RawRecord rec;
    rec.path = "/lustre/atlas2/p/u/week" + std::to_string(week) + "_f" +
               std::to_string(i);
    rec.mtime = rec.ctime = rec.atime = snap.taken_at - 100;
    rec.inode = i;
    rec.osts = {1, 2, 3, 4};
    snap.table.add(rec);
  }
  return snap;
}

TEST(SnapshotSeriesTest, VisitInOrder) {
  SnapshotSeries series;
  for (int w = 0; w < 5; ++w) series.add(make_snapshot(w, 3));
  EXPECT_EQ(series.count(), 5u);
  std::vector<std::size_t> weeks;
  std::int64_t prev_time = 0;
  series.visit([&](std::size_t week, const Snapshot& snap) {
    weeks.push_back(week);
    EXPECT_GT(snap.taken_at, prev_time);
    prev_time = snap.taken_at;
  });
  EXPECT_EQ(weeks, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SnapshotSeriesTest, VisitIsRepeatable) {
  SnapshotSeries series;
  series.add(make_snapshot(0, 2));
  int visits = 0;
  series.visit([&](std::size_t, const Snapshot&) { ++visits; });
  series.visit([&](std::size_t, const Snapshot&) { ++visits; });
  EXPECT_EQ(visits, 2);
}

class DirectorySeriesTest : public ::testing::Test {
 protected:
  // ctest runs every case as its own process, concurrently under -j, so a
  // directory shared between cases would be deleted under another's feet.
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("spider_series_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_str() const { return dir_.string(); }
  fs::path dir_;
};

TEST_F(DirectorySeriesTest, SaveThenLoadRoundTrip) {
  SnapshotSeries series;
  for (int w = 0; w < 4; ++w) series.add(make_snapshot(w, 10 + w));

  ASSERT_TRUE(save_series(series, dir_str()).ok());

  DirectorySeries loaded;
  ASSERT_TRUE(loaded.open(dir_str()).ok());
  EXPECT_EQ(loaded.count(), 4u);

  std::size_t visited = 0;
  loaded.visit([&](std::size_t week, const Snapshot& snap) {
    EXPECT_EQ(snap.table.size(), 10 + week);
    EXPECT_EQ(snap.taken_at, series.at(week).taken_at);
    EXPECT_EQ(snap.table.path(0), series.at(week).table.path(0));
    ++visited;
  });
  EXPECT_EQ(visited, 4u);
}

TEST_F(DirectorySeriesTest, FilesSortedByDateNotName) {
  // Write out of order and with a distractor file.
  Snapshot later = make_snapshot(10, 1);
  Snapshot earlier = make_snapshot(2, 1);
  ASSERT_TRUE(write_scol_file(later.table,
                              (dir_ / ("snap_" + date_tag(later.taken_at) +
                                       ".scol")).string(),
                              ScolOptions{})
                  .ok());
  ASSERT_TRUE(write_scol_file(earlier.table,
                              (dir_ / ("snap_" + date_tag(earlier.taken_at) +
                                       ".scol")).string(),
                              ScolOptions{})
                  .ok());
  { std::ofstream junk(dir_ / "README.txt"); junk << "not a snapshot"; }

  DirectorySeries loaded;
  ASSERT_TRUE(loaded.open(dir_str()).ok());
  ASSERT_EQ(loaded.count(), 2u);
  std::vector<std::int64_t> times;
  loaded.visit([&](std::size_t, const Snapshot& snap) {
    times.push_back(snap.taken_at);
  });
  ASSERT_EQ(times.size(), 2u);
  EXPECT_LT(times[0], times[1]);
}

TEST_F(DirectorySeriesTest, CorruptSnapshotIsSkipped) {
  SnapshotSeries series;
  series.add(make_snapshot(0, 5));
  series.add(make_snapshot(1, 5));
  ASSERT_TRUE(save_series(series, dir_str()).ok());

  // Corrupt the second file's tail.
  DirectorySeries listing;
  ASSERT_TRUE(listing.open(dir_str()).ok());
  {
    std::fstream f(listing.files()[1],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('\xff');
  }

  DirectorySeries loaded;
  ASSERT_TRUE(loaded.open(dir_str()).ok());
  std::size_t visited = 0;
  loaded.visit([&](std::size_t, const Snapshot&) { ++visited; });
  EXPECT_EQ(visited, 1u) << "corrupt week must be skipped, not fatal";
}

TEST_F(DirectorySeriesTest, OpenFailsOnMissingOrEmptyDirectory) {
  DirectorySeries series;
  const Status missing = series.open(dir_str() + "/does_not_exist");
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.to_string().empty());
  EXPECT_FALSE(series.open(dir_str()).ok()) << "empty dir has no snaps";
}

TEST_F(DirectorySeriesTest, VisitStreamingDeliversChosenWeeksAsReaders) {
  SnapshotSeries series;
  for (int w = 0; w < 4; ++w) series.add(make_snapshot(w, 20 + w));
  ASSERT_TRUE(save_series(series, dir_str()).ok());

  DirectorySeries loaded;
  ASSERT_TRUE(loaded.open(dir_str()).ok());

  std::vector<std::size_t> resident_weeks, streamed_weeks;
  std::vector<std::uint64_t> hints;
  loaded.visit_streaming(
      /*first_slot=*/0,
      [&](std::size_t week, std::int64_t, std::uint64_t rows_hint) {
        hints.push_back(rows_hint);
        return week % 2 == 1;  // stream the odd weeks
      },
      [&](std::size_t week, Snapshot&& snap) {
        resident_weeks.push_back(week);
        EXPECT_EQ(snap.table.size(), 20 + week);
      },
      [&](const WeekGroupStream& stream) {
        streamed_weeks.push_back(stream.week);
        EXPECT_EQ(stream.taken_at, series.at(stream.week).taken_at);
        EXPECT_EQ(stream.reader->rows(), 20 + stream.week);
        // Group-at-a-time decode reassembles the eager table.
        SnapshotTable table;
        for (std::size_t g = 0; g < stream.reader->group_count(); ++g) {
          EXPECT_TRUE(stream.reader->decode_group(g, &table).ok());
        }
        EXPECT_EQ(table.size(), series.at(stream.week).table.size());
        EXPECT_EQ(table.path(0), series.at(stream.week).table.path(0));
        return Status();
      });
  EXPECT_EQ(resident_weeks, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(streamed_weeks, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(hints, (std::vector<std::uint64_t>{20, 21, 22, 23}));
  EXPECT_TRUE(loaded.gaps().empty());
}

TEST_F(DirectorySeriesTest, StreamVisitorErrorBecomesEagerShapedGap) {
  SnapshotSeries series;
  series.add(make_snapshot(0, 5));
  series.add(make_snapshot(1, 5));
  ASSERT_TRUE(save_series(series, dir_str()).ok());

  DirectorySeries loaded;
  ASSERT_TRUE(loaded.open(dir_str()).ok());
  std::size_t resident = 0;
  loaded.visit_streaming(
      0, [](std::size_t week, std::int64_t, std::uint64_t) { return week == 1; },
      [&](std::size_t, Snapshot&&) { ++resident; },
      [&](const WeekGroupStream&) {
        return Status::corruption("group 0: synthetic damage");
      });
  EXPECT_EQ(resident, 1u);
  ASSERT_EQ(loaded.gaps().size(), 1u);
  const SeriesGap& gap = loaded.gaps()[0];
  EXPECT_EQ(gap.week, 1u);
  EXPECT_EQ(gap.file, loaded.files()[1]);
  // The file context lands in the status exactly as the eager decode
  // path's with_context would place it.
  EXPECT_NE(gap.status.to_string().find(loaded.files()[1] +
                                        ": group 0: synthetic damage"),
            std::string::npos)
      << gap.status.to_string();
}

TEST_F(DirectorySeriesTest, StreamingFallsBackToEagerOnUnopenableImage) {
  SnapshotSeries series;
  series.add(make_snapshot(0, 5));
  series.add(make_snapshot(1, 5));
  ASSERT_TRUE(save_series(series, dir_str()).ok());

  DirectorySeries listing;
  ASSERT_TRUE(listing.open(dir_str()).ok());
  {
    // Destroy the header: streaming open and eager decode both fail.
    std::fstream f(listing.files()[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.write("XXXXXXXX", 8);
  }

  // The eager traversal's gap is the reference shape.
  DirectorySeries eager;
  ASSERT_TRUE(eager.open(dir_str()).ok());
  eager.visit_move([](std::size_t, Snapshot&&) {});
  ASSERT_EQ(eager.gaps().size(), 1u);

  DirectorySeries streaming;
  ASSERT_TRUE(streaming.open(dir_str()).ok());
  std::size_t resident = 0, streamed = 0;
  streaming.visit_streaming(
      0, [](std::size_t, std::int64_t, std::uint64_t) { return true; },
      [&](std::size_t, Snapshot&&) { ++resident; },
      [&](const WeekGroupStream&) {
        ++streamed;
        return Status();
      });
  EXPECT_EQ(resident, 0u);
  EXPECT_EQ(streamed, 1u) << "the healthy week still streams";
  ASSERT_EQ(streaming.gaps().size(), 1u);
  EXPECT_EQ(streaming.gaps()[0].describe(), eager.gaps()[0].describe())
      << "fallback must reproduce the eager gap byte-for-byte";
}

TEST(SnapshotSeriesStreamingTest, InMemorySeriesDeliversEverythingResident) {
  SnapshotSeries series;
  for (int w = 0; w < 3; ++w) series.add(make_snapshot(w, 4));
  std::size_t resident = 0, streamed = 0;
  series.visit_streaming(
      0, [](std::size_t, std::int64_t, std::uint64_t) { return true; },
      [&](std::size_t, Snapshot&& snap) {
        ++resident;
        EXPECT_EQ(snap.table.size(), 4u);
      },
      [&](const WeekGroupStream&) {
        ++streamed;
        return Status();
      });
  EXPECT_EQ(resident, 3u);
  EXPECT_EQ(streamed, 0u);
}

}  // namespace
}  // namespace spider
