#include "snapshot/series.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "snapshot/scol.h"
#include "util/parallel.h"
#include "util/timeutil.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

/// Pool widths the concurrent traversal runs at: 0 is the hardware's.
constexpr unsigned kWidths[] = {1, 2, 7, 0};

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

/// Every gap of `series`, one describe() line each, in gaps() order.
std::vector<std::string> gap_lines(const SnapshotSource& series) {
  std::vector<std::string> lines;
  for (const SeriesGap& gap : series.gaps()) lines.push_back(gap.describe());
  return lines;
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

  // The concurrent traversal records the same gap.
  for (const unsigned width : kWidths) {
    ThreadPool pool(width);
    DirectorySeries concurrent;
    ASSERT_TRUE(concurrent.open(dir_str()).ok());
    std::atomic<std::size_t> delivered{0};
    concurrent.visit_concurrent(
        [](std::size_t week, std::int64_t, std::uint64_t) { return week == 1; },
        [&](std::size_t, Snapshot&&) { ++delivered; },
        [&](const WeekGroupStream&) {
          return Status::corruption("group 0: synthetic damage");
        },
        &pool);
    EXPECT_EQ(delivered.load(), 1u) << width;
    EXPECT_EQ(gap_lines(concurrent), gap_lines(loaded)) << width;
  }
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

  for (const unsigned width : kWidths) {
    ThreadPool pool(width);
    DirectorySeries concurrent;
    ASSERT_TRUE(concurrent.open(dir_str()).ok());
    std::atomic<std::size_t> concurrent_resident{0}, concurrent_streamed{0};
    concurrent.visit_concurrent(
        [](std::size_t, std::int64_t, std::uint64_t) { return true; },
        [&](std::size_t, Snapshot&&) { ++concurrent_resident; },
        [&](const WeekGroupStream&) {
          ++concurrent_streamed;
          return Status();
        },
        &pool);
    EXPECT_EQ(concurrent_resident.load(), 0u) << width;
    EXPECT_EQ(concurrent_streamed.load(), 1u) << width;
    EXPECT_EQ(gap_lines(concurrent), gap_lines(eager)) << width;
  }
}

/// Decodes every group of a streamed week under its reader's salvage
/// policy, returning the week's raw verdict as a decode would.
Status decode_every_group(const WeekGroupStream& stream) {
  const ScolGroupReader& reader = *stream.reader;
  SalvageReport report = reader.make_report();
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    SnapshotTable table;
    Status s = reader.decode_group(g, &table);
    if (s.ok()) {
      reader.note_success(g, &report);
    } else if (!(s = reader.dispose_failure(g, std::move(s), &report)).ok()) {
      return s;
    }
  }
  return Status();
}

TEST_F(DirectorySeriesTest, ConcurrentTraversalGapsMatchTheOrderedOnes) {
  // Ten weekly slots: week 4 was never collected (a cadence hole), week 6
  // is a directory with a snapshot's name, weeks 2 and 8 are torn in the
  // middle of a group, and week 1's header is gone. Later weeks are
  // larger, so largest-first runs them out of slot order.
  std::vector<std::string> files;
  for (int w = 0; w < 10; ++w) {
    if (w == 4) continue;
    const Snapshot snap = make_snapshot(w, 200 + 150 * w);
    const std::string file =
        (dir_ / ("snap_" + date_tag(snap.taken_at) + ".scol")).string();
    if (w == 6) {
      fs::create_directories(file);
      continue;
    }
    ScolOptions options;
    options.group_size = 128;
    ASSERT_TRUE(write_scol_file(snap.table, file, options).ok());
    files.push_back(file);
  }
  const auto damage = [](const std::string& file, std::size_t at_from_end) {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-static_cast<std::streamoff>(at_from_end), std::ios::end);
    f.put('\x5a');
  };
  damage(files[2], 300);  // week 2
  damage(files[6], 900);  // week 8
  {
    std::fstream f(files[1], std::ios::in | std::ios::out | std::ios::binary);
    f.write("XXXXXXXX", 8);  // week 1: unopenable, the eager fallback
  }

  DirectorySeries ordered;
  ASSERT_TRUE(ordered.open(dir_str()).ok());
  std::vector<std::size_t> ordered_weeks;
  ordered.visit_streaming(
      0, [](std::size_t, std::int64_t, std::uint64_t) { return true; },
      [&](std::size_t week, Snapshot&&) { ordered_weeks.push_back(week); },
      [&](const WeekGroupStream& stream) {
        const Status s = decode_every_group(stream);
        if (s.ok()) ordered_weeks.push_back(stream.week);
        return s;
      });
  const std::vector<std::string> want = gap_lines(ordered);
  ASSERT_EQ(want.size(), 5u);  // weeks 1, 2, 4, 6 and 8
  ASSERT_EQ(ordered_weeks, (std::vector<std::size_t>{0, 3, 5, 7, 9}));

  for (const unsigned width : kWidths) {
    ThreadPool pool(width);
    DirectorySeries concurrent;
    ASSERT_TRUE(concurrent.open(dir_str()).ok());
    std::mutex mu;
    std::vector<std::size_t> weeks;
    concurrent.visit_concurrent(
        [](std::size_t, std::int64_t, std::uint64_t) { return true; },
        [&](std::size_t week, Snapshot&&) {
          const std::lock_guard<std::mutex> lock(mu);
          weeks.push_back(week);
        },
        [&](const WeekGroupStream& stream) {
          const Status s = decode_every_group(stream);
          if (s.ok()) {
            const std::lock_guard<std::mutex> lock(mu);
            weeks.push_back(stream.week);
          }
          return s;
        },
        &pool);
    std::sort(weeks.begin(), weeks.end());
    EXPECT_EQ(weeks, ordered_weeks) << width;
    EXPECT_EQ(gap_lines(concurrent), want) << width;
    // A second traversal starts again from open()'s gaps.
    concurrent.visit_concurrent(
        [](std::size_t, std::int64_t, std::uint64_t) { return true; },
        [](std::size_t, Snapshot&&) {}, decode_every_group, &pool);
    EXPECT_EQ(gap_lines(concurrent), want) << width;
  }
}

TEST_F(DirectorySeriesTest, ConcurrentVisitorExceptionReachesTheCaller) {
  SnapshotSeries series;
  for (int w = 0; w < 6; ++w) series.add(make_snapshot(w, 20));
  ASSERT_TRUE(save_series(series, dir_str()).ok());
  DirectorySeries loaded;
  ASSERT_TRUE(loaded.open(dir_str()).ok());

  // Weeks on a worker throw. The caller's own week waits (a few seconds
  // at most) until a worker has thrown, so the failure always comes from
  // a worker thread.
  ThreadPool pool(2);
  std::atomic<bool> thrown{false};
  const auto visit = [&] {
    loaded.visit_concurrent(
        [](std::size_t, std::int64_t, std::uint64_t) { return true; },
        [](std::size_t, Snapshot&&) {},
        [&](const WeekGroupStream&) -> Status {
          if (pool.on_worker_thread()) {
            thrown = true;
            throw std::runtime_error("worker visitor failed");
          }
          for (int i = 0; i < 5000 && !thrown; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Status();
        },
        &pool);
  };
  EXPECT_THROW(visit(), std::runtime_error);
  EXPECT_TRUE(thrown.load());
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
