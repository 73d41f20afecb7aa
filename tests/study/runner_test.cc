// Unit tests for the study runner: ordering, prev retention, shared diff.
#include "study/runner.h"

#include <gtest/gtest.h>

#include "util/timeutil.h"

namespace spider {
namespace {

Snapshot make_snapshot(int week, std::initializer_list<const char*> paths,
                       std::int64_t stamp) {
  Snapshot snap;
  snap.taken_at = epoch_from_civil({2015, 1, 5}) + week * kSecondsPerWeek;
  for (const char* path : paths) {
    RawRecord rec;
    rec.path = path;
    rec.atime = rec.ctime = rec.mtime = stamp;
    rec.osts = {1};
    snap.table.add(rec);
  }
  return snap;
}

class RecordingAnalyzer : public StudyAnalyzer {
 public:
  explicit RecordingAnalyzer(bool wants) : wants_(wants) {}
  bool wants_diff() const override { return wants_; }
  void merge(const WeekObservation& obs, ScanStateList) override {
    weeks.push_back(obs.week);
    had_prev.push_back(obs.prev != nullptr);
    had_diff.push_back(obs.diff != nullptr);
    if (obs.prev != nullptr) {
      prev_sizes.push_back(obs.prev->table.size());
    }
    if (obs.diff != nullptr) new_counts.push_back(obs.diff->new_rows.size());
  }
  void finish() override { finished = true; }

  bool wants_;
  std::vector<std::size_t> weeks;
  std::vector<bool> had_prev, had_diff;
  std::vector<std::size_t> prev_sizes;
  std::vector<std::size_t> new_counts;
  bool finished = false;
};

TEST(StudyRunnerTest, PrevAndDiffDelivery) {
  SnapshotSeries series;
  series.add(make_snapshot(0, {"/lustre/atlas2/p/u/a"}, 100));
  series.add(make_snapshot(1, {"/lustre/atlas2/p/u/a",
                               "/lustre/atlas2/p/u/b"}, 100));
  series.add(make_snapshot(
      2, {"/lustre/atlas2/p/u/a", "/lustre/atlas2/p/u/b",
          "/lustre/atlas2/p/u/c"}, 100));

  RecordingAnalyzer plain(false);
  RecordingAnalyzer differ(true);
  StudyAnalyzer* analyzers[] = {&plain, &differ};
  run_study(series, analyzers);

  EXPECT_EQ(differ.weeks, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(differ.had_prev, (std::vector<bool>{false, true, true}));
  EXPECT_EQ(differ.had_diff, (std::vector<bool>{false, true, true}));
  EXPECT_EQ(differ.prev_sizes, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(differ.new_counts, (std::vector<std::size_t>{1, 1}));
  EXPECT_TRUE(differ.finished);

  // The non-diff analyzer still sees prev but no diff is advertised only
  // when nobody wants it — here differ wants it, so plain gets it too
  // (shared computation).
  EXPECT_EQ(plain.had_diff, (std::vector<bool>{false, true, true}));
}

TEST(StudyRunnerTest, NoDiffComputedWhenNobodyWants) {
  SnapshotSeries series;
  series.add(make_snapshot(0, {"/lustre/atlas2/p/u/a"}, 1));
  series.add(make_snapshot(1, {"/lustre/atlas2/p/u/a"}, 1));
  RecordingAnalyzer plain(false);
  run_study(series, plain);
  EXPECT_EQ(plain.had_diff, (std::vector<bool>{false, false}));
  EXPECT_EQ(plain.had_prev, (std::vector<bool>{false, true}));
  EXPECT_TRUE(plain.finished);
}

TEST(StudyRunnerTest, EmptySeries) {
  SnapshotSeries series;
  RecordingAnalyzer plain(false);
  run_study(series, plain);
  EXPECT_TRUE(plain.weeks.empty());
  EXPECT_TRUE(plain.finished);
}

}  // namespace
}  // namespace spider
