// Unit tests for individual analyzers on hand-crafted snapshot series with
// exactly known answers (the integration suite covers the generated data).
#include <gtest/gtest.h>

#include "study/access_patterns.h"
#include "study/burstiness.h"
#include "study/census.h"
#include "study/collaboration.h"
#include "study/extensions.h"
#include "study/file_age.h"
#include "study/growth.h"
#include "study/network.h"
#include "study/participation.h"
#include "study/striping.h"
#include "study/user_profile.h"
#include "util/timeutil.h"

namespace spider {
namespace {

/// Fixture: a real plan (for uid/gid resolution) plus helpers to craft
/// snapshots owned by its first projects/users.
class AnalyzerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    plan_ = new FacilityPlan(plan_facility(1));
    resolver_ = new Resolver(*plan_);
  }
  static void TearDownTestSuite() {
    delete resolver_;
    delete plan_;
    resolver_ = nullptr;
    plan_ = nullptr;
  }

  static const ProjectInfo& project(std::size_t i) {
    return plan_->projects[i];
  }
  static std::uint32_t uid_of(const ProjectInfo& p) {
    return plan_->users[p.members.front()].uid;
  }

  static RawRecord file(const ProjectInfo& p, const std::string& rel,
                        std::int64_t atime, std::int64_t ctime,
                        std::int64_t mtime,
                        std::vector<std::uint32_t> osts = {1, 2, 3, 4}) {
    RawRecord rec;
    rec.path = "/lustre/atlas2/" + p.name + "/u/" + rel;
    rec.atime = atime;
    rec.ctime = ctime;
    rec.mtime = mtime;
    rec.uid = uid_of(p);
    rec.gid = p.gid;
    rec.mode = kModeRegular | 0664;
    rec.osts = std::move(osts);
    return rec;
  }

  static RawRecord dir(const ProjectInfo& p, const std::string& rel,
                       std::int64_t t) {
    RawRecord rec;
    rec.path = "/lustre/atlas2/" + p.name + "/u/" + rel;
    rec.atime = rec.ctime = rec.mtime = t;
    rec.uid = uid_of(p);
    rec.gid = p.gid;
    rec.mode = kModeDirectory | 0775;
    return rec;
  }

  static Snapshot snapshot(int week, std::vector<RawRecord> records) {
    Snapshot snap;
    snap.taken_at = epoch_from_civil({2015, 1, 12}) + week * kSecondsPerWeek;
    for (const RawRecord& rec : records) snap.table.add(rec);
    return snap;
  }

  static FacilityPlan* plan_;
  static Resolver* resolver_;
};

FacilityPlan* AnalyzerTest::plan_ = nullptr;
Resolver* AnalyzerTest::resolver_ = nullptr;

TEST_F(AnalyzerTest, GrowthCountsFilesAndDirs) {
  const ProjectInfo& p = project(0);
  SnapshotSeries series;
  series.add(snapshot(0, {dir(p, "d", 10), file(p, "d/a", 10, 10, 10)}));
  series.add(snapshot(1, {dir(p, "d", 10), file(p, "d/a", 10, 10, 10),
                          file(p, "d/b", 20, 20, 20)}));
  GrowthAnalyzer analyzer;
  run_study(series, analyzer);
  const GrowthResult& r = analyzer.result();
  ASSERT_EQ(r.points.size(), 2u);
  EXPECT_EQ(r.points[0].files, 1u);
  EXPECT_EQ(r.points[0].dirs, 1u);
  EXPECT_EQ(r.points[1].files, 2u);
  EXPECT_DOUBLE_EQ(r.growth_factor, 2.0);
  EXPECT_DOUBLE_EQ(r.final_dir_share, 1.0 / 3.0);
}

TEST_F(AnalyzerTest, FileAgeExactArithmetic) {
  const ProjectInfo& p = project(0);
  const std::int64_t base = epoch_from_civil({2015, 1, 6});
  SnapshotSeries series;
  // Two files: ages 10 days and 30 days -> average 20, median 20.
  series.add(snapshot(
      0, {file(p, "a", base + 10 * kSecondsPerDay, base, base),
          file(p, "b", base + 30 * kSecondsPerDay, base, base)}));
  FileAgeAnalyzer analyzer(/*purge_days=*/15);
  run_study(series, analyzer);
  const FileAgeResult& r = analyzer.result();
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_DOUBLE_EQ(r.points[0].avg_age_days, 20.0);
  EXPECT_DOUBLE_EQ(r.points[0].median_age_days, 20.0);
  EXPECT_DOUBLE_EQ(r.median_of_averages, 20.0);
  EXPECT_DOUBLE_EQ(r.fraction_above_purge, 1.0);  // 20 > 15
}

TEST_F(AnalyzerTest, FileAgeClampsNegative) {
  const ProjectInfo& p = project(0);
  const std::int64_t base = epoch_from_civil({2015, 1, 6});
  SnapshotSeries series;
  // atime < mtime (clock skew): clamped to 0, not negative.
  series.add(snapshot(0, {file(p, "a", base - kSecondsPerDay, base, base)}));
  FileAgeAnalyzer analyzer;
  run_study(series, analyzer);
  EXPECT_DOUBLE_EQ(analyzer.result().points[0].avg_age_days, 0.0);
}

TEST_F(AnalyzerTest, StripingMinAvgMax) {
  const ProjectInfo& p = project(0);
  SnapshotSeries series;
  series.add(snapshot(0, {file(p, "a", 1, 1, 1, {5}),
                          file(p, "b", 1, 1, 1, {1, 2, 3, 4}),
                          file(p, "c", 1, 1, 1,
                               std::vector<std::uint32_t>(16, 9)),
                          dir(p, "d", 1)}));
  StripingAnalyzer analyzer(*resolver_);
  run_study(series, analyzer);
  const StripingResult& r = analyzer.result();
  const auto& stats =
      r.by_domain[static_cast<std::size_t>(project(0).domain)];
  EXPECT_EQ(stats.count(), 3u);  // the directory is excluded
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
  EXPECT_DOUBLE_EQ(stats.mean(), (1 + 4 + 16) / 3.0);
  EXPECT_EQ(r.max_stripe, 16u);
  EXPECT_EQ(r.domains_tuning, 1u);
  EXPECT_EQ(r.active_domains, 1u);
}

TEST_F(AnalyzerTest, AccessPatternsFractions) {
  const ProjectInfo& p = project(0);
  SnapshotSeries series;
  // Week 0: 4 files. Week 1: one untouched, one readonly, one updated,
  // one deleted, one new.
  series.add(snapshot(0, {file(p, "untouched", 10, 10, 10),
                          file(p, "readonly", 10, 10, 10),
                          file(p, "updated", 10, 10, 10),
                          file(p, "gone", 10, 10, 10)}));
  series.add(snapshot(1, {file(p, "untouched", 10, 10, 10),
                          file(p, "readonly", 99, 10, 10),
                          file(p, "updated", 99, 99, 99),
                          file(p, "fresh", 50, 50, 50)}));
  AccessPatternsAnalyzer analyzer;
  run_study(series, analyzer);
  const AccessPatternsResult& r = analyzer.result();
  ASSERT_EQ(r.weeks.size(), 1u);
  EXPECT_DOUBLE_EQ(r.weeks[0].untouched_frac, 0.25);
  EXPECT_DOUBLE_EQ(r.weeks[0].readonly_frac, 0.25);
  EXPECT_DOUBLE_EQ(r.weeks[0].updated_frac, 0.25);
  EXPECT_DOUBLE_EQ(r.weeks[0].deleted_frac, 0.25);
  EXPECT_DOUBLE_EQ(r.weeks[0].new_frac, 0.25);  // 1 of 4 current files
}

TEST_F(AnalyzerTest, CensusUniqueAcrossWeeks) {
  const ProjectInfo& p = project(0);
  SnapshotSeries series;
  // "a" appears twice (counted once); "b" is deleted after week 0 but
  // still counts; "c" appears later.
  series.add(snapshot(0, {file(p, "a", 1, 1, 1), file(p, "b", 1, 1, 1)}));
  series.add(snapshot(1, {file(p, "a", 1, 1, 1), file(p, "c", 2, 2, 2),
                          dir(p, "sub", 2)}));
  CensusAnalyzer analyzer(*resolver_);
  run_study(series, analyzer);
  const CensusResult& r = analyzer.result();
  EXPECT_EQ(r.total_files, 3u);
  EXPECT_EQ(r.total_dirs, 1u);
  const auto d = static_cast<std::size_t>(project(0).domain);
  EXPECT_EQ(r.files_by_domain[d], 3u);
  EXPECT_EQ(r.dirs_by_domain[d], 1u);
  EXPECT_EQ(r.max_files_one_project, 3u);
}

TEST_F(AnalyzerTest, ExtensionsDedupAndShares) {
  const ProjectInfo& p = project(0);
  SnapshotSeries series;
  series.add(snapshot(0, {file(p, "x1.nc", 1, 1, 1),
                          file(p, "x2.nc", 1, 1, 1),
                          file(p, "y.txt", 1, 1, 1),
                          file(p, "noext", 1, 1, 1)}));
  series.add(snapshot(1, {file(p, "x1.nc", 1, 1, 1)}));  // repeat: no-op
  ExtensionsAnalyzer analyzer(*resolver_, /*top_k=*/2);
  run_study(series, analyzer);
  const ExtensionsResult& r = analyzer.result();
  EXPECT_EQ(r.unique_files, 4u);
  EXPECT_EQ(r.unique_no_extension, 1u);
  ASSERT_FALSE(r.global_top.empty());
  EXPECT_EQ(r.global_top[0].first, "nc");
  EXPECT_EQ(r.global_top[0].second, 2u);
  const auto& top =
      r.top3_by_domain[static_cast<std::size_t>(project(0).domain)];
  ASSERT_GE(top.size(), 1u);
  EXPECT_EQ(top[0].first, "nc");
  EXPECT_NEAR(top[0].second, 2.0 / 3.0 * 100.0, 1e-9);  // of named files
  // Trend rows exist per snapshot.
  ASSERT_EQ(r.share_top.size(), 2u);
  EXPECT_DOUBLE_EQ(r.share_none[0], 0.25);
  EXPECT_DOUBLE_EQ(r.share_top[1][0], 1.0);  // week 1 is 100% .nc
}

TEST_F(AnalyzerTest, BurstinessCvComputation) {
  const ProjectInfo& p = project(0);
  const std::int64_t t0 = epoch_from_civil({2015, 1, 12});
  SnapshotSeries series;
  Snapshot first;
  first.taken_at = t0;
  series.add(std::move(first));  // empty week 0

  // Week 1: 12 new files, mtimes at offsets {3600 +/- 600} from week
  // start -> cv = stddev/mean is small and exactly computable.
  std::vector<RawRecord> records;
  for (int i = 0; i < 12; ++i) {
    const std::int64_t offset = 3600 + (i % 2 == 0 ? -600 : 600);
    records.push_back(
        file(p, "f" + std::to_string(i), t0 + offset, t0 + offset,
             t0 + offset));
  }
  Snapshot second;
  second.taken_at = t0 + kSecondsPerWeek;
  for (const RawRecord& rec : records) second.table.add(rec);
  series.add(std::move(second));

  BurstinessAnalyzer analyzer(*resolver_, /*min_files=*/10);
  run_study(series, analyzer);
  const BurstinessResult& r = analyzer.result();
  EXPECT_EQ(r.qualifying_write_samples, 1u);
  // cv = 600 / 3600.
  EXPECT_NEAR(r.overall_write_cv_median, 600.0 / 3600.0, 1e-9);
  EXPECT_EQ(r.qualifying_read_samples, 0u);
}

TEST_F(AnalyzerTest, BurstinessFilterExcludesSmallProjects) {
  const ProjectInfo& p = project(0);
  const std::int64_t t0 = epoch_from_civil({2015, 1, 12});
  SnapshotSeries series;
  Snapshot first;
  first.taken_at = t0;
  series.add(std::move(first));
  Snapshot second;
  second.taken_at = t0 + kSecondsPerWeek;
  for (int i = 0; i < 5; ++i) {  // below the threshold of 10
    second.table.add(file(p, "f" + std::to_string(i), t0 + 100, t0 + 100,
                          t0 + 100));
  }
  series.add(std::move(second));
  BurstinessAnalyzer analyzer(*resolver_, /*min_files=*/10);
  run_study(series, analyzer);
  EXPECT_EQ(analyzer.result().qualifying_write_samples, 0u);
}

TEST_F(AnalyzerTest, UserProfileCountsDistinctUids) {
  const ProjectInfo& a = project(0);
  const ProjectInfo& b = project(1);
  SnapshotSeries series;
  series.add(snapshot(0, {file(a, "x", 1, 1, 1), file(a, "y", 1, 1, 1),
                          file(b, "z", 1, 1, 1)}));
  UserProfileAnalyzer analyzer(*resolver_);
  run_study(series, analyzer);
  const UserProfileResult& r = analyzer.result();
  // Both projects' first members may or may not be the same user; the
  // count must equal the number of distinct uids we used.
  const std::size_t expected = uid_of(a) == uid_of(b) ? 1u : 2u;
  EXPECT_EQ(r.active_users, expected);
  EXPECT_EQ(r.unknown_uids, 0u);
}

// Participation packs (user, project) pairs as user << 32 | project, so
// every pair of one project shares its low bits. 64 users in each of the
// full-scale plan's projects (24,320 pairs) must still spread over the
// pair set: under identity placement they would fill one run of 24,319
// slots (key 0 lives out of line), probed half-way on every insert.
TEST_F(AnalyzerTest, ParticipationPairSetHasNoLongProbeRuns) {
  constexpr std::size_t kUsers = 64;
  ASSERT_EQ(plan_->projects.size(), 380u);
  ASSERT_GE(plan_->users.size(), kUsers);
  std::vector<RawRecord> records;
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (const ProjectInfo& p : plan_->projects) {
      RawRecord rec = file(p, "u" + std::to_string(u), 1, 1, 1);
      rec.uid = plan_->users[u].uid;
      records.push_back(std::move(rec));
    }
  }
  SnapshotSeries series;
  series.add(snapshot(0, std::move(records)));
  ParticipationAnalyzer participation(*resolver_);
  run_study(series, participation);
  ASSERT_EQ(participation.result().observed.size(),
            kUsers * plan_->projects.size());

  // The blob opens with the pair set's slot array (FlatSet::save_state).
  std::vector<std::uint8_t> blob;
  StateWriter w(&blob);
  ASSERT_TRUE(participation.save_state(w));
  StateReader r(blob);
  std::vector<std::uint64_t> slots;
  ASSERT_TRUE(r.vec(&slots));
  ASSERT_FALSE(slots.empty());
  std::size_t longest = 0, run = 0;
  for (std::size_t i = 0; i < 2 * slots.size(); ++i) {  // runs may wrap
    run = slots[i % slots.size()] != 0 ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_LE(longest, kUsers);
}

// Collaboration and network post-process participation's membership in
// finish(). Participation below is constructed but never runs, so its
// membership is empty: each analyzer alone must report an empty result,
// not crash.
TEST_F(AnalyzerTest, CollaborationAndNetworkAloneAreEmpty) {
  const ProjectInfo& a = project(0);
  const ProjectInfo& b = project(1);
  SnapshotSeries series;
  series.add(snapshot(0, {file(a, "x", 1, 1, 1), file(b, "y", 1, 1, 1)}));
  series.add(snapshot(1, {file(a, "x", 1, 1, 1), file(b, "z", 2, 2, 2)}));
  const ParticipationAnalyzer participation(*resolver_);

  CollaborationAnalyzer collaboration(*resolver_, participation);
  run_study(series, collaboration);
  const CollaborationStats& stats = collaboration.result().stats;
  EXPECT_EQ(stats.collaborating_pairs, 0u);
  EXPECT_EQ(stats.max_shared_projects, 0u);
  EXPECT_TRUE(collaboration.result().max_pair_description.empty());
  EXPECT_FALSE(collaboration.render().empty());

  NetworkAnalyzer network(*resolver_, participation);
  run_study(series, network);
  const NetworkResult& r = network.result();
  EXPECT_EQ(r.edges, 0u);
  EXPECT_EQ(r.users, 0u);
  EXPECT_EQ(r.projects, 0u);
  EXPECT_EQ(r.component_count, 0u);
  EXPECT_EQ(r.giant_vertices, 0u);
  EXPECT_EQ(r.center_users + r.center_projects, 0u);
  EXPECT_FALSE(network.render().empty());
}

}  // namespace
}  // namespace spider
