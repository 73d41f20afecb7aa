// Tests for facility inference: reconstructing users/projects/memberships
// from snapshots must agree with the generator's ground-truth plan, and
// reading a directory's weeks with the table-free row scan must infer the
// same plan as decoding them into tables.
#include "synth/infer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "snapshot/record.h"
#include "snapshot/scol.h"
#include "synth/generator.h"
#include "util/io.h"
#include "util/timeutil.h"

namespace spider {
namespace {

TEST(InferFacilityTest, RoundTripsGeneratorStructure) {
  FacilityConfig config;
  config.scale = 0.00005;
  config.weeks = 16;
  FacilityGenerator generator(config);
  const FacilityPlan& truth = generator.plan();

  InferenceStats stats;
  const FacilityPlan inferred = infer_facility(generator, &stats);

  // Every project produced files, so all 380 are rediscovered; domain
  // tags resolve from the name prefixes.
  EXPECT_EQ(stats.projects, truth.projects.size());
  EXPECT_EQ(stats.unmatched_projects, 0u);
  EXPECT_EQ(stats.users, truth.users.size());

  // Project domains match ground truth.
  for (const ProjectInfo& project : inferred.projects) {
    const int truth_index = truth.project_index(project.name);
    ASSERT_GE(truth_index, 0) << project.name;
    EXPECT_EQ(project.domain,
              truth.projects[static_cast<std::size_t>(truth_index)].domain)
        << project.name;
    EXPECT_EQ(project.gid,
              truth.projects[static_cast<std::size_t>(truth_index)].gid);
  }

  // Membership incidence: inferred (uid, project-name) pairs must be a
  // subset of the planned ones (activity sampling may leave a rare
  // planned membership unexercised) and cover nearly all of them.
  std::set<std::pair<std::uint32_t, std::string>> planned;
  for (const ProjectInfo& project : truth.projects) {
    for (const std::uint32_t member : project.members) {
      planned.emplace(truth.users[member].uid, project.name);
    }
  }
  std::size_t covered = 0;
  for (const ProjectInfo& project : inferred.projects) {
    for (const std::uint32_t member : project.members) {
      const auto pair =
          std::make_pair(inferred.users[member].uid, project.name);
      ASSERT_TRUE(planned.count(pair))
          << "inferred membership not planned: uid=" << pair.first << " "
          << pair.second;
      ++covered;
    }
  }
  EXPECT_GT(covered, planned.size() * 9 / 10);
}

TEST(InferFacilityTest, UnknownPrefixFallsBackToGeneral) {
  SnapshotSeries series;
  Snapshot snap;
  snap.taken_at = 1'420'416'000;
  RawRecord rec;
  rec.path = "/lustre/atlas2/zzz999/u1/file.dat";
  rec.uid = 55555;
  rec.gid = 7777;
  rec.atime = rec.ctime = rec.mtime = 100;
  snap.table.add(rec);
  series.add(std::move(snap));

  InferenceStats stats;
  const FacilityPlan plan = infer_facility(series, &stats);
  EXPECT_EQ(stats.projects, 1u);
  EXPECT_EQ(stats.unmatched_projects, 1u);
  ASSERT_EQ(plan.projects.size(), 1u);
  EXPECT_EQ(plan.projects[0].domain, domain_index("gen"));
  EXPECT_EQ(plan.projects[0].name, "zzz999");
  ASSERT_EQ(plan.users.size(), 1u);
  EXPECT_EQ(plan.users[0].uid, 55555u);
  EXPECT_EQ(plan.users[0].org, OrgType::kOther);
}

TEST(InferFacilityTest, PrimaryDomainIsMajorityDomain) {
  SnapshotSeries series;
  Snapshot snap;
  snap.taken_at = 1'420'416'000;
  auto add = [&snap](const std::string& path, std::uint32_t gid) {
    RawRecord rec;
    rec.path = path;
    rec.uid = 42;
    rec.gid = gid;
    rec.atime = rec.ctime = rec.mtime = 100;
    snap.table.add(rec);
  };
  add("/lustre/atlas2/cli900/u/a", 1);
  add("/lustre/atlas2/cli900/u/b", 1);
  add("/lustre/atlas2/cli900/u/c", 1);
  add("/lustre/atlas2/nph900/u/d", 2);
  series.add(std::move(snap));

  const FacilityPlan plan = infer_facility(series);
  ASSERT_EQ(plan.users.size(), 1u);
  EXPECT_EQ(plan.users[0].primary_domain, domain_index("cli"));
  EXPECT_EQ(plan.memberships.size(), 2u);
}

TEST(InferFacilityTest, PrimaryDomainTieGoesToTheHigherDomainIndex) {
  const int cli = domain_index("cli");
  const int nph = domain_index("nph");
  ASSERT_NE(cli, nph);
  for (const bool cli_first : {true, false}) {
    SnapshotSeries series;
    Snapshot snap;
    snap.taken_at = 1'420'416'000;
    for (const std::string project :
         {cli_first ? "cli900" : "nph900", cli_first ? "nph900" : "cli900"}) {
      for (const std::string file : {"a", "b"}) {
        RawRecord rec;
        rec.path = "/lustre/atlas2/" + project + "/u/" + file;
        rec.uid = 42;
        rec.gid = project == "cli900" ? 1 : 2;
        snap.table.add(rec);
      }
    }
    series.add(std::move(snap));

    const FacilityPlan plan = infer_facility(series);
    ASSERT_EQ(plan.users.size(), 1u);
    EXPECT_EQ(plan.users[0].primary_domain, std::max(cli, nph))
        << (cli_first ? "cli first" : "nph first");
  }
}

// ---- the row scan against the table path ----------------------------------

namespace fs = std::filesystem;

/// A scratch directory private to this process, removed with the object.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("spider_infer_test_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Each test gets its own copy of one small generated series: six weekly
/// .scol files of 16–37 k rows, in row groups of 256.
class InferFacilityScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    series_ = new TempDir("series");
    FacilityConfig config;
    config.scale = 0.00002;
    config.weeks = 6;
    config.maintenance_gaps = false;
    FacilityGenerator generator(config);
    ScolOptions options;
    options.group_size = 256;
    generator.visit([&options](std::size_t, const Snapshot& snap) {
      const fs::path file = fs::path(series_->path()) /
                            ("snap_" + date_tag(snap.taken_at) + ".scol");
      ASSERT_TRUE(write_scol_file(snap.table, file.string(), options).ok());
    });
  }
  static void TearDownTestSuite() {
    delete series_;
    series_ = nullptr;
  }

  void SetUp() override {
    dir_ = std::make_unique<TempDir>(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    for (const auto& entry : fs::directory_iterator(series_->path())) {
      fs::copy_file(entry.path(),
                    fs::path(dir_->path()) / entry.path().filename());
    }
    DirectorySeries listing;
    ASSERT_TRUE(listing.open(dir_->path()).ok());
    files_ = listing.files();
    ASSERT_EQ(files_.size(), 6u);
  }

  const std::string& dir() const { return dir_->path(); }

  static TempDir* series_;
  std::unique_ptr<TempDir> dir_;
  std::vector<std::string> files_;  // in date order
};

TempDir* InferFacilityScanTest::series_ = nullptr;

/// Flips one payload byte inside group `g` of an on-disk image.
void corrupt_group(const std::string& file, std::size_t g) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(file, &bytes).ok());
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(bytes, &layout).ok());
  ASSERT_LT(g, layout.group_rows.size());
  bytes[layout.group_begin[g] + layout.group_len[g] / 2] ^= 0x40;
  ASSERT_TRUE(
      write_file_atomic(file, std::span<const std::uint8_t>(bytes)).ok());
}

void expect_same_plan(const FacilityPlan& a, const FacilityPlan& b) {
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t u = 0; u < a.users.size(); ++u) {
    EXPECT_EQ(a.users[u].uid, b.users[u].uid) << u;
    EXPECT_EQ(a.users[u].name, b.users[u].name) << u;
    EXPECT_EQ(a.users[u].org, b.users[u].org) << u;
    EXPECT_EQ(a.users[u].primary_domain, b.users[u].primary_domain) << u;
  }
  ASSERT_EQ(a.projects.size(), b.projects.size());
  for (std::size_t p = 0; p < a.projects.size(); ++p) {
    EXPECT_EQ(a.projects[p].name, b.projects[p].name) << p;
    EXPECT_EQ(a.projects[p].domain, b.projects[p].domain) << p;
    EXPECT_EQ(a.projects[p].gid, b.projects[p].gid) << p;
    EXPECT_EQ(a.projects[p].members, b.projects[p].members) << p;
  }
  ASSERT_EQ(a.memberships.size(), b.memberships.size());
  for (std::size_t e = 0; e < a.memberships.size(); ++e) {
    EXPECT_EQ(a.memberships[e].user, b.memberships[e].user) << e;
    EXPECT_EQ(a.memberships[e].project, b.memberships[e].project) << e;
  }
}

/// Infers the plan of `scanned` (a directory: its weeks stream through the
/// row scan unless its read seam is set) and of the same weeks decoded by
/// an eager DirectorySeries into a SnapshotSeries (the table path), and
/// checks that the plans and the week gaps are the same.
void expect_scan_matches_tables(DirectorySeries& scanned,
                                const std::string& dir,
                                const ScolOptions& options) {
  const FacilityPlan from_scan = infer_facility(scanned);

  DirectorySeries eager;
  ASSERT_TRUE(eager.open(dir).ok());
  eager.set_scol_options(options);
  SnapshotSeries tables;
  eager.visit_move([&tables](std::size_t, Snapshot&& snap) {
    tables.add(std::move(snap));
  });
  ASSERT_GT(tables.count(), 2u);
  expect_same_plan(from_scan, infer_facility(tables));

  ASSERT_EQ(scanned.gaps().size(), eager.gaps().size());
  for (std::size_t i = 0; i < eager.gaps().size(); ++i) {
    EXPECT_EQ(scanned.gaps()[i].describe(), eager.gaps()[i].describe());
  }
}

/// The plan recounted row by row with ordered maps: the reference for the
/// scanner's run caching and merges.
FacilityPlan recount(SnapshotSource& source) {
  FacilityPlan plan;
  std::map<std::string, std::uint32_t> project_of;
  std::map<std::uint32_t, std::uint32_t> user_of;
  std::map<std::pair<std::uint32_t, int>, std::uint64_t> entries;
  std::set<std::pair<std::uint32_t, std::uint32_t>> members;  // (p, u)
  source.visit([&](std::size_t, const Snapshot& snap) {
    for (std::size_t i = 0; i < snap.table.size(); ++i) {
      const std::string name(path_project(snap.table.path(i)));
      if (name.empty()) continue;
      const auto [p, new_project] =
          project_of.try_emplace(name, plan.projects.size());
      if (new_project) {
        ProjectInfo project;
        project.name = name;
        const int d = name.size() < 3 ? domain_index("gen")
                                      : domain_index(name.substr(0, 3));
        project.domain = d >= 0 ? d : domain_index("gen");
        project.gid = snap.table.gid(i);
        plan.projects.push_back(project);
      }
      const std::uint32_t uid = snap.table.uid(i);
      const auto [u, new_user] = user_of.try_emplace(uid, plan.users.size());
      if (new_user) {
        UserAccount user;
        user.uid = uid;
        user.name = "uid" + std::to_string(uid);
        user.org = OrgType::kOther;
        plan.users.push_back(user);
      }
      ++entries[{u->second, plan.projects[p->second].domain}];
      members.emplace(p->second, u->second);
    }
  });
  std::vector<std::uint64_t> best(plan.users.size(), 0);
  for (const auto& [user_domain, count] : entries) {  // domains ascending
    const auto [user, domain] = user_domain;
    if (count >= best[user]) {
      best[user] = count;
      plan.users[user].primary_domain = domain;
    }
  }
  for (const auto& [project, user] : members) {
    plan.projects[project].members.push_back(user);
    plan.memberships.push_back(MembershipEdge{user, project});
  }
  return plan;
}

TEST_F(InferFacilityScanTest, MatchesRowAtATimeRecount) {
  DirectorySeries scanned;
  ASSERT_TRUE(scanned.open(dir()).ok());
  const FacilityPlan plan = infer_facility(scanned);
  EXPECT_GT(plan.users.size(), 100u);
  DirectorySeries eager;
  ASSERT_TRUE(eager.open(dir()).ok());
  expect_same_plan(plan, recount(eager));
}

TEST_F(InferFacilityScanTest, GappedSeriesMatchesTablePath) {
  fs::remove(files_[2]);
  DirectorySeries scanned;
  ASSERT_TRUE(scanned.open(dir()).ok());
  ASSERT_EQ(scanned.gaps().size(), 1u);
  expect_scan_matches_tables(scanned, dir(), ScolOptions{});
}

TEST_F(InferFacilityScanTest, StrictCorruptWeekMatchesTablePath) {
  corrupt_group(files_[3], 1);
  DirectorySeries scanned;
  ASSERT_TRUE(scanned.open(dir()).ok());
  expect_scan_matches_tables(scanned, dir(), ScolOptions{});
  ASSERT_EQ(scanned.gaps().size(), 1u);  // the whole week is dropped
  EXPECT_EQ(scanned.gaps()[0].file, files_[3]);
}

TEST_F(InferFacilityScanTest, SkippedGroupMatchesTablePath) {
  corrupt_group(files_[2], 2);
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
  DirectorySeries scanned;
  ASSERT_TRUE(scanned.open(dir()).ok());
  scanned.set_scol_options(salvage);
  expect_scan_matches_tables(scanned, dir(), salvage);
  EXPECT_TRUE(scanned.gaps().empty());  // only the group is dropped
}

TEST_F(InferFacilityScanTest, RetriedReadSeamMatchesTablePath) {
  // Every file's first read fails transiently; the retry reads it.
  std::set<std::string> failed_once;
  DirectorySeries scanned;
  ASSERT_TRUE(scanned.open(dir()).ok());
  scanned.set_read_fn(
      [&failed_once](const std::string& file,
                     std::vector<std::uint8_t>* bytes) {
        if (failed_once.insert(file).second) {
          return Status::io_error("transient read failure");
        }
        return read_file(file, bytes);
      });
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.sleep_fn = [](std::uint64_t) {};
  scanned.set_retry_policy(retry);
  expect_scan_matches_tables(scanned, dir(), ScolOptions{});
  EXPECT_EQ(scanned.retry_stats().retries, files_.size());
  EXPECT_TRUE(scanned.gaps().empty());
}

TEST_F(InferFacilityScanTest, LeavesNoProjectionOnTheSource) {
  DirectorySeries fresh;
  ASSERT_TRUE(fresh.open(dir()).ok());
  std::vector<SnapshotTable> expected;
  fresh.visit_move([&expected](std::size_t, Snapshot&& snap) {
    expected.push_back(std::move(snap.table));
  });

  DirectorySeries series;
  ASSERT_TRUE(series.open(dir()).ok());
  (void)infer_facility(series);
  std::size_t week = 0;
  series.visit([&](std::size_t, const Snapshot& snap) {
    ASSERT_LT(week, expected.size());
    const SnapshotTable& want = expected[week++];
    ASSERT_EQ(snap.table.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(snap.table.path(i), want.path(i)) << i;
      ASSERT_EQ(snap.table.atime(i), want.atime(i)) << i;
      ASSERT_EQ(snap.table.ctime(i), want.ctime(i)) << i;
      ASSERT_EQ(snap.table.mtime(i), want.mtime(i)) << i;
      ASSERT_EQ(snap.table.mode(i), want.mode(i)) << i;
      ASSERT_EQ(snap.table.inode(i), want.inode(i)) << i;
      ASSERT_EQ(snap.table.stripe_count(i), want.stripe_count(i)) << i;
    }
  });
  EXPECT_EQ(week, expected.size());
}

}  // namespace
}  // namespace spider
