// Unit tests for the study runner: ordering, prev retention, shared diff,
// and the first-seen verdicts that census, extensions and languages share.
#include "study/runner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "diff_oracle.h"
#include "snapshot/record.h"
#include "snapshot/scol.h"
#include "study/census.h"
#include "study/extensions.h"
#include "study/languages.h"
#include "synth/generator.h"
#include "synth/langmap.h"
#include "util/parallel.h"
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

// --- Failures reach the caller --------------------------------------------

/// Throws from merge() at one week, after recording the weeks before it.
class ThrowingAnalyzer : public StudyAnalyzer {
 public:
  explicit ThrowingAnalyzer(std::size_t week) : week_(week) {}
  void merge(const WeekObservation& obs, ScanStateList) override {
    if (obs.week == week_) throw std::runtime_error("merge failed");
    weeks.push_back(obs.week);
  }
  void finish() override { finished = true; }

  std::vector<std::size_t> weeks;
  bool finished = false;

 private:
  std::size_t week_;
};

/// Hands a series' weeks over as a source that owns none of them (so the
/// runner takes them through visit_streaming), and throws from visit() on
/// reaching week `fail_at`.
class ThrowingSource : public SnapshotSource {
 public:
  ThrowingSource(SnapshotSeries& base, std::size_t fail_at)
      : base_(base), fail_at_(fail_at) {}
  std::size_t count() const override { return base_.count(); }
  void visit(const SnapshotVisitor& visitor) override {
    base_.visit([&](std::size_t week, const Snapshot& snap) {
      if (week == fail_at_) throw std::runtime_error("visit failed");
      visitor(week, snap);
    });
  }

 private:
  SnapshotSeries& base_;
  std::size_t fail_at_;
};

SnapshotSeries five_weeks() {
  SnapshotSeries series;
  for (int w = 0; w < 5; ++w) {
    series.add(make_snapshot(
        w, {"/lustre/atlas2/p/u/a", "/lustre/atlas2/p/u/b"}, 100 + w));
  }
  return series;
}

/// The message of the runtime_error `run` throws; empty when it returns.
std::string failure_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(StudyRunnerTest, AnalyzerExceptionReachesTheCaller) {
  for (const bool prefetch : {false, true}) {
    for (const bool stable : {true, false}) {
      SnapshotSeries series = five_weeks();
      ThrowingSource handed_over(series, /*fail_at=*/99);
      SnapshotSource& source =
          stable ? static_cast<SnapshotSource&>(series) : handed_over;
      ThrowingAnalyzer failing(/*week=*/2);
      RecordingAnalyzer differ(true);
      StudyAnalyzer* roster[] = {&differ, &failing};
      ThreadPool pool(2);
      StudyOptions options;
      options.pool = &pool;
      options.prefetch = prefetch;
      EXPECT_EQ(failure_of([&] { run_study(source, roster, options); }),
                "merge failed")
          << "prefetch " << prefetch << ", stable " << stable;
      EXPECT_EQ(failing.weeks, (std::vector<std::size_t>{0, 1}));
      EXPECT_FALSE(failing.finished);
    }
  }
}

TEST(StudyRunnerTest, SourceExceptionReachesTheCaller) {
  for (const bool prefetch : {false, true}) {
    SnapshotSeries series = five_weeks();
    ThrowingSource source(series, /*fail_at=*/3);
    RecordingAnalyzer differ(true);
    ThreadPool pool(2);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = prefetch;
    EXPECT_EQ(failure_of([&] { run_study(source, differ, options); }),
              "visit failed")
        << "prefetch " << prefetch;
    // Every week delivered before the failure was analyzed.
    EXPECT_EQ(differ.weeks, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_FALSE(differ.finished);
  }
}

// --- First-seen verdicts -------------------------------------------------

/// The three first-seen consumers, built against one resolver.
struct Trio {
  explicit Trio(const Resolver& resolver)
      : census(resolver), extensions(resolver), languages(resolver) {}
  CensusAnalyzer census;
  ExtensionsAnalyzer extensions;
  LanguagesAnalyzer languages;
};

/// The unique counts the three analyzers report, as plain maps.
struct UniqueCounts {
  std::uint64_t census_files = 0;
  std::uint64_t census_dirs = 0;
  std::vector<std::uint64_t> files_by_domain;
  std::vector<std::uint64_t> dirs_by_domain;
  std::uint64_t max_depth = 0;
  std::uint64_t unique_files = 0;
  std::uint64_t unique_no_extension = 0;
  std::map<std::string, std::uint64_t> by_extension;
  std::map<std::string, std::uint64_t> by_language;
  std::vector<std::vector<std::uint64_t>> languages_by_domain;

  bool operator==(const UniqueCounts&) const = default;
};

UniqueCounts census_counts(const CensusAnalyzer& census) {
  UniqueCounts out;
  const CensusResult& r = census.result();
  out.census_files = r.total_files;
  out.census_dirs = r.total_dirs;
  out.files_by_domain = r.files_by_domain;
  out.dirs_by_domain = r.dirs_by_domain;
  out.max_depth = r.max_depth;
  return out;
}

UniqueCounts extensions_counts(const ExtensionsAnalyzer& extensions) {
  UniqueCounts out;
  const ExtensionsResult& r = extensions.result();
  out.unique_files = r.unique_files;
  out.unique_no_extension = r.unique_no_extension;
  for (const auto& [ext, count] : r.global_top) out.by_extension[ext] = count;
  return out;
}

UniqueCounts languages_counts(const LanguagesAnalyzer& languages) {
  UniqueCounts out;
  const LanguagesResult& r = languages.result();
  for (const LanguageRank& rank : r.ranking) {
    out.by_language[rank.name] = rank.files;
  }
  out.languages_by_domain = r.by_domain;
  return out;
}

/// Everything the three analyzers report about unique paths, merged.
UniqueCounts trio_counts(const Trio& trio) {
  UniqueCounts out = census_counts(trio.census);
  const UniqueCounts ext = extensions_counts(trio.extensions);
  out.unique_files = ext.unique_files;
  out.unique_no_extension = ext.unique_no_extension;
  out.by_extension = ext.by_extension;
  const UniqueCounts lang = languages_counts(trio.languages);
  out.by_language = lang.by_language;
  out.languages_by_domain = lang.languages_by_domain;
  return out;
}

/// The oracle: the three distinct-path sets the analyzers kept before the
/// runner's shared map, replayed over every row in series order — census's
/// set over all rows, and one set each for extensions and languages over
/// file rows.
UniqueCounts oracle_counts(const SnapshotSeries& series,
                           const Resolver& resolver) {
  UniqueCounts out;
  out.files_by_domain.assign(domain_count(), 0);
  out.dirs_by_domain.assign(domain_count(), 0);
  out.languages_by_domain.assign(
      domain_count(), std::vector<std::uint64_t>(languages().size(), 0));
  std::set<std::uint64_t> census_seen, extensions_seen, languages_seen;
  for (std::size_t w = 0; w < series.count(); ++w) {
    const SnapshotTable& t = series.at(w).table;
    for (std::size_t r = 0; r < t.size(); ++r) {
      const std::uint64_t hash = t.path_hash(r);
      const int domain = resolver.domain_of_gid(t.gid(r));
      if (census_seen.insert(hash).second) {
        out.max_depth = std::max<std::uint64_t>(out.max_depth, t.depth(r));
        auto& by_domain = t.is_dir(r) ? out.dirs_by_domain
                                      : out.files_by_domain;
        ++(t.is_dir(r) ? out.census_dirs : out.census_files);
        if (domain >= 0) ++by_domain[static_cast<std::size_t>(domain)];
      }
      if (t.is_dir(r)) continue;
      const std::string ext(path_extension(t.path(r)));
      if (extensions_seen.insert(hash).second) {
        ++out.unique_files;
        if (ext.empty()) {
          ++out.unique_no_extension;
        } else {
          ++out.by_extension[ext];
        }
      }
      if (languages_seen.insert(hash).second) {
        const int lang = language_for_extension(ext);
        if (lang >= 0) {
          ++out.by_language[languages()[static_cast<std::size_t>(lang)].name];
          if (domain >= 0) {
            ++out.languages_by_domain[static_cast<std::size_t>(domain)]
                                     [static_cast<std::size_t>(lang)];
          }
        }
      }
    }
  }
  return out;
}

/// A hand-built series whose first-seen cases the three old sets resolve
/// differently: a directory that becomes a file (extensions and languages
/// count it, census does not count it again), a file that becomes a
/// directory, a file deleted and then recreated, and in the last week one
/// path repeated across a chunk boundary of grain 2 (rows 1 and 2, a
/// directory and then a file) and another (rows 3 and 4, a file twice).
class FirstSeenTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kGrain = 2;

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

  /// Two projects of different science domains.
  static const ProjectInfo& project(int which) {
    const ProjectInfo& first = plan_->projects.front();
    if (which == 0) return first;
    for (const ProjectInfo& p : plan_->projects) {
      if (p.domain != first.domain) return p;
    }
    return first;
  }

  static RawRecord entry(int which, const std::string& rel, bool dir,
                         std::int64_t stamp) {
    const ProjectInfo& p = project(which);
    RawRecord rec;
    rec.path = "/lustre/atlas2/" + p.name + "/u/" + rel;
    rec.atime = rec.ctime = rec.mtime = stamp;
    rec.uid = plan_->users[p.members.front()].uid;
    rec.gid = p.gid;
    rec.mode = dir ? kModeDirectory | 0775 : kModeRegular | 0664;
    if (!dir) rec.osts = {1, 2};
    return rec;
  }

  static Snapshot week(int w, const std::vector<RawRecord>& records) {
    Snapshot snap;
    snap.taken_at = epoch_from_civil({2015, 1, 12}) + w * kSecondsPerWeek;
    for (const RawRecord& rec : records) snap.table.add(rec);
    return snap;
  }

  static SnapshotSeries series() {
    SnapshotSeries s;
    s.add(week(0, {entry(0, "run", true, 100),
                   entry(0, "run/x.py", true, 100),   // becomes a file
                   entry(0, "run/y.c", false, 100),   // becomes a dir
                   entry(0, "run/gone.f90", false, 100),  // deleted
                   entry(1, "keep.dat", false, 100),
                   entry(1, "README", false, 100),
                   entry(1, "lib.R", false, 100)}));
    s.add(week(1, {entry(0, "run", true, 100),
                   entry(0, "run/x.py", false, 200),
                   entry(0, "run/y.c", true, 200),
                   entry(1, "keep.dat", false, 100),
                   entry(1, "README", false, 100),
                   entry(1, "lib.R", false, 100),
                   entry(1, "new.sh", false, 200),
                   entry(1, "notes", false, 200)}));
    s.add(week(2, {entry(0, "run", true, 100),
                   entry(1, "twin.R", true, 300),   // rows 1 and 2: one
                   entry(1, "twin.R", false, 300),  // path, two chunks
                   entry(0, "pair.sh", false, 300),  // rows 3 and 4
                   entry(0, "pair.sh", false, 300),
                   entry(0, "run/gone.f90", false, 300),  // recreated
                   entry(0, "run/x.py", false, 200),
                   entry(0, "run/y.c", true, 200),
                   entry(1, "keep.dat", false, 100),
                   entry(1, "new.sh", false, 200),
                   entry(1, "fresh.c", false, 300)}));
    return s;
  }

  /// Runs `roster` over the series at grain 2.
  static void run(SnapshotSource& source,
                  std::span<StudyAnalyzer* const> roster, unsigned threads,
                  bool incremental) {
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.grain = kGrain;
    options.incremental = incremental;
    run_study(source, roster, options);
  }

  static FacilityPlan* plan_;
  static Resolver* resolver_;
};

FacilityPlan* FirstSeenTest::plan_ = nullptr;
Resolver* FirstSeenTest::resolver_ = nullptr;

TEST_F(FirstSeenTest, TrioMatchesTheThreeSetOracle) {
  SnapshotSeries s = series();
  const UniqueCounts oracle = oracle_counts(s, *resolver_);
  // The cases the series is built for: x.py and twin.R count as files
  // for extensions and languages, but not again as census entries.
  ASSERT_EQ(oracle.census_files + oracle.census_dirs, 12u);
  ASSERT_EQ(oracle.unique_files, 11u);
  ASSERT_EQ(oracle.by_language.at("R"), 2u);
  ASSERT_EQ(oracle.by_language.at("Python"), 1u);
  for (const bool incremental : {false, true}) {
    for (const unsigned threads : {1u, 2u, 7u, 0u}) {
      Trio trio(*resolver_);
      StudyAnalyzer* roster[] = {&trio.census, &trio.extensions,
                                 &trio.languages};
      run(s, roster, threads, incremental);
      EXPECT_EQ(trio_counts(trio), oracle)
          << "threads=" << threads << " incremental=" << incremental;
    }
  }
}

TEST_F(FirstSeenTest, EverySubsetMatchesTheFullTrio) {
  SnapshotSeries s = series();
  for (const bool incremental : {false, true}) {
    Trio full(*resolver_);
    StudyAnalyzer* all[] = {&full.census, &full.extensions, &full.languages};
    run(s, all, 2, incremental);
    for (unsigned mask = 1; mask < 8; ++mask) {
      Trio trio(*resolver_);
      std::vector<StudyAnalyzer*> roster;
      if (mask & 1) roster.push_back(&trio.census);
      if (mask & 2) roster.push_back(&trio.extensions);
      if (mask & 4) roster.push_back(&trio.languages);
      run(s, roster, 2, incremental);
      const std::string label = "subset=" + std::to_string(mask) +
                                " incremental=" + std::to_string(incremental);
      if (mask & 1) {
        EXPECT_EQ(census_counts(trio.census), census_counts(full.census))
            << label;
        EXPECT_EQ(trio.census.render(), full.census.render()) << label;
      }
      if (mask & 2) {
        EXPECT_EQ(extensions_counts(trio.extensions),
                  extensions_counts(full.extensions))
            << label;
        EXPECT_EQ(trio.extensions.render(), full.extensions.render())
            << label;
      }
      if (mask & 4) {
        EXPECT_EQ(languages_counts(trio.languages),
                  languages_counts(full.languages))
            << label;
        EXPECT_EQ(trio.languages.render(), full.languages.render()) << label;
      }
    }
  }
}

/// Counts settled verdicts, and takes no delta: a delta week settles
/// verdicts for delta consumers only, so a run with it has no delta weeks.
class VerdictCounter : public StudyAnalyzer {
 public:
  bool wants_first_seen() const override { return true; }
  ColumnMask columns_needed() const override { return kColMaskNone; }
  std::unique_ptr<ScanChunkState> make_chunk_state() const override {
    return std::make_unique<Chunk>();
  }
  void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                     const ScanMorsel& m) override {
    static_cast<Chunk*>(state)->seen = &obs.first_seen->candidates(m);
  }
  void merge(const WeekObservation&, ScanStateList states) override {
    for (const auto& state : states) {
      for (const std::uint8_t bits : static_cast<Chunk*>(state.get())
                                         ->seen->bits) {
        if (bits & kFirstSeenEntry) ++entries;
        if (bits & kFirstSeenFile) ++files;
      }
    }
  }

  std::uint64_t entries = 0;
  std::uint64_t files = 0;

 private:
  struct Chunk : ScanChunkState {
    const FirstSeenChunk* seen = nullptr;
  };
};

TEST_F(FirstSeenTest, ScanOnlyConsumerMakesEveryWeekAScan) {
  SnapshotSeries s = series();
  const UniqueCounts oracle = oracle_counts(s, *resolver_);
  for (const bool with_counter : {false, true}) {
    VerdictCounter counter;
    DiffOracleAnalyzer diffs("with_counter=" + std::to_string(with_counter));
    Trio trio(*resolver_);
    std::vector<StudyAnalyzer*> roster = {&diffs, &trio.census,
                                          &trio.extensions, &trio.languages};
    if (with_counter) roster.push_back(&counter);
    run(s, roster, 2, /*incremental=*/true);
    EXPECT_EQ(trio_counts(trio), oracle) << "with_counter=" << with_counter;
    if (with_counter) {
      EXPECT_EQ(diffs.delta_weeks, 0u);
      EXPECT_EQ(counter.entries, oracle.census_files + oracle.census_dirs);
      EXPECT_EQ(counter.files, oracle.unique_files);
    } else {
      EXPECT_EQ(diffs.delta_weeks, 2u);
    }
  }
}

// A streamed week's scan stages one .scol row group at a time. With groups
// of 1000 rows and a grain of 512, the second group's first chunk starts
// at row 1000, and 1000 / 512 names the first group's second chunk: the
// first-seen lookup must go by the morsel's chunk index.
TEST(FirstSeenStreamTest, MisalignedGroupsMatchTheResidentRun) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("spider_first_seen_groups_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  FacilityConfig config;
  config.scale = 1e-5;
  config.weeks = 4;
  FacilityGenerator generator(config);
  ScolOptions scol;
  scol.group_size = 1000;
  std::size_t groups = 0;
  generator.visit_move([&](std::size_t, Snapshot&& snap) {
    groups += (snap.table.size() + scol.group_size - 1) / scol.group_size;
    ASSERT_TRUE(write_scol_file(snap.table,
                                (dir / ("snap_" + date_tag(snap.taken_at) +
                                        ".scol"))
                                    .string(),
                                scol)
                    .ok());
  });
  ASSERT_GT(groups, 8u) << "every week should span several groups";
  const Resolver resolver(generator.plan());

  const auto run_trio = [&](std::size_t budget) {
    DirectorySeries series;
    EXPECT_TRUE(series.open(dir.string()).ok());
    Trio trio(resolver);
    StudyAnalyzer* roster[] = {&trio.census, &trio.extensions,
                               &trio.languages};
    ThreadPool pool(2);
    StudyOptions options;
    options.pool = &pool;
    options.grain = 512;
    options.memory_budget = budget;
    run_study(series, roster, options);
    return trio.census.render() + trio.extensions.render() +
           trio.languages.render();
  };
  const std::string resident = run_trio(0);
  ASSERT_GT(resident.size(), 500u);
  EXPECT_EQ(run_trio(/*budget=*/1), resident);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace spider
