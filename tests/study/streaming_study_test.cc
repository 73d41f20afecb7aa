// Parity harness for the out-of-core pipeline (DESIGN.md §15): with a
// memory budget set, any mix of resident and streamed weeks — group-at-a-
// time decode, spill-join diffs, shell snapshots — must reproduce the
// resident reference study byte-for-byte at every thread count, with the
// group prefetch on or off, and on gapped, fault-damaged, and salvaging
// series. The fixtures write .scol files with a small row-group size so
// even test-scale weeks span several groups; the scan grain divides the
// group size, which is the alignment the production defaults also satisfy
// (kScanGrainRows divides ScolOptions::group_size).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/full_study.h"
#include "study/runner.h"
#include "synth/generator.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/timeutil.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

/// Groups per week stay small so multi-group streaming is exercised at
/// test scale; the grain divides it so chunk layout (and with it every
/// floating-point fold order) is identical resident or streamed.
constexpr std::size_t kTestGroupSize = 1024;
constexpr std::size_t kTestGrain = 512;

std::string render_bundle(const FullStudy& study) {
  std::string out;
  out += study.render_table1();
  out += study.render_data_quality();
  out += study.user_profile.render();
  out += study.participation.render();
  out += study.census.render();
  out += study.extensions.render();
  out += study.languages.render();
  out += study.access_patterns.render();
  out += study.striping.render();
  out += study.growth.render();
  out += study.file_age.render();
  out += study.burstiness.render();
  out += study.network.render();
  out += study.collaboration.render();
  return out;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Writes every generated week as a multi-group v2 .scol file.
void save_grouped_series(FacilityGenerator& generator,
                         const std::string& dir) {
  ScolOptions options;
  options.group_size = kTestGroupSize;
  generator.visit_move([&](std::size_t, Snapshot&& snap) {
    const std::string file =
        (fs::path(dir) / ("snap_" + date_tag(snap.taken_at) + ".scol"))
            .string();
    ASSERT_TRUE(write_scol_file(snap.table, file, options).ok());
  });
}

/// Flips one payload bit of an on-disk v2 .scol file.
void corrupt_scol_file(const std::string& file, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(file, &bytes).ok());
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(bytes, &layout).ok());
  FaultInjector injector(seed);
  injector.bit_flip(&bytes, layout.payload_start, bytes.size());
  ASSERT_TRUE(
      write_file_atomic(file, std::span<const std::uint8_t>(bytes)).ok());
}

/// Writes one small hand-built week per entry of `sizes` (10 directories
/// plus sizes[w] files) as multi-group .scol files. Files shared between
/// adjacent weeks land in every diff class: i%3==0 keeps all three
/// timestamps (untouched), i%3==1 moves only atime (readonly), i%3==2
/// moves mtime/ctime (updated).
void save_sized_series(const std::string& dir,
                       const std::vector<std::size_t>& sizes) {
  ScolOptions scol;
  scol.group_size = kTestGroupSize;
  for (std::size_t w = 0; w < sizes.size(); ++w) {
    const std::int64_t taken_at =
        epoch_from_civil({2015, 1, 5}) + static_cast<std::int64_t>(w) *
                                             kSecondsPerWeek;
    Snapshot snap;
    snap.taken_at = taken_at;
    for (std::size_t i = 0; i < 10; ++i) {
      RawRecord rec;
      rec.path = "/lustre/atlas1/proj/u1/d" + std::to_string(i);
      rec.mode = kModeDirectory | 0755;
      rec.atime = rec.ctime = rec.mtime = 1000;
      snap.table.add(rec);
    }
    for (std::size_t i = 0; i < sizes[w]; ++i) {
      RawRecord rec;
      rec.path = "/lustre/atlas1/proj/u1/f" + std::to_string(i);
      rec.mode = kModeRegular | 0644;
      rec.inode = i;
      rec.osts = {static_cast<std::uint32_t>(i % 4)};
      rec.atime = rec.ctime = rec.mtime = 2000 + static_cast<std::int64_t>(i);
      if (i % 3 == 1) rec.atime = taken_at;
      if (i % 3 == 2) rec.mtime = rec.ctime = taken_at;
      snap.table.add(rec);
    }
    const std::string file =
        (fs::path(dir) / ("snap_" + date_tag(taken_at) + ".scol")).string();
    ASSERT_TRUE(write_scol_file(snap.table, file, scol).ok());
  }
}

std::string run_bundle(const std::string& dir, const Resolver& resolver,
                       StudyOptions options,
                       const ScolOptions* scol = nullptr,
                       std::vector<std::string>* gap_lines = nullptr) {
  DirectorySeries series;
  EXPECT_TRUE(series.open(dir).ok());
  if (scol != nullptr) series.set_scol_options(*scol);
  options.grain = kTestGrain;
  FullStudy study(resolver, /*burst_min_files=*/5);
  study.run(series, options);
  if (gap_lines != nullptr) {
    gap_lines->clear();
    for (const SeriesGap& gap : study.gaps()) {
      gap_lines->push_back(gap.describe());
    }
  }
  return render_bundle(study);
}

/// Shared fixture: one generated facility series saved as multi-group
/// .scol files, re-analyzed resident and streaming under many settings.
class StreamingStudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("spider_streaming_study_test");
    FacilityConfig config;
    config.scale = 5e-5;
    config.weeks = 10;
    config.seed = 20150105;
    config.maintenance_gaps = false;
    generator_ = new FacilityGenerator(config);
    resolver_ = new Resolver(generator_->plan());
    save_grouped_series(*generator_, dir_->path());
  }
  static void TearDownTestSuite() {
    delete resolver_;
    delete generator_;
    delete dir_;
    resolver_ = nullptr;
    generator_ = nullptr;
    dir_ = nullptr;
  }

  static TempDir* dir_;
  static FacilityGenerator* generator_;
  static Resolver* resolver_;
};

TempDir* StreamingStudyTest::dir_ = nullptr;
FacilityGenerator* StreamingStudyTest::generator_ = nullptr;
Resolver* StreamingStudyTest::resolver_ = nullptr;

TEST_F(StreamingStudyTest, AllWeeksStreamedMatchResidentAcrossWidths) {
  // Resident reference: no budget.
  ThreadPool one(1);
  StudyOptions ref;
  ref.pool = &one;
  ref.prefetch = false;
  const std::string reference = run_bundle(dir_->path(), *resolver_, ref);
  ASSERT_GT(reference.size(), 1000u);

  // A 1-byte budget streams every week.
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
    for (const bool prefetch : {false, true}) {
      ThreadPool pool(threads);
      StudyOptions options;
      options.pool = &pool;
      options.prefetch = prefetch;
      options.memory_budget = 1;
      EXPECT_EQ(run_bundle(dir_->path(), *resolver_, options), reference)
          << "threads=" << threads << " prefetch=" << prefetch;
    }
  }
}

TEST_F(StreamingStudyTest, MixedResidencyBudgetMatchesResident) {
  // A budget sized to the median week streams the large weeks and keeps
  // the small ones resident, crossing the resident<->streamed boundary —
  // both spill-join directions — inside one run.
  std::vector<std::uint64_t> rows;
  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir_->path()).ok());
  for (const std::string& file : probe.files()) {
    ScolGroupReader reader;
    ASSERT_TRUE(reader.open(file).ok());
    rows.push_back(reader.rows());
  }
  std::sort(rows.begin(), rows.end());
  const std::uint64_t median = rows[rows.size() / 2];
  // The runner predicts ~160 resident bytes per row and gives the current
  // week half the budget, so this threshold sits at the median row count.
  const std::size_t budget = static_cast<std::size_t>(median) * 320;
  ASSERT_LT(rows.front(), median) << "budget would stream everything";

  ThreadPool one(1);
  StudyOptions ref;
  ref.pool = &one;
  ref.prefetch = false;
  const std::string reference = run_bundle(dir_->path(), *resolver_, ref);

  for (const bool incremental : {false, true}) {
    ThreadPool pool(4);
    StudyOptions options;
    options.pool = &pool;
    options.memory_budget = budget;
    options.incremental = incremental;
    EXPECT_EQ(run_bundle(dir_->path(), *resolver_, options), reference)
        << "mixed residency, incremental=" << incremental;
  }
}

TEST(StreamingStudyFaultTest, DamagedAndGappedSeriesStreamingParity) {
  TempDir dir("spider_streaming_fault_test");
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 10;
  config.seed = 20150105;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  Resolver resolver(generator.plan());
  save_grouped_series(generator, dir.path());

  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir.path()).ok());
  ASSERT_EQ(probe.files().size(), 10u);
  corrupt_scol_file(probe.files()[2], /*seed=*/21);
  corrupt_scol_file(probe.files()[6], /*seed=*/22);
  fs::remove(probe.files()[4]);

  // Strict salvage (the default): damaged weeks decay into gaps; the
  // streamed path must report the same gap text, because its group-order
  // replay fails at the same lowest damaged group with the same status.
  ThreadPool one(1);
  StudyOptions ref;
  ref.pool = &one;
  ref.prefetch = false;
  std::vector<std::string> ref_gaps;
  const std::string reference =
      run_bundle(dir.path(), resolver, ref, nullptr, &ref_gaps);
  ASSERT_EQ(ref_gaps.size(), 3u);

  for (const unsigned threads : {2u, 7u}) {
    for (const bool prefetch : {false, true}) {
      ThreadPool pool(threads);
      StudyOptions options;
      options.pool = &pool;
      options.prefetch = prefetch;
      options.memory_budget = 1;
      std::vector<std::string> gaps;
      EXPECT_EQ(run_bundle(dir.path(), resolver, options, nullptr, &gaps),
                reference)
          << "threads=" << threads << " prefetch=" << prefetch;
      EXPECT_EQ(gaps, ref_gaps);
    }
  }

  // Salvaging decode (kSkip): the same damage now yields degraded weeks
  // instead of gaps, and the streamed pass-A replay must drop exactly the
  // groups the eager decoder drops — global row numbering included.
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
  std::vector<std::string> skip_ref_gaps;
  const std::string skip_reference =
      run_bundle(dir.path(), resolver, ref, &salvage, &skip_ref_gaps);
  ASSERT_EQ(skip_ref_gaps.size(), 1u) << "only the deleted week remains a gap";
  EXPECT_NE(skip_reference, reference);

  for (const unsigned threads : {2u, 7u}) {
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.memory_budget = 1;
    std::vector<std::string> gaps;
    EXPECT_EQ(run_bundle(dir.path(), resolver, options, &salvage, &gaps),
              skip_reference)
        << "salvaging, threads=" << threads;
    EXPECT_EQ(gaps, skip_ref_gaps);
  }
}

/// Deletes this process's spill directories (spider-spill-<pid>-* under
/// the temp directory) from merge() of the third week it sees, and records
/// which weeks arrived, with or without a diff and a gap flag.
class ScratchLossAnalyzer : public StudyAnalyzer {
 public:
  bool wants_diff() const override { return true; }

  void merge(const WeekObservation& obs, ScanStateList) override {
    weeks.push_back(obs.week);
    had_diff.push_back(obs.diff != nullptr);
    gap_before.push_back(obs.gap_before);
    if (weeks.size() != 3) return;
    const std::string prefix =
        "spider-spill-" + std::to_string(::getpid()) + "-";
    for (const auto& entry :
         fs::directory_iterator(fs::temp_directory_path())) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        removed += fs::remove_all(entry.path());
      }
    }
  }

  std::vector<std::size_t> weeks;
  std::vector<bool> had_diff;
  std::vector<bool> gap_before;
  std::uintmax_t removed = 0;
};

// Losing the scratch directory mid-run is not the snapshot files' fault:
// a streamed week whose spill cannot be written still reaches every
// analyzer, like a resident week whose join side cannot be spilled, just
// without a diff and flagged as if a gap preceded it.
TEST(StreamingStudyFaultTest, ScratchLossDegradesLikeResident) {
  TempDir dir("spider_streaming_scratch_loss_test");
  const std::vector<std::size_t> sizes = {3000, 3000, 3000, 3000, 3000, 3000};
  save_sized_series(dir.path(), sizes);

  DirectorySeries series;
  ASSERT_TRUE(series.open(dir.path()).ok());
  ThreadPool pool(2);
  StudyOptions options;
  options.pool = &pool;
  options.grain = kTestGrain;
  options.memory_budget = 1;  // every week streams and spills
  ScratchLossAnalyzer probe;
  run_study(series, probe, options);

  EXPECT_GT(probe.removed, 0u) << "the spill directory was never found";
  EXPECT_TRUE(series.gaps().empty())
      << "a scratch failure blamed a readable file: "
      << series.gaps()[0].describe();
  ASSERT_EQ(probe.weeks, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  for (std::size_t w = 0; w < sizes.size(); ++w) {
    EXPECT_EQ(probe.had_diff[w], w == 1 || w == 2) << "week " << w;
    EXPECT_EQ(probe.gap_before[w], w >= 3) << "week " << w;
  }
}

/// Records every pool the study hands the series.
class PoolRecordingSeries : public DirectorySeries {
 public:
  void set_pool(ThreadPool* pool) override {
    pools.push_back(pool);
    DirectorySeries::set_pool(pool);
  }
  std::vector<ThreadPool*> pools;
};

/// Wants the diff, so an out-of-core run spills; counts the weeks.
class WeekCounter : public StudyAnalyzer {
 public:
  bool wants_diff() const override { return true; }
  void merge(const WeekObservation&, ScanStateList) override { ++weeks; }
  std::size_t weeks = 0;
};

// A resident run decodes its weeks on the study's pool; an out-of-core run
// decodes them on one thread (DESIGN.md §15), through a pool of one. Either
// way the study takes the pool back when it ends.
TEST(StreamingStudyPoolTest, OutOfCoreRunsDecodeOnOneThread) {
  TempDir dir("spider_streaming_decode_pool_test");
  save_sized_series(dir.path(), {3000, 3000, 3000});
  ThreadPool pool(4);
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
    PoolRecordingSeries series;
    ASSERT_TRUE(series.open(dir.path()).ok());
    StudyOptions options;
    options.pool = &pool;
    options.grain = kTestGrain;
    options.memory_budget = budget;
    WeekCounter counter;
    run_study(series, counter, options);
    ASSERT_EQ(counter.weeks, 3u);
    EXPECT_TRUE(series.gaps().empty());
    ASSERT_EQ(series.pools.size(), 2u) << "budget " << budget;
    EXPECT_EQ(series.pools[1], nullptr) << "budget " << budget;
    if (budget == 0) {
      EXPECT_EQ(series.pools[0], &pool);
    } else {
      ASSERT_NE(series.pools[0], nullptr);
      EXPECT_NE(series.pools[0], &pool);
      EXPECT_EQ(series.pools[0]->size(), 1u);
    }
  }
}

/// Records everything an analyzer can see per week — counts, flags, and
/// order-sensitive checksums of the diff lists — so a streamed run can be
/// compared field-for-field against the resident reference, and records
/// the week's table size separately to prove which weeks arrived as
/// shells.
class RecordingAnalyzer : public StudyAnalyzer {
 public:
  bool wants_diff() const override { return true; }

  void merge(const WeekObservation& obs, ScanStateList) override {
    std::string line = "week=" + std::to_string(obs.week);
    line += " rows=" + std::to_string(obs.row_count);
    line += " files=" + std::to_string(obs.file_count);
    line += " dirs=" + std::to_string(obs.dir_count);
    line += " gap=" + std::to_string(obs.gap_before);
    line += " degraded=" + std::to_string(obs.snap->degraded);
    if (obs.diff != nullptr) {
      line += " new=" + std::to_string(obs.diff->new_rows.size());
      line += " del=" + std::to_string(obs.diff->deleted_rows.size());
      line += " upd=" + std::to_string(obs.diff->updated_rows.size());
      line += " ro=" + std::to_string(obs.diff->readonly_rows.size());
      line += " unt=" + std::to_string(obs.diff->untouched_rows.size());
      line += " hash=" + std::to_string(diff_hash(*obs.diff));
    } else {
      line += " diff=none";
    }
    log.push_back(std::move(line));
    table_rows.push_back(obs.snap->table.size());
    modes.push_back(obs.diff_chunks != nullptr ? "fused"
                    : obs.diff != nullptr      ? "spilled"
                                               : "none");
  }

  std::vector<std::string> log;
  std::vector<std::size_t> table_rows;
  /// How each week's diff was computed: "fused" into the scan, "spilled"
  /// through the spill join before it, or "none".
  std::vector<std::string> modes;

 private:
  static std::uint64_t diff_hash(const DiffResult& diff) {
    std::uint64_t h = 0;
    for (const auto* rows :
         {&diff.new_rows, &diff.deleted_rows, &diff.updated_rows,
          &diff.readonly_rows, &diff.untouched_rows}) {
      h = hash_combine(
          h, hash_bytes(std::string_view(
                 reinterpret_cast<const char*>(rows->data()),
                 rows->size() * sizeof(std::uint32_t))));
    }
    return h;
  }
};

/// A delta-capable probe that logs, per week, whether it scanned the week
/// ("scan", from merge()) or took its WeekDelta ("delta").
class DeltaProbe : public StudyAnalyzer {
 public:
  bool supports_delta() const override { return true; }
  void merge(const WeekObservation&, ScanStateList) override {
    log.push_back("scan");
  }
  void apply_delta(const WeekObservation&, const WeekDelta&) override {
    log.push_back("delta");
  }

  std::vector<std::string> log;
};

// Small and large weeks in a row force every residency boundary —
// resident->resident, resident->streamed, streamed->streamed,
// streamed->resident — and the recording probes verify that streamed weeks
// really did arrive as empty shells while producing the exact resident
// diff, and pin the week plan: the diff is fused exactly when both weeks
// are resident, spilled when either streamed, and delta-capable analyzers
// take a delta only on fused weeks in incremental mode.
TEST(StreamingStudyBoundaryTest, AlternatingResidencyMatchesResident) {
  TempDir dir("spider_streaming_boundary_test");
  const std::vector<std::size_t> sizes = {400,  400, 6000, 6000, 400,
                                          6000, 400, 6000, 6000};
  save_sized_series(dir.path(), sizes);

  // Threshold between 400 and 6000 rows (the runner predicts ~160
  // resident bytes per row and halves the budget per side).
  const std::size_t budget = 2000 * 320;
  auto resident_under_budget = [&](std::size_t w) { return sizes[w] < 2000; };

  for (const bool incremental : {false, true}) {
    for (const bool prefetch : {false, true}) {
      SCOPED_TRACE("incremental=" + std::to_string(incremental) +
                   " prefetch=" + std::to_string(prefetch));
      auto run_probes = [&](std::size_t memory_budget,
                            RecordingAnalyzer* probe, DeltaProbe* delta) {
        DirectorySeries series;
        ASSERT_TRUE(series.open(dir.path()).ok());
        ThreadPool pool(4);
        StudyOptions options;
        options.pool = &pool;
        options.grain = kTestGrain;
        options.prefetch = prefetch;
        options.incremental = incremental;
        options.memory_budget = memory_budget;
        StudyAnalyzer* roster[] = {probe, delta};
        run_study(series, roster, options);
      };
      RecordingAnalyzer resident, streamed;
      DeltaProbe resident_delta, streamed_delta;
      run_probes(0, &resident, &resident_delta);
      run_probes(budget, &streamed, &streamed_delta);

      ASSERT_EQ(resident.log.size(), sizes.size());
      EXPECT_EQ(streamed.log, resident.log);
      ASSERT_EQ(streamed.modes.size(), sizes.size());
      ASSERT_EQ(resident_delta.log.size(), sizes.size());
      ASSERT_EQ(streamed_delta.log.size(), sizes.size());
      for (std::size_t w = 0; w < sizes.size(); ++w) {
        EXPECT_EQ(resident.table_rows[w], sizes[w] + 10);
        EXPECT_EQ(streamed.table_rows[w],
                  resident_under_budget(w) ? sizes[w] + 10 : 0u)
            << "week " << w << " residency";

        const std::string resident_mode = w == 0 ? "none" : "fused";
        const std::string streamed_mode =
            w == 0 ? "none"
            : resident_under_budget(w - 1) && resident_under_budget(w)
                ? "fused"
                : "spilled";
        EXPECT_EQ(resident.modes[w], resident_mode) << "week " << w;
        EXPECT_EQ(streamed.modes[w], streamed_mode) << "week " << w;
        auto expected_delta = [&](const std::string& mode) {
          return incremental && mode == "fused" ? "delta" : "scan";
        };
        EXPECT_EQ(resident_delta.log[w], expected_delta(resident_mode))
            << "week " << w;
        EXPECT_EQ(streamed_delta.log[w], expected_delta(streamed_mode))
            << "week " << w;
      }
    }
  }
}

}  // namespace
}  // namespace spider
