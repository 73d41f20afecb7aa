// Determinism harness for the morsel-driven study pipeline (DESIGN.md §10):
// every rendered result — Table 1, the data-quality report, and all twelve
// analyzer renders — must be byte-identical to the 1-thread reference at
// every thread count and with the decode prefetch on or off, including on
// gapped and fault-damaged series.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "diff_oracle.h"
#include "snapshot/record.h"
#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/full_study.h"
#include "synth/generator.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/parallel.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

/// Every user-visible string the study produces, concatenated. Two runs
/// agree iff this bundle is byte-identical.
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

std::string run_bundle(SnapshotSource& source, const Resolver& resolver,
                       const StudyOptions& options,
                       std::size_t burst_min_files = 10) {
  FullStudy study(resolver, burst_min_files);
  study.run(source, options);
  return render_bundle(study);
}

/// Shared fixture: simulate once, materialize in memory, re-analyze under
/// many thread settings.
class ScanDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FacilityConfig config;
    config.scale = 0.0001;
    config.weeks = 24;
    // The generator outlives the resolver: Resolver references its plan.
    generator_ = new FacilityGenerator(config);
    resolver_ = new Resolver(generator_->plan());
    series_ = new SnapshotSeries();
    generator_->visit_move([&](std::size_t, Snapshot&& snap) {
      series_->add(std::move(snap));
    });
  }
  static void TearDownTestSuite() {
    delete series_;
    delete resolver_;
    delete generator_;
    series_ = nullptr;
    resolver_ = nullptr;
    generator_ = nullptr;
  }

  static FacilityGenerator* generator_;
  static SnapshotSeries* series_;
  static Resolver* resolver_;
};

FacilityGenerator* ScanDeterminismTest::generator_ = nullptr;
SnapshotSeries* ScanDeterminismTest::series_ = nullptr;
Resolver* ScanDeterminismTest::resolver_ = nullptr;

TEST_F(ScanDeterminismTest, BundleIdenticalAcrossThreadCounts) {
  // Reference: one worker, no prefetch — the configuration closest to the
  // old serial runner.
  ThreadPool one(1);
  StudyOptions ref_options;
  ref_options.pool = &one;
  ref_options.prefetch = false;
  const std::string reference = run_bundle(*series_, *resolver_, ref_options);
  ASSERT_GT(reference.size(), 1000u);

  for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = true;
    const std::string bundle = run_bundle(*series_, *resolver_, options);
    EXPECT_EQ(bundle, reference) << "threads=" << threads << " prefetch=on";
  }

  // Prefetch off at a non-trivial thread count: the pipeline overlap must
  // not change results either.
  {
    ThreadPool pool(7);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = false;
    EXPECT_EQ(run_bundle(*series_, *resolver_, options), reference)
        << "threads=7 prefetch=off";
  }
}

TEST_F(ScanDeterminismTest, WeeklyDiffMatchesStandaloneDiff) {
  // Every week's diff — the fused kernel's on scan weeks, the prev-row
  // mapping and directory diff on incremental delta weeks — must equal the
  // standalone hash join on the same pair, at every width and prefetch
  // mode (see diff_oracle.h).
  for (const bool incremental : {false, true}) {
    for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
      for (const bool prefetch : {false, true}) {
        ThreadPool pool(threads);
        StudyOptions options;
        options.pool = &pool;
        options.prefetch = prefetch;
        options.incremental = incremental;
        DiffOracleAnalyzer oracle(
            "incremental=" + std::to_string(incremental) +
            " threads=" + std::to_string(threads) +
            " prefetch=" + std::to_string(prefetch));
        run_study(*series_, oracle, options);
        // 24 snapshots minus the first and the weeks after each gap.
        EXPECT_GT(oracle.checked_weeks, 15u);
        if (incremental) {
          EXPECT_EQ(oracle.delta_weeks, oracle.checked_weeks);
        } else {
          EXPECT_EQ(oracle.delta_weeks, 0u);
        }
      }
    }
  }
}

/// Serial recount of the extension and census figures straight from the
/// snapshots, with string-keyed std::unordered_map / std::unordered_set:
/// no flat tables, no dictionary, no chunks, and paths compared as strings
/// rather than through the table's path-hash column.
struct AggregationRecount {
  using Counts = std::unordered_map<std::string, std::uint64_t>;

  explicit AggregationRecount(const Resolver& resolver)
      : resolver(resolver),
        unique_by_domain(domain_count()),
        files_by_domain(domain_count(), 0),
        dirs_by_domain(domain_count(), 0) {}

  void add_week(const SnapshotTable& t) {
    Counts counts;
    std::uint64_t files = 0, none = 0;
    std::unordered_set<std::string> parents;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string path(t.path(i));
      parents.insert(std::string(path_parent(path)));
      const int project = resolver.project_of_gid(t.gid(i));
      const int domain =
          project < 0 ? -1 : resolver.plan().projects[project].domain;
      if (entries.insert(path).second) {
        if (t.is_dir(i)) {
          ++total_dirs;
          if (domain >= 0) ++dirs_by_domain[domain];
        } else {
          ++total_files;
          if (domain >= 0) ++files_by_domain[domain];
        }
      }
      if (t.is_dir(i)) continue;
      const std::string ext(path_extension(path));
      ++files;
      if (ext.empty()) {
        ++none;
      } else {
        ++counts[ext];
      }
      if (!unique_file_paths.insert(path).second) continue;
      ++unique_files;
      if (ext.empty()) {
        ++unique_no_extension;
        continue;
      }
      ++unique_by_ext[ext];
      if (domain >= 0) ++unique_by_domain[domain][ext];
    }
    final_dirs = 0;
    final_empty_dirs = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t.is_dir(i)) continue;
      ++final_dirs;
      if (!parents.contains(std::string(t.path(i)))) ++final_empty_dirs;
    }
    weekly.push_back(std::move(counts));
    weekly_files.push_back(files);
    weekly_none.push_back(none);
  }

  /// Largest count first, ties by name.
  static std::vector<std::pair<std::string, std::uint64_t>> ranked(
      const Counts& counts, std::size_t k) {
    std::vector<std::pair<std::string, std::uint64_t>> out(counts.begin(),
                                                           counts.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }

  void expect_matches(const ExtensionsResult& got,
                      const std::string& label) const {
    EXPECT_EQ(got.unique_files, unique_files) << label;
    EXPECT_EQ(got.unique_no_extension, unique_no_extension) << label;
    const auto top = ranked(unique_by_ext, 20);
    EXPECT_EQ(got.global_top, top) << label;
    ASSERT_EQ(got.top3_by_domain.size(), unique_by_domain.size()) << label;
    for (std::size_t d = 0; d < unique_by_domain.size(); ++d) {
      std::uint64_t domain_files = 0;
      for (const auto& [ext, count] : unique_by_domain[d]) {
        domain_files += count;
      }
      std::vector<std::pair<std::string, double>> want;
      for (const auto& [ext, count] : ranked(unique_by_domain[d], 3)) {
        want.emplace_back(ext, 100.0 * static_cast<double>(count) /
                                   static_cast<double>(domain_files));
      }
      EXPECT_EQ(got.top3_by_domain[d], want) << label << " domain=" << d;
    }
    ASSERT_EQ(got.share_top.size(), weekly.size()) << label;
    for (std::size_t w = 0; w < weekly.size(); ++w) {
      const double files = std::max<std::uint64_t>(1, weekly_files[w]);
      double covered = 0;
      std::vector<double> shares;
      for (const auto& [ext, count] : top) {
        const auto it = weekly[w].find(ext);
        shares.push_back(
            static_cast<double>(it == weekly[w].end() ? 0 : it->second) /
            files);
        covered += shares.back();
      }
      const double share_none = static_cast<double>(weekly_none[w]) / files;
      EXPECT_EQ(got.share_top[w], shares) << label << " week=" << w;
      EXPECT_EQ(got.share_none[w], share_none) << label << " week=" << w;
      EXPECT_EQ(got.share_other[w], std::max(0.0, 1.0 - covered - share_none))
          << label << " week=" << w;
    }
  }

  void expect_matches(const CensusResult& got,
                      const std::string& label) const {
    EXPECT_EQ(got.total_files, total_files) << label;
    EXPECT_EQ(got.total_dirs, total_dirs) << label;
    EXPECT_EQ(got.files_by_domain, files_by_domain) << label;
    EXPECT_EQ(got.dirs_by_domain, dirs_by_domain) << label;
    EXPECT_EQ(got.final_dirs, final_dirs) << label;
    EXPECT_EQ(got.final_empty_dirs, final_empty_dirs) << label;
  }

  const Resolver& resolver;
  // Extensions.
  std::unordered_set<std::string> unique_file_paths;
  std::uint64_t unique_files = 0;
  std::uint64_t unique_no_extension = 0;
  Counts unique_by_ext;
  std::vector<Counts> unique_by_domain;
  std::vector<Counts> weekly;
  std::vector<std::uint64_t> weekly_files, weekly_none;
  // Census.
  std::unordered_set<std::string> entries;
  std::uint64_t total_files = 0, total_dirs = 0;
  std::vector<std::uint64_t> files_by_domain, dirs_by_domain;
  std::uint64_t final_dirs = 0, final_empty_dirs = 0;
};

TEST_F(ScanDeterminismTest, AggregationsMatchSerialRecount) {
  AggregationRecount recount(*resolver_);
  series_->visit([&](std::size_t, const Snapshot& snap) {
    recount.add_week(snap.table);
  });
  ASSERT_GT(recount.unique_files, 1000u);
  ASSERT_GT(recount.final_empty_dirs, 0u);

  for (const bool incremental : {false, true}) {
    for (const unsigned threads : {1u, 2u, 7u, 0u}) {  // 0 = hardware
      ThreadPool pool(threads);
      StudyOptions options;
      options.pool = &pool;
      options.incremental = incremental;
      CensusAnalyzer census(*resolver_);
      ExtensionsAnalyzer extensions(*resolver_);
      StudyAnalyzer* roster[] = {&census, &extensions};
      run_study(*series_, roster, options);
      const std::string label = "incremental=" + std::to_string(incremental) +
                                " threads=" + std::to_string(threads);
      recount.expect_matches(extensions.result(), label);
      recount.expect_matches(census.result(), label);
    }
  }
}

TEST_F(ScanDeterminismTest, SmallGrainsForceManyChunks) {
  // A tiny grain makes every table span hundreds of chunks, exercising the
  // ordered merge far beyond what kScanGrainRows does at test scale.
  ThreadPool one(1);
  StudyOptions ref_options;
  ref_options.pool = &one;
  ref_options.prefetch = false;
  const std::string reference = run_bundle(*series_, *resolver_, ref_options);

  ThreadPool pool(4);
  StudyOptions options;
  options.pool = &pool;
  options.grain = 97;  // prime, misaligned with every table size
  const std::string bundle = run_bundle(*series_, *resolver_, options);

  // Many-chunk merges fold StreamingStats partials pairwise instead of
  // row-by-row, so only the grain — never the thread count or prefetch
  // mode — may move the last floating-point bits. Same grain, different
  // pools: byte-identical.
  ThreadPool other(2);
  StudyOptions options2 = options;
  options2.pool = &other;
  options2.prefetch = false;
  EXPECT_EQ(run_bundle(*series_, *resolver_, options2), bundle);
  ASSERT_GT(reference.size(), 1000u);
}

TEST(ScanDeterminismGapTest, GappedSeriesIdenticalAcrossThreadCounts) {
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 12;
  config.seed = 20150105;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  Resolver resolver(generator.plan());

  // Materialize with a hole at slot 5: gap_before handling and the skip
  // accounting must survive parallel analysis bit-for-bit.
  SnapshotSeries series;
  std::vector<Snapshot> snaps;
  generator.visit_move(
      [&](std::size_t, Snapshot&& snap) { snaps.push_back(std::move(snap)); });
  for (std::size_t w = 0; w < snaps.size(); ++w) {
    if (w == 5) {
      series.add_gap(snaps[w].taken_at,
                     Status::corruption("injected test gap"));
      continue;
    }
    series.add(std::move(snaps[w]));
  }

  ThreadPool one(1);
  StudyOptions serial;
  serial.pool = &one;
  serial.prefetch = false;
  const std::string reference = run_bundle(series, resolver, serial);
  EXPECT_NE(reference.find("gap"), std::string::npos);

  for (const unsigned threads : {2u, 7u}) {
    ThreadPool pool(threads);
    StudyOptions options;
    options.pool = &pool;
    options.prefetch = true;
    EXPECT_EQ(run_bundle(series, resolver, options), reference)
        << "threads=" << threads;
  }
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

// A damaged on-disk series must produce the same gaps, the same
// gap_pairs_skipped counts, and the same renders through the parallel
// runner (with projection pushdown and prefetch active) as through the
// serial configuration — decode damage accounting is not allowed to
// depend on the execution schedule.
TEST(ScanDeterminismFaultTest, DamagedSeriesParityWithSerialRunner) {
  TempDir dir("spider_scan_determinism_fault_test");
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 10;
  config.seed = 20150105;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  ASSERT_TRUE(save_series(generator, dir.path()).ok());

  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir.path()).ok());
  ASSERT_EQ(probe.files().size(), 10u);
  corrupt_scol_file(probe.files()[2], /*seed=*/21);
  corrupt_scol_file(probe.files()[6], /*seed=*/22);
  fs::remove(probe.files()[4]);

  Resolver resolver(generator.plan());

  // Serial configuration: decode-all columns would be the historical
  // behavior, but projection is applied by the runner in both cases; what
  // differs is the pool, the chunking, and the prefetch pipeline.
  DirectorySeries serial_series;
  ASSERT_TRUE(serial_series.open(dir.path()).ok());
  ThreadPool one(1);
  StudyOptions serial;
  serial.pool = &one;
  serial.prefetch = false;
  FullStudy serial_study(resolver, /*burst_min_files=*/5);
  serial_study.run(serial_series, serial);

  DirectorySeries parallel_series;
  ASSERT_TRUE(parallel_series.open(dir.path()).ok());
  ThreadPool pool(4);
  StudyOptions parallel;
  parallel.pool = &pool;
  parallel.prefetch = true;
  parallel.grain = 512;  // many chunks even at 5e-5 scale
  FullStudy parallel_study(resolver, /*burst_min_files=*/5);
  parallel_study.run(parallel_series, parallel);

  // Identical damage accounting...
  ASSERT_EQ(serial_study.gaps().size(), 3u);
  ASSERT_EQ(parallel_study.gaps().size(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(serial_study.gaps()[g].describe(),
              parallel_study.gaps()[g].describe());
  }
  EXPECT_EQ(serial_study.access_patterns.result().gap_pairs_skipped,
            parallel_study.access_patterns.result().gap_pairs_skipped);
  EXPECT_EQ(serial_study.burstiness.result().gap_pairs_skipped,
            parallel_study.burstiness.result().gap_pairs_skipped);
  EXPECT_EQ(serial_study.growth.result().gap_weeks,
            parallel_study.growth.result().gap_weeks);
  EXPECT_EQ(serial_study.render_data_quality(),
            parallel_study.render_data_quality());

  // ...and identical results everywhere else.
  EXPECT_EQ(render_bundle(serial_study), render_bundle(parallel_study));
}

}  // namespace
}  // namespace spider
