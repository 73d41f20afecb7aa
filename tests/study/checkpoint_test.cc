// Crash-recovery suite for the checkpoint/resume layer (DESIGN.md §14).
//
// The centerpiece is the kill-point sweep: a 12-week churned series — with
// one fully-corrupt week (a series gap) and one salvage-degraded week —
// is studied with checkpointing on while WriteFaultInjector simulates the
// process dying at EVERY stage of every checkpoint write, one kill index
// per run. Whatever partial state each crash leaves on disk, a fresh run
// pointed at the same checkpoint path must render the exact bytes of the
// uninterrupted run, at thread counts {1, 2, 7, hardware}.
//
// Around the sweep: codec round-trips, per-section damage inspection,
// corruption/truncation/torn-tail and version-skew checkpoints (re-baseline,
// never wrong output), roster mismatches, the scan-only re-baseline marker
// (FullStudy never resumes), and the checkpoint cadence knob. The runner
// encodes each image in place, hashes on its pool and writes behind the
// next week, so further cases pin what that must not change: the file at
// every width, the fingerprint against a serial fold, a save_state that
// gives up, and write outcomes counted by the time run_study returns.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "snapshot/record.h"
#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/access_patterns.h"
#include "study/census.h"
#include "study/checkpoint.h"
#include "study/extensions.h"
#include "study/file_age.h"
#include "study/full_study.h"
#include "study/growth.h"
#include "study/languages.h"
#include "study/participation.h"
#include "study/user_profile.h"
#include "synth/generator.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

// Every on-disk name this suite creates carries the pid: a concurrent
// invocation of the binary (ctest racing a manual run) must not clobber
// another instance's series directory or checkpoint files.
std::string unique_suffix() { return "_" + std::to_string(::getpid()); }

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

class InterceptorScope {
 public:
  explicit InterceptorScope(WriteInterceptor* i) { set_write_interceptor(i); }
  ~InterceptorScope() { set_write_interceptor(nullptr); }
};

/// The fully delta-capable roster: every analyzer serializes state, so its
/// checkpoints carry no re-baseline markers and CAN resume. (FullStudy
/// cannot — its scan-only analyzers record markers; see the dedicated
/// test below.)
struct DeltaStudy {
  explicit DeltaStudy(const Resolver& resolver)
      : user_profile(resolver),
        participation(resolver),
        census(resolver),
        extensions(resolver),
        languages(resolver) {}

  UserProfileAnalyzer user_profile;
  ParticipationAnalyzer participation;
  CensusAnalyzer census;
  ExtensionsAnalyzer extensions;
  LanguagesAnalyzer languages;
  AccessPatternsAnalyzer access_patterns;
  GrowthAnalyzer growth;
  FileAgeAnalyzer file_age;

  std::vector<StudyAnalyzer*> roster() {
    return {&user_profile, &participation,   &census,  &extensions,
            &languages,    &access_patterns, &growth,  &file_age};
  }

  std::string render() const {
    std::string out;
    out += user_profile.render();
    out += participation.render();
    out += census.render();
    out += extensions.render();
    out += languages.render();
    out += access_patterns.render();
    out += growth.render();
    out += file_age.render();
    return out;
  }
};

std::string render_gaps(std::span<const SeriesGap> gaps) {
  std::string out = "gaps: " + std::to_string(gaps.size()) + "\n";
  for (const SeriesGap& gap : gaps) out += "  " + gap.describe() + "\n";
  return out;
}

struct DeltaRun {
  std::string bundle;
  CheckpointReport report;
};

/// One study run over the on-disk series: DeltaStudy roster (less its
/// last `drop_last` analyzers, behind `extra` when set), salvage
/// decode, checkpointing at `ckpt_path` (empty = off). The bundle appends
/// the merged gap timeline, so damaged-week accounting is part of the
/// byte-identity check exactly as FullStudy::render_data_quality makes it.
DeltaRun run_delta(const std::string& dir, const Resolver& resolver,
                   unsigned threads, bool prefetch,
                   const std::string& ckpt_path, bool incremental = true,
                   std::size_t every = 1, bool resume = true,
                   std::size_t drop_last = 0,
                   StudyAnalyzer* extra = nullptr) {
  DirectorySeries series;
  EXPECT_TRUE(series.open(dir).ok());
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
  series.set_scol_options(salvage);

  DeltaStudy study(resolver);
  ThreadPool pool(threads);
  StudyOptions options;
  options.pool = &pool;
  options.prefetch = prefetch;
  options.incremental = incremental;
  options.checkpoint.path = ckpt_path;
  options.checkpoint.every = every;
  options.checkpoint.resume = resume;
  DeltaRun run;
  options.checkpoint_report = &run.report;
  std::vector<StudyAnalyzer*> roster = study.roster();
  roster.resize(roster.size() - drop_last);
  if (extra != nullptr) roster.insert(roster.begin(), extra);
  run_study(series, roster, options);

  run.bundle = study.render() + render_gaps(merge_gap_timelines(
                                    run.report.restored_gaps, series.gaps()));
  return run;
}

/// Shared fixture: a 12-week churned series on disk. Week slot 4's file is
/// wholly corrupt (decode fails -> series gap), week slot 7's file has one
/// damaged row group (salvage decode -> degraded snapshot). Built once;
/// every test reads it, none mutates it.
struct SeriesFixture {
  SeriesFixture() : dir("spider_checkpoint_test_series" + unique_suffix()) {
    init();
  }

  // Separate void member: gtest's fatal assertions cannot run inside a
  // constructor.
  void init() {
    FacilityConfig config;
    config.scale = 2e-5;
    config.weeks = 12;
    config.maintenance_gaps = false;
    config.churn_create = 0.05;
    config.churn_update = 0.05;
    config.churn_delete = 0.05;
    generator = std::make_unique<FacilityGenerator>(config);
    const Status saved = save_series(*generator, dir.path());
    if (!saved.ok()) {
      ADD_FAILURE() << "save_series: " << saved.to_string();
      return;
    }
    resolver = std::make_unique<Resolver>(generator->plan());

    DirectorySeries probe;
    const Status opened = probe.open(dir.path());
    if (!opened.ok()) {
      ADD_FAILURE() << "open: " << opened.to_string();
      return;
    }
    ASSERT_EQ(probe.files().size(), 12u);

    // Slot 4: destroy the header -> the whole week is a gap.
    {
      std::vector<std::uint8_t> bytes;
      ASSERT_TRUE(read_file(probe.files()[4], &bytes).ok());
      bytes[0] ^= 0xff;
      ASSERT_TRUE(write_file_atomic(probe.files()[4],
                                    std::span<const std::uint8_t>(bytes))
                      .ok());
    }
    // Slot 7: flip a payload bit -> one row group lost under salvage.
    {
      std::vector<std::uint8_t> bytes;
      ASSERT_TRUE(read_file(probe.files()[7], &bytes).ok());
      ScolV2Layout layout;
      ASSERT_TRUE(parse_scol_v2_layout(bytes, &layout).ok());
      FaultInjector injector(/*seed=*/97);
      injector.bit_flip(&bytes, layout.payload_start, bytes.size());
      ASSERT_TRUE(write_file_atomic(probe.files()[7],
                                    std::span<const std::uint8_t>(bytes))
                      .ok());
      SnapshotTable table;
      ScolOptions salvage;
      salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
      SalvageReport report;
      ASSERT_TRUE(decode_scol(bytes, &table, salvage, &report).ok());
      ASSERT_FALSE(report.clean()) << "expected a salvage-degraded week";
    }

    // The uninterrupted references: the scan pipeline and the incremental
    // engine must already agree (PR 6's guarantee) before crash recovery
    // is asked to reproduce them.
    reference = run_delta(dir.path(), *resolver, 1, false, "").bundle;
    const std::string scan_reference =
        run_delta(dir.path(), *resolver, 1, false, "", /*incremental=*/false)
            .bundle;
    ASSERT_GT(reference.size(), 1000u);
    ASSERT_EQ(reference, scan_reference);
    ASSERT_NE(reference.find("gaps: 1"), std::string::npos);
  }

  TempDir dir;
  std::unique_ptr<FacilityGenerator> generator;
  std::unique_ptr<Resolver> resolver;
  std::string reference;
};

const SeriesFixture& fixture() {
  // By value, not leaked: TempDir's destructor removes the series
  // directory at process exit.
  static SeriesFixture fx;
  return fx;
}

std::string temp_ckpt(const std::string& name) {
  return (fs::temp_directory_path() / (name + unique_suffix())).string();
}

TEST(CheckpointCodecTest, RoundTripsEveryField) {
  StudyCheckpoint ckpt;
  ckpt.week = 17;
  ckpt.taken_at = 1420416000;
  ckpt.degraded = true;
  ckpt.table_fingerprint = 0xfeedfacecafebeefULL;
  ckpt.columns_mask = kColMaskPaths | kColMaskUid;
  ckpt.grain = 4096;
  ckpt.hash_probe = checkpoint_hash_probe();
  ckpt.gaps.push_back(SeriesGap{
      3, 1420000000, "snap_20150101.scol",
      Status::corruption("group 2 checksum mismatch")
          .caused_by(Status::io_error("short read"))});
  ckpt.gaps.push_back(
      SeriesGap{5, 1420100000, "", Status::not_found("no snapshot collected")});
  AnalyzerCheckpoint a;
  a.id = "census";
  a.version = 1;
  a.has_state = true;
  a.blob = {1, 2, 3, 4, 5};
  ckpt.analyzers.push_back(a);
  AnalyzerCheckpoint marker;
  marker.id = "striping";
  marker.version = 2;
  marker.has_state = false;
  ckpt.analyzers.push_back(marker);

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_checkpoint(ckpt, &bytes).ok());
  StudyCheckpoint out;
  ASSERT_TRUE(decode_checkpoint(bytes, &out).ok());
  EXPECT_EQ(out.week, ckpt.week);
  EXPECT_EQ(out.taken_at, ckpt.taken_at);
  EXPECT_EQ(out.degraded, ckpt.degraded);
  EXPECT_EQ(out.table_fingerprint, ckpt.table_fingerprint);
  EXPECT_EQ(out.columns_mask, ckpt.columns_mask);
  EXPECT_EQ(out.grain, ckpt.grain);
  EXPECT_EQ(out.hash_probe, ckpt.hash_probe);
  ASSERT_EQ(out.gaps.size(), 2u);
  // describe() renders the full cause chain; it must survive the round
  // trip byte-for-byte or resumed data-quality sections would drift.
  EXPECT_EQ(out.gaps[0].describe(), ckpt.gaps[0].describe());
  EXPECT_EQ(out.gaps[1].describe(), ckpt.gaps[1].describe());
  ASSERT_EQ(out.analyzers.size(), 2u);
  EXPECT_EQ(out.analyzers[0].id, "census");
  EXPECT_TRUE(out.analyzers[0].has_state);
  EXPECT_EQ(out.analyzers[0].blob, a.blob);
  EXPECT_EQ(out.analyzers[1].id, "striping");
  EXPECT_EQ(out.analyzers[1].version, 2u);
  EXPECT_FALSE(out.analyzers[1].has_state);
}

TEST(CheckpointCodecTest, InspectionWalksSectionsAndFlagsDamage) {
  StudyCheckpoint ckpt;
  ckpt.week = 3;
  ckpt.hash_probe = checkpoint_hash_probe();
  AnalyzerCheckpoint a;
  a.id = "growth";
  a.version = 1;
  a.has_state = true;
  a.blob = {9, 9};
  ckpt.analyzers.push_back(a);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(encode_checkpoint(ckpt, &bytes).ok());

  const CheckpointInspection clean = inspect_checkpoint_bytes(bytes);
  EXPECT_TRUE(clean.ok);
  EXPECT_FALSE(clean.version_skew);
  // magic + runner + gaps + one analyzer.
  ASSERT_EQ(clean.sections.size(), 4u);
  EXPECT_EQ(clean.sections[1].name, "runner");
  EXPECT_NE(clean.sections[1].detail.find("week 3"), std::string::npos);
  EXPECT_NE(clean.sections[3].name.find("growth"), std::string::npos);

  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() - 1] ^= 0x01;  // inside the analyzer payload
  const CheckpointInspection damaged = inspect_checkpoint_bytes(flipped);
  EXPECT_FALSE(damaged.ok);
  EXPECT_FALSE(damaged.version_skew);

  std::vector<std::uint8_t> skewed = bytes;
  skewed[5] = '9';
  skewed[6] = '9';
  skewed[7] = '9';
  const CheckpointInspection skew = inspect_checkpoint_bytes(skewed);
  EXPECT_FALSE(skew.ok);
  EXPECT_TRUE(skew.version_skew);
}

/// table_fingerprint as it was written before its hashing moved onto a
/// pool: one serial fold, column by column, then row by row. The oracle
/// for the pooled version.
std::uint64_t serial_fingerprint(const SnapshotTable& table,
                                 ColumnMask columns) {
  const auto fold_span = [](std::uint64_t h, const auto& span) {
    const std::string_view view =
        span.empty() ? std::string_view()
                     : std::string_view(
                           reinterpret_cast<const char*>(span.data()),
                           span.size_bytes());
    return hash_combine(h, hash_bytes(view));
  };
  std::uint64_t h = hash_combine(table.size(), table.file_count());
  if (columns & kColMaskPaths) {
    h = fold_span(h, table.path_hashes());
    h = fold_span(h, table.depths());
  }
  if (columns & kColMaskAtime) h = fold_span(h, table.atimes());
  if (columns & kColMaskCtime) h = fold_span(h, table.ctimes());
  if (columns & kColMaskMtime) h = fold_span(h, table.mtimes());
  if (columns & kColMaskUid) h = fold_span(h, table.uids());
  if (columns & kColMaskGid) h = fold_span(h, table.gids());
  if (columns & kColMaskMode) h = fold_span(h, table.modes());
  if (columns & kColMaskInode) h = fold_span(h, table.inodes());
  if (columns & kColMaskOsts) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      h = fold_span(h, table.osts(i));
    }
  }
  return h;
}

TEST(CheckpointCodecTest, TableFingerprintMatchesTheSerialFold) {
  // Enough rows that the OST hashing splits into many chunks; every third
  // row (the directories) has no OST list.
  SnapshotTable table;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    const bool dir = i % 3 == 0;
    std::vector<std::uint32_t> osts;
    if (!dir) {
      for (std::uint32_t k = 0; k <= i % 4; ++k) osts.push_back(i * 7 + k);
    }
    table.add("/lustre/atlas/proj" + std::to_string(i % 17) + "/f" +
                  std::to_string(i),
              1000 + i, 2000 + i, 3000 + i, i % 5, i % 11,
              dir ? kModeDirectory | 0755 : 0100644, 90000 + i, osts);
  }
  const SnapshotTable empty;
  const ColumnMask masks[] = {kColMaskAll, kColMaskOsts,
                              kColMaskPaths | kColMaskUid, kColMaskNone};
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    ThreadPool pool(threads);
    for (const ColumnMask mask : masks) {
      EXPECT_EQ(table_fingerprint(table, mask, &pool),
                serial_fingerprint(table, mask))
          << "threads=" << threads << " mask=" << mask;
      EXPECT_EQ(table_fingerprint(empty, mask, &pool),
                serial_fingerprint(empty, mask))
          << "threads=" << threads << " mask=" << mask;
    }
  }
}

// The acceptance sweep: crash the checkpoint writer at every write stage
// it ever executes, at one thread width per instance, and require the
// resumed run to reproduce the uninterrupted bundle byte-for-byte — gap
// week, salvaged week, and all. Each width is its own ctest entry
// (tests/CMakeLists.txt), so `ctest -j` runs the widths side by side.
class CheckpointKillSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CheckpointKillSweepTest, EveryCrashPointResumesByteIdentical) {
  const SeriesFixture& fx = fixture();
  const unsigned threads = GetParam();  // 0 = hardware
  const std::string ckpt =
      temp_ckpt("spider_ckpt_sweep_" + std::to_string(threads) + ".sckpt");
  fs::remove(ckpt);

  // Probe run: count the write stages and confirm checkpointing itself
  // does not perturb the rendered bundle.
  std::size_t total_ops = 0;
  {
    WriteFaultInjector probe(/*seed=*/11);
    InterceptorScope scope(&probe);
    const DeltaRun run =
        run_delta(fx.dir.path(), *fx.resolver, threads, true, ckpt);
    ASSERT_EQ(run.bundle, fx.reference) << "threads=" << threads;
    EXPECT_FALSE(run.report.resumed);
    EXPECT_EQ(run.report.checkpoints_written, 11u);  // 12 slots - 1 gap
    EXPECT_FALSE(probe.killed());
    total_ops = probe.ops_seen();
  }
  ASSERT_EQ(total_ops, 55u) << "threads=" << threads;  // 11 writes x 5 ops

  std::size_t resumed_runs = 0;
  for (std::size_t kill = 0; kill < total_ops; ++kill) {
    fs::remove(ckpt);
    {
      // The "crashed program": its checkpoint writer dies at stage
      // `kill`; its own results are discarded, only the disk state
      // it leaves matters.
      WriteFaultInjector injector(/*seed=*/100 + kill, kill);
      InterceptorScope scope(&injector);
      const DeltaRun crashed =
          run_delta(fx.dir.path(), *fx.resolver, threads, true, ckpt);
      EXPECT_TRUE(injector.killed());
      EXPECT_GT(crashed.report.write_failures, 0u);
    }
    const DeltaRun resumed =
        run_delta(fx.dir.path(), *fx.resolver, threads, true, ckpt);
    ASSERT_EQ(resumed.bundle, fx.reference)
        << "threads=" << threads << " kill_at=" << kill;
    if (resumed.report.resumed) ++resumed_runs;
  }
  // Most kill points leave a complete earlier checkpoint behind; the
  // sweep must actually exercise the resume path, not just fresh runs.
  EXPECT_GT(resumed_runs, total_ops / 2) << "threads=" << threads;

  // Clean up torn temp files the simulated crashes left behind.
  fs::remove(ckpt);
  for (const auto& entry :
       fs::directory_iterator(fs::temp_directory_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("spider_ckpt_sweep_", 0) == 0 &&
        name.find(unique_suffix()) != std::string::npos) {
      fs::remove(entry.path());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CheckpointKillSweepTest,
                         ::testing::Values(1u, 2u, 7u, 0u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return info.param == 0
                                      ? std::string("hw")
                                      : "t" + std::to_string(info.param);
                         });

// Checkpoint taken immediately before the series gap: the resumed run must
// restore the gap suppression (no diff spans a gap) and the damage
// accounting — including the case where the gap week is never re-read
// because the checkpoint already recorded it.
TEST(CheckpointResumeTest, ResumeAcrossGapPreservesDataQuality) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_gap.sckpt");

  // Kill at op 20 = the kOpen of the checkpoint AFTER week 3 — disk holds
  // exactly the week-3 checkpoint, the last week before the gap at slot 4.
  fs::remove(ckpt);
  {
    WriteFaultInjector injector(/*seed=*/5, /*kill_at_op=*/20);
    InterceptorScope scope(&injector);
    (void)run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  }
  {
    const DeltaRun resumed = run_delta(fx.dir.path(), *fx.resolver, 2, true,
                                       ckpt);
    EXPECT_TRUE(resumed.report.resumed);
    EXPECT_EQ(resumed.report.resumed_week, 3u);
    // Week < 4 checkpoints predate the gap discovery: the resumed
    // traversal re-reads slot 4 itself and rediscovers the damage live.
    EXPECT_TRUE(resumed.report.restored_gaps.empty());
    EXPECT_EQ(resumed.bundle, fx.reference);
  }

  // Kill at op 30 = after the sixth checkpoint landed. Checkpoints cover
  // analyzed weeks only (slot 4 is the gap), so that checkpoint holds
  // week 6, recorded the slot-4 gap, and the resumed run starts past the
  // damage — the corrupt file is never re-read, so the restored timeline
  // is the only witness of that week.
  fs::remove(ckpt);
  {
    WriteFaultInjector injector(/*seed=*/6, /*kill_at_op=*/30);
    InterceptorScope scope(&injector);
    (void)run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  }
  {
    const DeltaRun resumed = run_delta(fx.dir.path(), *fx.resolver, 2, true,
                                       ckpt);
    EXPECT_TRUE(resumed.report.resumed);
    EXPECT_EQ(resumed.report.resumed_week, 6u);
    ASSERT_EQ(resumed.report.restored_gaps.size(), 1u);
    EXPECT_EQ(resumed.report.restored_gaps[0].week, 4u);
    EXPECT_EQ(resumed.bundle, fx.reference);
  }
  fs::remove(ckpt);
}

// Damaged checkpoints must re-baseline — never resume onto bad state,
// never fail the study.
TEST(CheckpointResumeTest, CorruptCheckpointRebaselinesCleanly) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_corrupt.sckpt");
  fs::remove(ckpt);
  (void)run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  std::vector<std::uint8_t> intact;
  ASSERT_TRUE(read_file(ckpt, &intact).ok());

  std::uint64_t seed = 400;
  for (const FaultKind kind :
       {FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kTornTail}) {
    std::vector<std::uint8_t> damaged = intact;
    FaultInjector injector(seed++);
    const FaultEvent event = injector.inject(kind, &damaged);
    ASSERT_TRUE(
        write_file_atomic(ckpt, std::span<const std::uint8_t>(damaged)).ok());
    EXPECT_FALSE(inspect_checkpoint_bytes(damaged).ok) << event.describe();

    const DeltaRun run = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
    EXPECT_FALSE(run.report.resumed) << event.describe();
    EXPECT_FALSE(run.report.rebaseline_reason.empty()) << event.describe();
    EXPECT_EQ(run.bundle, fx.reference) << event.describe();
  }
  fs::remove(ckpt);
}

TEST(CheckpointResumeTest, VersionSkewRebaselines) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_skew.sckpt");
  fs::remove(ckpt);
  (void)run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(ckpt, &bytes).ok());
  bytes[5] = '9';
  bytes[6] = '9';
  bytes[7] = '9';
  ASSERT_TRUE(
      write_file_atomic(ckpt, std::span<const std::uint8_t>(bytes)).ok());

  const DeltaRun run = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  EXPECT_FALSE(run.report.resumed);
  EXPECT_NE(run.report.rebaseline_reason.find("version skew"),
            std::string::npos)
      << run.report.rebaseline_reason;
  EXPECT_EQ(run.bundle, fx.reference);
  fs::remove(ckpt);
}

// A checkpoint from a different analyzer roster does not line up with the
// running study; it must re-baseline with the reason naming the mismatch.
TEST(CheckpointResumeTest, RosterMismatchRebaselines) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_roster.sckpt");
  fs::remove(ckpt);
  (void)run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);

  // Same series, one analyzer fewer.
  const std::string short_reference =
      run_delta(fx.dir.path(), *fx.resolver, 1, false, "", true, 1, true,
                /*drop_last=*/1)
          .bundle;
  const DeltaRun run =
      run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt, true, 1, true,
                /*drop_last=*/1);
  EXPECT_FALSE(run.report.resumed);
  EXPECT_FALSE(run.report.rebaseline_reason.empty());
  EXPECT_EQ(run.bundle, short_reference);
  fs::remove(ckpt);
}

// FullStudy contains scan-only analyzers, whose checkpoints are
// re-baseline markers: its runs write checkpoints but can never resume
// from them — always degrading to the (correct) full run.
TEST(CheckpointResumeTest, ScanOnlyMarkersForceFullRun) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_markers.sckpt");
  fs::remove(ckpt);

  const auto run_full = [&](const std::string& path,
                            CheckpointReport* report) {
    DirectorySeries series;
    EXPECT_TRUE(series.open(fx.dir.path()).ok());
    ScolOptions salvage;
    salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
    series.set_scol_options(salvage);
    FullStudy study(*fx.resolver, /*burst_min_files=*/5);
    ThreadPool pool(2);
    StudyOptions options;
    options.pool = &pool;
    options.incremental = true;
    options.checkpoint.path = path;
    options.checkpoint_report = report;
    study.run(series, options);
    return study.render_table1() + study.render_data_quality();
  };

  CheckpointReport first;
  const std::string reference = run_full("", nullptr);
  const std::string checkpointed = run_full(ckpt, &first);
  EXPECT_EQ(checkpointed, reference);
  EXPECT_GT(first.checkpoints_written, 0u);

  CheckpointReport second;
  const std::string resumed = run_full(ckpt, &second);
  EXPECT_FALSE(second.resumed);
  EXPECT_NE(second.rebaseline_reason.find("re-baseline marker"),
            std::string::npos)
      << second.rebaseline_reason;
  EXPECT_EQ(resumed, reference);
  fs::remove(ckpt);
}

TEST(CheckpointResumeTest, NonIncrementalRunRecordsWhyCheckpointingIsOff) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_scanmode.sckpt");
  fs::remove(ckpt);
  const DeltaRun run = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt,
                                 /*incremental=*/false);
  EXPECT_EQ(run.report.checkpoints_written, 0u);
  EXPECT_NE(run.report.rebaseline_reason.find("incremental"),
            std::string::npos)
      << run.report.rebaseline_reason;
  EXPECT_FALSE(fs::exists(ckpt));
  EXPECT_EQ(run.bundle, fx.reference);
}

TEST(CheckpointResumeTest, ResumeOffIgnoresExistingCheckpoint) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_noresume.sckpt");
  fs::remove(ckpt);
  (void)run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  ASSERT_TRUE(fs::exists(ckpt));
  const DeltaRun run = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt,
                                 true, 1, /*resume=*/false);
  EXPECT_FALSE(run.report.resumed);
  EXPECT_TRUE(run.report.rebaseline_reason.empty());
  EXPECT_EQ(run.bundle, fx.reference);
  fs::remove(ckpt);
}

TEST(CheckpointResumeTest, CadenceEveryNWritesFewerCheckpoints) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_cadence.sckpt");
  fs::remove(ckpt);
  const DeltaRun sparse = run_delta(fx.dir.path(), *fx.resolver, 2, true,
                                    ckpt, true, /*every=*/3);
  EXPECT_EQ(sparse.report.checkpoints_written, 3u);  // 11 analyzed weeks / 3
  EXPECT_EQ(sparse.bundle, fx.reference);

  // The file holds the week analyzed at the last cadence boundary; a
  // resume from it still lands on the reference.
  const DeltaRun resumed =
      run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt, true, 3);
  EXPECT_TRUE(resumed.report.resumed);
  EXPECT_EQ(resumed.bundle, fx.reference);
  fs::remove(ckpt);
}

/// Delta-capable, so a run with it checkpoints, but its save_state writes
/// part of a blob and then gives up.
class HalfSaveAnalyzer : public StudyAnalyzer {
 public:
  bool supports_delta() const override { return true; }
  std::string_view state_id() const override { return "half-save"; }
  bool save_state(StateWriter& w) const override {
    w.str("partial state");
    w.u64(42);
    return false;
  }
};

TEST(CheckpointResumeTest, FailedSaveLeavesAnEmptyMarker) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_half_save.sckpt");
  fs::remove(ckpt);
  HalfSaveAnalyzer half;
  const DeltaRun run = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt,
                                 true, 1, true, 0, &half);
  EXPECT_EQ(run.report.checkpoints_written, 11u);
  EXPECT_EQ(run.bundle, fx.reference);

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(ckpt, &bytes).ok());
  StudyCheckpoint decoded;
  ASSERT_TRUE(decode_checkpoint(bytes, &decoded).ok());
  ASSERT_EQ(decoded.analyzers.size(), 9u);
  EXPECT_EQ(decoded.analyzers[0].id, "half-save");
  EXPECT_FALSE(decoded.analyzers[0].has_state);
  EXPECT_TRUE(decoded.analyzers[0].blob.empty());
  // The sections behind the marker are intact.
  for (std::size_t i = 1; i < decoded.analyzers.size(); ++i) {
    EXPECT_TRUE(decoded.analyzers[i].has_state) << decoded.analyzers[i].id;
  }
  std::vector<std::uint8_t> reencoded;
  ASSERT_TRUE(encode_checkpoint(decoded, &reencoded).ok());
  EXPECT_EQ(reencoded, bytes);

  // A run pointed at it re-baselines on the marker.
  HalfSaveAnalyzer again;
  const DeltaRun rerun = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt,
                                   true, 1, true, 0, &again);
  EXPECT_FALSE(rerun.report.resumed);
  EXPECT_NE(rerun.report.rebaseline_reason.find("re-baseline marker"),
            std::string::npos)
      << rerun.report.rebaseline_reason;
  fs::remove(ckpt);
}

// Each checkpoint is written behind the next week; the run waits for the
// last one, so the report counts every due write when run_study returns.
TEST(CheckpointResumeTest, WriteOutcomesAreCountedWhenTheRunReturns) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt = temp_ckpt("spider_ckpt_outcomes.sckpt");
  // Each write has 5 stages: op 50 opens the 11th and last write, op 27
  // is inside the 6th. A dead writer fails every later write too.
  for (const bool prefetch : {true, false}) {
    for (const std::size_t kill : {50u, 27u}) {
      fs::remove(ckpt);
      WriteFaultInjector injector(/*seed=*/17, kill);
      InterceptorScope scope(&injector);
      const DeltaRun run =
          run_delta(fx.dir.path(), *fx.resolver, 2, prefetch, ckpt);
      const std::size_t failed = 11 - kill / 5;
      EXPECT_EQ(run.report.checkpoints_written, 11 - failed)
          << "kill=" << kill << " prefetch=" << prefetch;
      EXPECT_EQ(run.report.write_failures, failed)
          << "kill=" << kill << " prefetch=" << prefetch;
      EXPECT_TRUE(injector.killed());
      const std::string why = run.report.first_write_failure.to_string();
      EXPECT_NE(why.find("injected fault"), std::string::npos) << why;
      EXPECT_NE(why.find(ckpt), std::string::npos) << why;
      EXPECT_EQ(run.bundle, fx.reference);
    }
  }
  for (const auto& entry :
       fs::directory_iterator(fs::temp_directory_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("spider_ckpt_outcomes", 0) == 0 &&
        name.find(unique_suffix()) != std::string::npos) {
      fs::remove(entry.path());
    }
  }
}

TEST(CheckpointResumeTest, MissingDirectoryFailsEveryWriteWithThePath) {
  const SeriesFixture& fx = fixture();
  const std::string ckpt =
      (fs::temp_directory_path() / ("spider_no_such_dir" + unique_suffix()) /
       "x.sckpt")
          .string();
  const DeltaRun run = run_delta(fx.dir.path(), *fx.resolver, 2, true, ckpt);
  EXPECT_EQ(run.report.checkpoints_written, 0u);
  EXPECT_EQ(run.report.write_failures, 11u);
  EXPECT_FALSE(run.report.first_write_failure.ok());
  const std::string why = run.report.first_write_failure.to_string();
  EXPECT_NE(why.find(ckpt), std::string::npos) << why;
  EXPECT_EQ(run.bundle, fx.reference);
  EXPECT_FALSE(fs::exists(fs::path(ckpt).parent_path()));
}

/// The checkpoint file a width-1 run of the delta roster leaves behind.
const std::vector<std::uint8_t>& width1_checkpoint() {
  static const std::vector<std::uint8_t> bytes = [] {
    const SeriesFixture& fx = fixture();
    const std::string ckpt = temp_ckpt("spider_ckpt_file_ref.sckpt");
    fs::remove(ckpt);
    (void)run_delta(fx.dir.path(), *fx.resolver, 1, true, ckpt);
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(read_file(ckpt, &out).ok());
    fs::remove(ckpt);
    return out;
  }();
  return bytes;
}

// The runner's in-place encoder, with section checksums and the table
// fingerprint hashed on the study pool, leaves the image encode_checkpoint
// makes from the file's own decode, and the same file at every width.
class CheckpointFileTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CheckpointFileTest, FileMatchesItsReencodedDecode) {
  const SeriesFixture& fx = fixture();
  const unsigned threads = GetParam();  // 0 = hardware
  const std::string ckpt =
      temp_ckpt("spider_ckpt_file_" + std::to_string(threads) + ".sckpt");
  fs::remove(ckpt);
  const DeltaRun run =
      run_delta(fx.dir.path(), *fx.resolver, threads, true, ckpt);
  EXPECT_EQ(run.report.checkpoints_written, 11u);
  EXPECT_EQ(run.bundle, fx.reference);

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(ckpt, &bytes).ok());
  StudyCheckpoint decoded;
  ASSERT_TRUE(decode_checkpoint(bytes, &decoded).ok());
  EXPECT_EQ(decoded.week, 11u);
  ASSERT_EQ(decoded.analyzers.size(), 8u);
  std::vector<std::uint8_t> reencoded;
  ASSERT_TRUE(encode_checkpoint(decoded, &reencoded).ok());
  EXPECT_EQ(reencoded, bytes) << "threads=" << threads;
  EXPECT_EQ(bytes, width1_checkpoint()) << "threads=" << threads;
  fs::remove(ckpt);
}

INSTANTIATE_TEST_SUITE_P(Widths, CheckpointFileTest,
                         ::testing::Values(1u, 2u, 7u, 0u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return info.param == 0
                                      ? std::string("hw")
                                      : "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace spider
