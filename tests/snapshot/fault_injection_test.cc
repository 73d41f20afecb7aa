// Fault-injection harness: seeded corruption sweeps over .scol v2 images
// and PSV text (bit flips, truncations, torn tails — 160+ scenarios),
// asserting that salvage ingest never aborts, recovers exactly the
// undamaged groups/rows, and that SalvageReport / PsvReadReport totals
// match the injected damage. Plus the truncation-at-every-boundary sweep
// (clean Status, no partial mutation) and end-to-end series degradation:
// a damaged week directory runs the full study with gaps reported.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "snapshot/psv.h"
#include "snapshot/scol.h"
#include "snapshot/series.h"
#include "study/full_study.h"
#include "study/runner.h"
#include "synth/generator.h"
#include "synth/infer.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/prng.h"
#include "util/timeutil.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kGroup = 64;

SnapshotTable make_table(std::size_t rows, std::uint64_t seed = 7) {
  Rng rng(seed);
  SnapshotTable t;
  std::int64_t mtime = 1420416000;
  for (std::size_t i = 0; i < rows; ++i) {
    RawRecord rec;
    const std::size_t proj = i / 50;
    rec.path = "/lustre/atlas2/proj" + std::to_string(proj) + "/u" +
               std::to_string(proj % 7) + "/run" + std::to_string(i % 9) +
               "/step." + std::to_string(i);
    mtime += static_cast<std::int64_t>(rng.uniform_u64(1000));
    rec.mtime = mtime;
    rec.ctime = mtime;
    rec.atime = mtime + static_cast<std::int64_t>(rng.uniform_u64(86400));
    rec.uid = static_cast<std::uint32_t>(1000 + proj % 13);
    rec.gid = static_cast<std::uint32_t>(2000 + proj % 5);
    rec.mode = (i % 20 == 0) ? (kModeDirectory | 0775) : (kModeRegular | 0664);
    rec.inode = 1'000'000 + i * 3;
    if (!rec.is_dir()) {
      const std::size_t stripes = 1 + rng.uniform_u64(8);
      for (std::size_t s = 0; s < stripes; ++s) {
        rec.osts.push_back(static_cast<std::uint32_t>(rng.uniform_u64(2016)));
      }
    }
    t.add(rec);
  }
  return t;
}

void expect_tables_equal(const SnapshotTable& a, const SnapshotTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.path(i), b.path(i)) << "row " << i;
    ASSERT_EQ(a.atime(i), b.atime(i)) << "row " << i;
    ASSERT_EQ(a.ctime(i), b.ctime(i)) << "row " << i;
    ASSERT_EQ(a.mtime(i), b.mtime(i)) << "row " << i;
    ASSERT_EQ(a.uid(i), b.uid(i)) << "row " << i;
    ASSERT_EQ(a.gid(i), b.gid(i)) << "row " << i;
    ASSERT_EQ(a.mode(i), b.mode(i)) << "row " << i;
    ASSERT_EQ(a.inode(i), b.inode(i)) << "row " << i;
    const auto osts_a = a.osts(i);
    const auto osts_b = b.osts(i);
    ASSERT_EQ(osts_a.size(), osts_b.size()) << "row " << i;
    for (std::size_t k = 0; k < osts_a.size(); ++k) {
      ASSERT_EQ(osts_a[k], osts_b[k]);
    }
  }
}

/// The rows of `t` belonging to the groups NOT in `lost` — the exact table
/// a correct salvage decode must produce.
SnapshotTable select_surviving(const SnapshotTable& t,
                               const ScolV2Layout& layout,
                               const std::set<std::size_t>& lost) {
  SnapshotTable out;
  std::size_t row = 0;
  for (std::size_t g = 0; g < layout.group_rows.size(); ++g) {
    const std::size_t rows = static_cast<std::size_t>(layout.group_rows[g]);
    if (!lost.count(g)) {
      for (std::size_t i = row; i < row + rows; ++i) {
        out.add(t.path(i), t.atime(i), t.ctime(i), t.mtime(i), t.uid(i),
                t.gid(i), t.mode(i), t.inode(i), t.osts(i));
      }
    }
    row += rows;
  }
  return out;
}

/// Runs one damaged-image scenario end to end: strict decode fails and
/// leaves the destination untouched; salvage decode succeeds, recovers
/// exactly the surviving groups, and the report's totals match.
void check_scol_salvage(const SnapshotTable& original,
                        const std::vector<std::uint8_t>& damaged,
                        const ScolV2Layout& layout,
                        const std::set<std::size_t>& lost,
                        const std::string& label) {
  SCOPED_TRACE(label);
  std::uint64_t rows_lost = 0;
  for (const std::size_t g : lost) rows_lost += layout.group_rows[g];

  // Strict mode: any damage fails the decode, and a pre-populated
  // destination is not mutated.
  {
    SnapshotTable dest = make_table(3, /*seed=*/99);
    const SnapshotTable sentinel = make_table(3, /*seed=*/99);
    ScolOptions strict;
    const Status s = decode_scol(damaged, &dest, strict);
    if (lost.empty()) {
      ASSERT_TRUE(s.ok()) << s.to_string();
    } else {
      ASSERT_FALSE(s.ok());
      expect_tables_equal(sentinel, dest);
    }
  }

  // Salvage mode: never aborts, recovers exactly the undamaged groups.
  for (const CorruptGroupPolicy policy :
       {CorruptGroupPolicy::kSkip, CorruptGroupPolicy::kQuarantine}) {
    SnapshotTable dest;
    ScolOptions options;
    options.on_corrupt_group = policy;
    SalvageReport report;
    const Status s = decode_scol(damaged, &dest, options, &report);
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(report.groups_total, layout.group_rows.size());
    EXPECT_EQ(report.groups_lost, lost.size());
    EXPECT_EQ(report.rows_total, original.size());
    EXPECT_EQ(report.rows_lost, rows_lost);
    EXPECT_EQ(report.rows_recovered, original.size() - rows_lost);
    EXPECT_EQ(report.rows_recovered, dest.size());
    ASSERT_EQ(report.damage.size(), lost.size());
    for (const ScolGroupDamage& d : report.damage) {
      EXPECT_TRUE(lost.count(d.group)) << "unexpected damage in " << d.group;
      EXPECT_FALSE(d.status.ok());
      if (policy == CorruptGroupPolicy::kQuarantine) {
        // Quarantined bytes are the group's directory extent, clamped to
        // the (possibly shortened) image.
        const std::size_t begin =
            std::min(layout.group_begin[d.group], damaged.size());
        const std::size_t len =
            std::min(layout.group_len[d.group], damaged.size() - begin);
        ASSERT_EQ(d.quarantined.size(), len);
        if (len > 0) {
          EXPECT_EQ(std::memcmp(d.quarantined.data(), damaged.data() + begin,
                                len),
                    0);
        }
      } else {
        EXPECT_TRUE(d.quarantined.empty());
      }
    }
    expect_tables_equal(select_surviving(original, layout, lost), dest);
  }
}

// ---- seeded .scol sweeps (40 scenarios each) ------------------------------

TEST(ScolFaultSweep, BitFlipLosesExactlyOneGroup) {
  const SnapshotTable original = make_table(5 * kGroup + 17);
  ScolOptions write;
  write.group_size = kGroup;
  const auto clean = encode_scol(original, write);
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(clean, &layout).ok());

  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    auto damaged = clean;
    FaultInjector injector(seed);
    const FaultEvent ev =
        injector.bit_flip(&damaged, layout.payload_start, damaged.size());
    // The flipped byte lies in exactly one group's extent; per-group
    // checksums must localize the damage to it.
    std::set<std::size_t> lost;
    for (std::size_t g = 0; g < layout.group_begin.size(); ++g) {
      if (ev.offset >= layout.group_begin[g] &&
          ev.offset < layout.group_begin[g] + layout.group_len[g]) {
        lost.insert(g);
      }
    }
    ASSERT_EQ(lost.size(), 1u);
    check_scol_salvage(original, damaged, layout, lost,
                       "seed " + std::to_string(seed) + ": " + ev.describe());
  }
}

TEST(ScolFaultSweep, TruncateLosesSuffixGroups) {
  const SnapshotTable original = make_table(5 * kGroup + 17);
  ScolOptions write;
  write.group_size = kGroup;
  const auto clean = encode_scol(original, write);
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(clean, &layout).ok());

  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    auto damaged = clean;
    FaultInjector injector(seed);
    const FaultEvent ev =
        injector.truncate(&damaged, /*min_keep=*/layout.payload_start);
    std::set<std::size_t> lost;
    for (std::size_t g = 0; g < layout.group_begin.size(); ++g) {
      if (layout.group_begin[g] + layout.group_len[g] > ev.offset) {
        lost.insert(g);
      }
    }
    check_scol_salvage(original, damaged, layout, lost,
                       "seed " + std::to_string(seed) + ": " + ev.describe());
  }
}

TEST(ScolFaultSweep, TornTailLosesSuffixGroups) {
  const SnapshotTable original = make_table(5 * kGroup + 17);
  ScolOptions write;
  write.group_size = kGroup;
  const auto clean = encode_scol(original, write);
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(clean, &layout).ok());

  for (std::uint64_t seed = 200; seed < 240; ++seed) {
    auto damaged = clean;
    FaultInjector injector(seed);
    const FaultEvent ev =
        injector.torn_tail(&damaged, /*min_keep=*/layout.payload_start);
    // Groups wholly before the tear survive; every group touching the
    // garbage tail fails its checksum.
    std::set<std::size_t> lost;
    for (std::size_t g = 0; g < layout.group_begin.size(); ++g) {
      if (layout.group_begin[g] + layout.group_len[g] > ev.offset) {
        lost.insert(g);
      }
    }
    check_scol_salvage(original, damaged, layout, lost,
                       "seed " + std::to_string(seed) + ": " + ev.describe());
  }
}

// ---- seeded PSV sweep (40 scenarios) --------------------------------------

TEST(PsvFaultSweep, SalvageMatchesSerialReference) {
  const SnapshotTable original = make_table(150, /*seed=*/11);
  std::string clean_text;
  for (std::size_t i = 0; i < original.size(); ++i) {
    clean_text += psv_format_record(original.row(i));
    clean_text += '\n';
  }

  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::string text = clean_text;
    FaultInjector injector(seed);
    const std::size_t flips = 1 + injector.rng().uniform_u64(3);
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    for (std::size_t f = 0; f < flips; ++f) injector.bit_flip(&bytes);
    text.assign(bytes.begin(), bytes.end());

    // Reference: a serial line-by-line parse of the damaged text. A flip
    // may leave a line parseable (a digit changed), split a line, or chain
    // several failures — the reference defines the ground truth either way.
    SnapshotTable reference;
    std::size_t bad_lines = 0;
    {
      std::string_view body(text);
      RawRecord rec;
      while (!body.empty()) {
        const std::size_t nl = body.find('\n');
        const std::string_view line =
            nl == std::string_view::npos ? body : body.substr(0, nl);
        body.remove_prefix(nl == std::string_view::npos ? body.size()
                                                        : nl + 1);
        if (line.empty()) continue;
        if (psv_parse_record(line, &rec)) {
          reference.add(rec);
        } else {
          ++bad_lines;
        }
      }
    }

    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 std::to_string(bad_lines) + " bad lines");

    // Salvage ingest with room in the budget: never aborts, recovers
    // exactly the parseable rows, tallies exactly the damage.
    PsvOptions salvage;
    salvage.max_bad_lines = text.size();  // effectively unlimited
    SnapshotTable salvaged;
    PsvReadReport report;
    const Status s = read_psv_buffer(text, &salvaged, salvage, &report);
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(report.lines_skipped, bad_lines);
    EXPECT_EQ(report.rows_ingested, reference.size());
    std::uint64_t tally = 0;
    for (const auto& [reason, count] : report.by_reason) tally += count;
    EXPECT_EQ(tally, bad_lines);
    expect_tables_equal(reference, salvaged);

    if (bad_lines > 0) {
      // One under budget: the read must fail all-or-nothing.
      PsvOptions tight;
      tight.max_bad_lines = bad_lines - 1;
      SnapshotTable none;
      const Status fail = read_psv_buffer(text, &none, tight);
      ASSERT_FALSE(fail.ok());
      EXPECT_EQ(fail.code(), bad_lines == 1
                                 ? StatusCode::kCorruption
                                 : StatusCode::kResourceExhausted);
      EXPECT_EQ(none.size(), 0u);
    }
  }
}

// ---- truncation at every boundary -----------------------------------------

TEST(ScolTruncationBoundarySweep, CleanStatusAndNoPartialMutation) {
  const SnapshotTable original = make_table(4 * kGroup - 5);
  ScolOptions write;
  write.group_size = kGroup;
  const auto clean = encode_scol(original, write);
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(clean, &layout).ok());

  // Every byte of the header+directory, plus the interesting offsets of
  // every group: begin-1, begin, begin+1, middle, end-1 (end == next
  // begin; the final end is the full image, i.e. no truncation).
  std::set<std::size_t> cuts;
  for (std::size_t c = 0; c <= layout.payload_start; ++c) cuts.insert(c);
  for (std::size_t g = 0; g < layout.group_begin.size(); ++g) {
    const std::size_t begin = layout.group_begin[g];
    const std::size_t end = begin + layout.group_len[g];
    cuts.insert(begin - 1);
    cuts.insert(begin);
    cuts.insert(begin + 1);
    cuts.insert(begin + layout.group_len[g] / 2);
    cuts.insert(end - 1);
  }

  const SnapshotTable sentinel = make_table(2, /*seed=*/31);
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const std::vector<std::uint8_t> damaged(clean.begin(),
                                            clean.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    cut));
    // Strict: always a clean typed failure, destination untouched.
    {
      SnapshotTable dest = make_table(2, /*seed=*/31);
      const Status s = decode_scol(damaged, &dest, ScolOptions{});
      ASSERT_FALSE(s.ok());
      EXPECT_TRUE(s.code() == StatusCode::kTruncated ||
                  s.code() == StatusCode::kCorruption)
          << s.to_string();
      expect_tables_equal(sentinel, dest);
    }
    // Salvage: succeeds iff the header+directory is intact, recovering
    // exactly the whole groups before the cut.
    {
      SnapshotTable dest;
      ScolOptions options;
      options.on_corrupt_group = CorruptGroupPolicy::kSkip;
      SalvageReport report;
      const Status s = decode_scol(damaged, &dest, options, &report);
      if (cut < layout.payload_start) {
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(dest.size(), 0u);
      } else {
        ASSERT_TRUE(s.ok()) << s.to_string();
        std::set<std::size_t> lost;
        for (std::size_t g = 0; g < layout.group_begin.size(); ++g) {
          if (layout.group_begin[g] + layout.group_len[g] > cut) {
            lost.insert(g);
          }
        }
        EXPECT_EQ(report.groups_lost, lost.size());
        expect_tables_equal(select_surviving(original, layout, lost), dest);
      }
    }
  }
}

// ---- file-level and series-level degradation ------------------------------

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

TEST(SeriesDegradationTest, MissingAndCorruptWeeksBecomeGaps) {
  TempDir dir("spider_fault_series_test");
  // Eight weekly snapshots starting 2015-01-05, written with small row
  // groups so single-group damage is salvageable. Then: week 3 never
  // collected, week 5 bit-flipped, week 6 truncated mid-payload.
  const std::int64_t start = 1420416000;  // 2015-01-05
  ScolOptions small_groups;
  small_groups.group_size = kGroup;
  for (std::size_t w = 0; w < 8; ++w) {
    const std::int64_t taken_at =
        start + static_cast<std::int64_t>(w) * 7 * 86400;
    const std::string file =
        dir.path() + "/snap_" + date_tag(taken_at) + ".scol";
    ASSERT_TRUE(
        write_scol_file(make_table(3 * kGroup, /*seed=*/w + 1), file,
                        small_groups)
            .ok());
  }

  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir.path()).ok());
  ASSERT_EQ(probe.files().size(), 8u);
  const std::string missing = probe.files()[3];
  const std::string corrupt = probe.files()[5];
  const std::string truncated = probe.files()[6];
  fs::remove(missing);
  corrupt_scol_file(corrupt, /*seed=*/5);
  {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(read_file(truncated, &bytes).ok());
    bytes.resize(bytes.size() / 2);
    ASSERT_TRUE(
        write_file_atomic(truncated, std::span<const std::uint8_t>(bytes))
            .ok());
  }

  DirectorySeries series;
  ASSERT_TRUE(series.open(dir.path()).ok());
  EXPECT_EQ(series.count(), 7u);  // 7 files on disk
  // The missing collection is already visible as a cadence gap at slot 3.
  ASSERT_EQ(series.gaps().size(), 1u);
  EXPECT_EQ(series.gaps()[0].week, 3u);
  EXPECT_EQ(series.gaps()[0].status.code(), StatusCode::kNotFound);

  // Traverse through the study runner: damaged weeks become gaps, diffs
  // are not computed across them.
  struct Obs {
    std::size_t week;
    bool gap_before;
    bool has_diff;
  };
  struct Recorder : StudyAnalyzer {
    std::vector<Obs> seen;
    bool wants_diff() const override { return true; }
    void merge(const WeekObservation& obs, ScanStateList) override {
      seen.push_back(Obs{obs.week, obs.gap_before, obs.diff != nullptr});
    }
  } recorder;
  run_study(series, recorder);

  // Slots: 0 1 2 [gap] 4 [corrupt 5] [truncated 6] 7.
  ASSERT_EQ(recorder.seen.size(), 5u);
  const std::size_t weeks[] = {0, 1, 2, 4, 7};
  const bool gap_before[] = {false, false, false, true, true};
  const bool has_diff[] = {false, true, true, false, false};
  for (std::size_t i = 0; i < recorder.seen.size(); ++i) {
    EXPECT_EQ(recorder.seen[i].week, weeks[i]) << i;
    EXPECT_EQ(recorder.seen[i].gap_before, gap_before[i]) << i;
    EXPECT_EQ(recorder.seen[i].has_diff, has_diff[i]) << i;
  }

  ASSERT_EQ(series.gaps().size(), 3u);
  EXPECT_EQ(series.gaps()[0].week, 3u);
  EXPECT_EQ(series.gaps()[1].week, 5u);
  EXPECT_EQ(series.gaps()[1].file, corrupt);
  EXPECT_FALSE(series.gaps()[1].status.ok());
  EXPECT_EQ(series.gaps()[2].week, 6u);
  EXPECT_FALSE(series.gaps()[2].status.ok());
  EXPECT_NE(series.gaps()[1].describe().find("week 5"), std::string::npos);

  // With a salvage policy, the bit-flipped week loses one group but is
  // visited with its surviving rows; only the missing and truncated weeks
  // remain gaps (a halved file keeps a readable header here, so it too
  // salvages — unless the directory itself was cut, in which case it
  // stays a gap; accept either as long as the corrupt week returns).
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
  series.set_scol_options(salvage);
  std::size_t visited = 0;
  bool saw_corrupt_week = false;
  series.visit([&](std::size_t week, const Snapshot& snap) {
    ++visited;
    if (week == 5) {
      saw_corrupt_week = true;
      EXPECT_EQ(snap.table.size(), 3 * kGroup - kGroup);
    }
  });
  EXPECT_TRUE(saw_corrupt_week);
  EXPECT_GE(visited, 6u);
}

TEST(SeriesDegradationTest, FullStudyCompletesOnDamagedSeries) {
  TempDir dir("spider_fault_full_study_test");
  FacilityConfig config;
  config.scale = 5e-5;
  config.weeks = 10;
  config.seed = 20150105;
  config.maintenance_gaps = false;  // a regular cadence; we inject the damage
  FacilityGenerator generator(config);
  ASSERT_TRUE(save_series(generator, dir.path()).ok());

  DirectorySeries probe;
  ASSERT_TRUE(probe.open(dir.path()).ok());
  ASSERT_EQ(probe.files().size(), 10u);
  // >=2 corrupt weeks + >=1 missing week (the acceptance scenario).
  corrupt_scol_file(probe.files()[2], /*seed=*/21);
  corrupt_scol_file(probe.files()[6], /*seed=*/22);
  fs::remove(probe.files()[4]);

  DirectorySeries series;
  ASSERT_TRUE(series.open(dir.path()).ok());

  InferenceStats stats;
  const FacilityPlan plan = infer_facility(series, &stats);
  Resolver resolver(plan);
  FullStudy study(resolver, /*burst_min_files=*/5);
  study.run(series);  // must complete, not abort

  ASSERT_EQ(study.gaps().size(), 3u);
  EXPECT_EQ(study.growth.result().points.size(), 7u);
  EXPECT_GE(study.access_patterns.result().gap_pairs_skipped, 2u);

  const std::string quality = study.render_data_quality();
  EXPECT_NE(quality.find("7 of 10 week slots usable"), std::string::npos)
      << quality;
  EXPECT_NE(quality.find("3 gap(s)"), std::string::npos) << quality;
  EXPECT_NE(quality.find("corruption"), std::string::npos) << quality;
  EXPECT_NE(quality.find("no snapshot collected"), std::string::npos)
      << quality;
  // Table 1 still renders from the surviving weeks.
  EXPECT_FALSE(study.render_table1().empty());
}

TEST(ScolFaultTest, V1ImagesCannotSalvage) {
  const SnapshotTable original = make_table(200);
  ScolOptions v1;
  v1.format_version = 1;
  auto image = encode_scol(original, v1);
  FaultInjector injector(9);
  injector.bit_flip(&image, /*begin=*/64, /*end=*/0);

  SnapshotTable dest;
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
  SalvageReport report;
  // v1 has one whole-table column set — nothing to salvage around, so the
  // policy degenerates to a strict failure.
  const Status s = decode_scol(image, &dest, salvage, &report);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(dest.size(), 0u);
}

TEST(ScolFaultTest, IntactImageReportsClean) {
  const SnapshotTable original = make_table(2 * kGroup + 3);
  ScolOptions write;
  write.group_size = kGroup;
  const auto image = encode_scol(original, write);

  SnapshotTable dest;
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kQuarantine;
  SalvageReport report;
  ASSERT_TRUE(decode_scol(image, &dest, salvage, &report).ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.groups_lost, 0u);
  EXPECT_EQ(report.rows_recovered, original.size());
  EXPECT_TRUE(report.damage.empty());
  EXPECT_NE(report.summary().find("clean"), std::string::npos);
  expect_tables_equal(original, dest);
}

TEST(ScolFaultTest, SalvageReportSummaryListsDamage) {
  const SnapshotTable original = make_table(3 * kGroup);
  ScolOptions write;
  write.group_size = kGroup;
  auto image = encode_scol(original, write);
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(image, &layout).ok());
  // Flip a bit inside group 1 specifically.
  FaultInjector injector(3);
  injector.bit_flip(&image, layout.group_begin[1],
                    layout.group_begin[1] + layout.group_len[1]);

  SnapshotTable dest;
  ScolOptions salvage;
  salvage.on_corrupt_group = CorruptGroupPolicy::kSkip;
  SalvageReport report;
  ASSERT_TRUE(decode_scol(image, &dest, salvage, &report).ok());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("lost 1/3 groups"), std::string::npos) << summary;
  EXPECT_NE(summary.find("group 1"), std::string::npos) << summary;

  // Strict mode names the failing group in its context.
  SnapshotTable strict_dest;
  const Status strict = decode_scol(image, &strict_dest, ScolOptions{});
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.message().find("group 1"), std::string::npos)
      << strict.to_string();
}

}  // namespace
}  // namespace spider
