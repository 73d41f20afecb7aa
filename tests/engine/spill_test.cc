#include "engine/spill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/diff.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

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

RawRecord file_record(const std::string& path, std::int64_t atime,
                      std::int64_t ctime, std::int64_t mtime) {
  RawRecord rec;
  rec.path = path;
  rec.atime = atime;
  rec.ctime = ctime;
  rec.mtime = mtime;
  rec.mode = kModeRegular | 0664;
  rec.osts = {1, 2, 3, 4};
  return rec;
}

RawRecord dir_record(const std::string& path, std::int64_t stamp = 7) {
  RawRecord rec;
  rec.path = path;
  rec.atime = stamp;
  rec.ctime = stamp;
  rec.mtime = stamp;
  rec.mode = kModeDirectory | 0775;
  return rec;
}

/// A random adjacent-week pair exercising every diff class on files and
/// directories alike.
void make_week_pair(std::uint64_t seed, SnapshotTable* prev,
                    SnapshotTable* cur, int files = 4000) {
  Rng rng(seed);
  for (int i = 0; i < files; ++i) {
    const std::string path = "/lustre/atlas2/p/u/f" + std::to_string(i);
    const std::int64_t base = 9000 + i;
    if (rng.chance(0.8)) prev->add(file_record(path, base, base, base));
    if (rng.chance(0.8)) {
      const int mutation = static_cast<int>(rng.uniform_u64(4));
      std::int64_t a = base, c = base, m = base;
      if (mutation == 1) a += 3;                      // readonly
      if (mutation == 2) { a += 3; c += 3; m += 3; }  // updated
      if (mutation == 3) c += 3;                      // updated (ctime)
      cur->add(file_record(path, a, c, m));
    }
  }
  for (int i = 0; i < 300; ++i) {
    const std::string path = "/lustre/atlas2/p/d" + std::to_string(i);
    if (rng.chance(0.7)) prev->add(dir_record(path, 40));
    if (rng.chance(0.7)) {
      cur->add(dir_record(path, rng.chance(0.5) ? 40 : 41));
    }
  }
}

/// Spills `table` into `dir` with the given fan-out and returns the
/// finished side.
SpilledSide spill_table(const SnapshotTable& table, const std::string& dir,
                        const std::string& stem, std::uint32_t bits) {
  SpillPartitionWriter writer;
  SpillPartitionWriter::Options options;
  options.dir = dir;
  options.stem = stem;
  options.bits = bits;
  EXPECT_TRUE(writer.open(options).ok());
  EXPECT_TRUE(writer.add_table(table).ok());
  EXPECT_TRUE(writer.finish().ok());
  return writer.side();
}

void expect_diff_equal(const DiffResult& want, const DiffResult& got) {
  EXPECT_EQ(want.new_rows, got.new_rows);
  EXPECT_EQ(want.deleted_rows, got.deleted_rows);
  EXPECT_EQ(want.readonly_rows, got.readonly_rows);
  EXPECT_EQ(want.updated_rows, got.updated_rows);
  EXPECT_EQ(want.untouched_rows, got.untouched_rows);
  EXPECT_EQ(want.has_prev_rows, got.has_prev_rows);
  EXPECT_EQ(want.readonly_prev_rows, got.readonly_prev_rows);
  EXPECT_EQ(want.updated_prev_rows, got.updated_prev_rows);
  EXPECT_EQ(want.untouched_prev_rows, got.untouched_prev_rows);
  EXPECT_EQ(want.has_dir_diff, got.has_dir_diff);
  EXPECT_EQ(want.new_dir_rows, got.new_dir_rows);
  EXPECT_EQ(want.changed_dir_rows, got.changed_dir_rows);
  EXPECT_EQ(want.changed_dir_prev_rows, got.changed_dir_prev_rows);
  EXPECT_EQ(want.deleted_dir_rows, got.deleted_dir_rows);
  EXPECT_EQ(want.prev_files, got.prev_files);
  EXPECT_EQ(want.cur_files, got.cur_files);
}

/// Spills `table` through SpillPartitionWriter::add, storing
/// `hash_of(path hash)` as each record's hash instead of the path hash.
SpilledSide spill_rehashed(const SnapshotTable& table, const std::string& dir,
                           const std::string& stem, std::uint32_t bits,
                           std::uint64_t (*hash_of)(std::uint64_t)) {
  SpillPartitionWriter writer;
  SpillPartitionWriter::Options options;
  options.dir = dir;
  options.stem = stem;
  options.bits = bits;
  EXPECT_TRUE(writer.open(options).ok());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_TRUE(writer
                    .add(hash_of(table.path_hash(i)),
                         static_cast<std::uint32_t>(i), table.is_dir(i),
                         table.atime(i), table.mtime(i), table.ctime(i),
                         table.path(i))
                    .ok());
  }
  EXPECT_TRUE(writer.finish().ok());
  return writer.side();
}

/// Flips one payload byte of `file`, leaving the trailer intact so only
/// the checksum catches it.
void corrupt_payload_byte(const std::string& file) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(file, &bytes).ok());
  ASSERT_GT(bytes.size(), 33u) << "need a non-empty payload to corrupt";
  bytes[bytes.size() / 2] ^= 0xff;
  ASSERT_TRUE(write_file_atomic(
                  file, std::span<const std::uint8_t>(bytes.data(),
                                                      bytes.size()))
                  .ok());
}

/// Finds a partition with at least one record on the prev side (so
/// corruption there is detectable).
std::size_t nonempty_partition(const SpilledSide& side) {
  for (std::size_t p = 0; p < side.files.size(); ++p) {
    SpillRecords records;
    EXPECT_TRUE(read_spill_partition(side.files[p], &records).ok());
    if (records.size() > 0) return p;
  }
  ADD_FAILURE() << "no partition holds any records";
  return 0;
}

class SpillJoinParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpillJoinParity, MatchesInMemoryDiffAtEveryFanOut) {
  // 20,000 paths: a one-partition side spans several hashing and probe
  // tasks, so the wider pools split every partition of the 0-bit fan-out.
  SnapshotTable prev, cur;
  make_week_pair(GetParam(), &prev, &cur, 20000);
  ThreadPool one(1), two(2), seven(7), hw(0);
  TempDir dir("spider_spill_parity_" + std::to_string(GetParam()));
  for (const std::uint32_t bits : {0u, 3u, 8u}) {
    const std::string tag = std::to_string(bits);
    const SpilledSide prev_side =
        spill_table(prev, dir.path(), "prev" + tag, bits);
    const SpilledSide cur_side =
        spill_table(cur, dir.path(), "cur" + tag, bits);
    for (const bool prev_rows : {false, true}) {
      for (const bool dirs : {false, true}) {
        DiffOptions options;
        options.prev_rows = prev_rows;
        options.dirs = dirs;
        const DiffResult want = diff_snapshots(
            prev, cur, /*pool=*/nullptr, /*breakdown=*/nullptr, options);
        for (ThreadPool* pool : {&one, &two, &seven, &hw}) {
          SCOPED_TRACE("bits=" + tag + " prev_rows=" +
                       std::to_string(prev_rows) + " dirs=" +
                       std::to_string(dirs) +
                       " threads=" + std::to_string(pool->size()));
          DiffResult got;
          ASSERT_TRUE(
              spill_diff_join(prev_side, cur_side, options, &got, pool).ok());
          expect_diff_equal(want, got);
        }
      }
    }
  }
}

TEST_P(SpillJoinParity, MatchesWithoutExtras) {
  SnapshotTable prev, cur;
  make_week_pair(GetParam() + 100, &prev, &cur);
  const DiffResult want = diff_snapshots(prev, cur);

  TempDir dir("spider_spill_noextras_" + std::to_string(GetParam()));
  const SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 2);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 2);
  DiffResult got;
  ASSERT_TRUE(spill_diff_join(prev_side, cur_side, DiffOptions{}, &got).ok());
  expect_diff_equal(want, got);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillJoinParity,
                         ::testing::Values(21, 22, 23, 24));

TEST(SpillJoinTest, ForcedTinyBudgetSpillsEveryPartition) {
  // A one-byte partition budget forces the maximum fan-out: every one of
  // the 256 partitions is a real spill file, and the join must still be
  // bit-identical to the resident diff.
  SnapshotTable prev, cur;
  make_week_pair(31, &prev, &cur);
  const std::uint32_t bits = spill_bits_for(prev.size(), 64, 1);
  EXPECT_EQ(bits, 8u);

  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = diff_snapshots(prev, cur, /*pool=*/nullptr,
                                         /*breakdown=*/nullptr, options);

  TempDir dir("spider_spill_tiny_budget");
  const SpilledSide prev_side = spill_table(prev, dir.path(), "prev", bits);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", bits);
  ASSERT_EQ(prev_side.files.size(), 256u);
  std::size_t populated = 0;
  for (const std::string& file : prev_side.files) {
    SpillRecords records;
    ASSERT_TRUE(read_spill_partition(file, &records).ok());
    populated += records.size() > 0 ? 1 : 0;
  }
  EXPECT_GT(populated, 200u) << "hash should spread rows across partitions";

  DiffResult got;
  ASSERT_TRUE(spill_diff_join(prev_side, cur_side, options, &got).ok());
  expect_diff_equal(want, got);
}

TEST(SpillJoinTest, FullHashCollisionsResolveByPath) {
  // Every record keeps only 4 bits of its path hash: the top 2 pick one of
  // 4 partitions, the low 2 one of 4 hashes inside it, so each stored hash
  // is shared by ~270 distinct paths. Only the full path compare can tell
  // them apart, on both the build and the probe side.
  SnapshotTable prev, cur;
  make_week_pair(61, &prev, &cur);
  const auto degenerate = +[](std::uint64_t hash) -> std::uint64_t {
    return hash & 0xc000'0000'0000'0003ULL;
  };
  TempDir dir("spider_spill_collisions");
  const SpilledSide prev_side =
      spill_rehashed(prev, dir.path(), "prev", 2, degenerate);
  const SpilledSide cur_side =
      spill_rehashed(cur, dir.path(), "cur", 2, degenerate);
  ThreadPool pool(4);
  for (const bool extras : {false, true}) {
    DiffOptions options;
    options.prev_rows = extras;
    options.dirs = extras;
    const DiffResult want = diff_snapshots(prev, cur, /*pool=*/nullptr,
                                           /*breakdown=*/nullptr, options);
    DiffResult got;
    ASSERT_TRUE(
        spill_diff_join(prev_side, cur_side, options, &got, &pool).ok());
    expect_diff_equal(want, got);
  }
}

TEST(SpillJoinTest, RecordRowOutsideItsSideIsCorruption) {
  // The checksum covers what the writer was given, so a record framed
  // correctly can still name a row its side does not have. The join must
  // refuse it rather than write past its per-row arrays.
  SnapshotTable table;
  table.add(file_record("/lustre/atlas2/p/u/a", 1, 1, 1));
  table.add(file_record("/lustre/atlas2/p/u/b", 2, 2, 2));
  TempDir dir("spider_spill_row_range");
  const SpilledSide good = spill_table(table, dir.path(), "good", 1);
  const auto spill_rows = [&](const std::string& stem, std::uint32_t row_a,
                              std::uint32_t row_b) {
    SpillPartitionWriter writer;
    SpillPartitionWriter::Options options;
    options.dir = dir.path();
    options.stem = stem;
    options.bits = 1;
    EXPECT_TRUE(writer.open(options).ok());
    const std::uint32_t rows[] = {row_a, row_b};
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_TRUE(writer
                      .add(table.path_hash(i), rows[i], false, 1, 1, 1,
                           table.path(i))
                      .ok());
    }
    EXPECT_TRUE(writer.finish().ok());
    return writer.side();
  };
  // Two records but a row of 2, then one far past the arrays; a row
  // spilled twice would leave the other row unclassified.
  const SpilledSide past = spill_rows("past", 0, 2);
  const SpilledSide far = spill_rows("far", 1u << 30, 0);
  const SpilledSide twice = spill_rows("twice", 1, 1);
  for (const SpilledSide* bad : {&past, &far, &twice}) {
    DiffResult got;
    EXPECT_EQ(spill_diff_join(*bad, good, DiffOptions{}, &got).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(spill_diff_join(good, *bad, DiffOptions{}, &got).code(),
              StatusCode::kCorruption);
  }
}

TEST(SpillBitsForTest, ScalesWithDataAndClamps) {
  EXPECT_EQ(spill_bits_for(1000, 64, 0), 0u);       // no budget = one file
  EXPECT_EQ(spill_bits_for(0, 64, 1 << 20), 0u);    // empty side
  EXPECT_EQ(spill_bits_for(1000, 64, 1 << 20), 0u); // fits in one partition
  EXPECT_EQ(spill_bits_for(4096, 64, 64 * 1024), 2u);
  EXPECT_EQ(spill_bits_for(1'000'000'000, 64, 1), 8u);  // clamped
}

TEST(SpillWriterTest, GroupAtATimeMatchesWholeTableSpill) {
  SnapshotTable whole;
  std::vector<SnapshotTable> groups(3);
  Rng rng(77);
  std::size_t row = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int i = 0; i < 500; ++i, ++row) {
      const std::string path = "/lustre/atlas2/p/u/g" + std::to_string(row);
      const std::int64_t stamp =
          static_cast<std::int64_t>(1000 + rng.uniform_u64(1000));
      RawRecord rec = rng.chance(0.1) ? dir_record(path, stamp)
                                      : file_record(path, stamp, stamp, stamp);
      whole.add(rec);
      groups[g].add(rec);
    }
  }

  TempDir dir("spider_spill_groups");
  const SpilledSide whole_side = spill_table(whole, dir.path(), "whole", 2);

  SpillPartitionWriter writer;
  SpillPartitionWriter::Options options;
  options.dir = dir.path();
  options.stem = "grouped";
  options.bits = 2;
  ASSERT_TRUE(writer.open(options).ok());
  std::size_t base = 0;
  for (const SnapshotTable& group : groups) {
    ASSERT_TRUE(writer.add_table(group, base).ok());
    base += group.size();
  }
  ASSERT_TRUE(writer.finish().ok());
  const SpilledSide grouped_side = writer.side();

  EXPECT_EQ(whole_side.file_rows, grouped_side.file_rows);
  EXPECT_EQ(whole_side.dir_rows, grouped_side.dir_rows);
  for (std::size_t p = 0; p < whole_side.files.size(); ++p) {
    SpillRecords a, b;
    ASSERT_TRUE(read_spill_partition(whole_side.files[p], &a).ok());
    ASSERT_TRUE(read_spill_partition(grouped_side.files[p], &b).ok());
    EXPECT_EQ(a.hashes, b.hashes);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.dir_flags, b.dir_flags);
    EXPECT_EQ(a.atimes, b.atimes);
    EXPECT_EQ(a.mtimes, b.mtimes);
    EXPECT_EQ(a.ctimes, b.ctimes);
    EXPECT_EQ(a.path_bytes, b.path_bytes);
  }
}

TEST(SpillFaultTest, ChecksumMismatchRegeneratesOnceAndJoins) {
  SnapshotTable prev, cur;
  make_week_pair(41, &prev, &cur);
  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = diff_snapshots(prev, cur, /*pool=*/nullptr,
                                         /*breakdown=*/nullptr, options);

  TempDir dir("spider_spill_fault_recover");
  SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 3);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 3);

  const std::size_t victim = nonempty_partition(prev_side);
  corrupt_payload_byte(prev_side.files[victim]);

  // The owner re-derives its scratch files from the original table; a
  // fresh spill of the whole side rewrites (and so repairs) partition p.
  std::size_t regenerated = 0;
  const std::string path = dir.path();
  prev_side.regenerate = [&](std::size_t p) {
    EXPECT_EQ(p, victim);
    ++regenerated;
    spill_table(prev, path, "prev", 3);
    return Status();
  };

  DiffResult got;
  ASSERT_TRUE(spill_diff_join(prev_side, cur_side, options, &got).ok());
  EXPECT_EQ(regenerated, 1u);
  expect_diff_equal(want, got);
}

TEST(SpillFaultTest, CorruptionWithoutRegenerateFails) {
  SnapshotTable prev, cur;
  make_week_pair(42, &prev, &cur);

  TempDir dir("spider_spill_fault_fatal");
  const SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 2);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 2);
  corrupt_payload_byte(cur_side.files[nonempty_partition(cur_side)]);

  DiffResult got;
  const Status s = spill_diff_join(prev_side, cur_side, DiffOptions{}, &got);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
  EXPECT_NE(s.to_string().find("checksum"), std::string::npos);
}

TEST(SpillFaultTest, RegenerateThatLeavesDamageFailsAfterOneRetry) {
  SnapshotTable prev, cur;
  make_week_pair(43, &prev, &cur);

  TempDir dir("spider_spill_fault_stuck");
  SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 2);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 2);
  corrupt_payload_byte(prev_side.files[nonempty_partition(prev_side)]);

  std::size_t calls = 0;
  prev_side.regenerate = [&calls](std::size_t) {
    ++calls;  // claims success but repairs nothing
    return Status();
  };
  DiffResult got;
  const Status s = spill_diff_join(prev_side, cur_side, DiffOptions{}, &got);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1u) << "exactly one regenerate attempt, then give up";
}

TEST(SpillFaultTest, TrailerBitFlipsFailThePartitionAndRegenerate) {
  // The trailer is not covered by the checksum, so each of its fields
  // (magic, record count, payload size, checksum) must be checked before
  // anything trusts it — above all the count, which sizes the reader's
  // arrays. Every single-bit flip must come back as a Status naming the
  // file, never as an exception, and the join must heal it through the
  // regenerate hook.
  SnapshotTable prev, cur;
  make_week_pair(44, &prev, &cur, 1500);
  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = diff_snapshots(prev, cur, /*pool=*/nullptr,
                                         /*breakdown=*/nullptr, options);

  TempDir dir("spider_spill_trailer_flips");
  SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 1);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 1);
  const std::string victim = prev_side.files[0];
  std::vector<std::uint8_t> clean;
  ASSERT_TRUE(read_file(victim, &clean).ok());
  ASSERT_GT(clean.size(), 32u);
  std::size_t regenerated = 0;
  prev_side.regenerate = [&](std::size_t p) {
    EXPECT_EQ(p, 0u);
    ++regenerated;
    return write_file_atomic(victim, std::span<const std::uint8_t>(clean));
  };

  const char* const fields[] = {"magic", "count", "payload", "checksum"};
  ThreadPool pool(2);
  for (std::size_t field = 0; field < 4; ++field) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      SCOPED_TRACE(std::string(fields[field]) + " bit " +
                   std::to_string(bit));
      std::vector<std::uint8_t> damaged = clean;
      damaged[clean.size() - 32 + field * 8 + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(
          write_file_atomic(victim, std::span<const std::uint8_t>(damaged))
              .ok());

      SpillRecords records;
      Status s;
      EXPECT_NO_THROW(s = read_spill_partition(victim, &records));
      EXPECT_FALSE(s.ok());
      EXPECT_NE(s.to_string().find(victim), std::string::npos)
          << s.to_string();

      regenerated = 0;
      DiffResult got;
      EXPECT_NO_THROW(
          s = spill_diff_join(prev_side, cur_side, options, &got, &pool));
      ASSERT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(regenerated, 1u);
      expect_diff_equal(want, got);
    }
  }
}

TEST(SpillReaderTest, TruncatedFileIsRejected) {
  SnapshotTable table;
  table.add(file_record("/lustre/atlas2/p/u/a", 1, 1, 1));
  TempDir dir("spider_spill_truncated");
  const SpilledSide side = spill_table(table, dir.path(), "t", 0);

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(side.files[0], &bytes).ok());
  bytes.resize(bytes.size() - 10);
  ASSERT_TRUE(write_file_atomic(
                  side.files[0],
                  std::span<const std::uint8_t>(bytes.data(), bytes.size()))
                  .ok());
  SpillRecords records;
  EXPECT_FALSE(read_spill_partition(side.files[0], &records).ok());

  bytes.resize(8);  // shorter than any trailer
  ASSERT_TRUE(write_file_atomic(
                  side.files[0],
                  std::span<const std::uint8_t>(bytes.data(), bytes.size()))
                  .ok());
  EXPECT_EQ(read_spill_partition(side.files[0], &records).code(),
            StatusCode::kTruncated);
}

TEST(SpillJoinTest, EmptySidesJoinCleanly) {
  SnapshotTable prev, cur;
  TempDir dir("spider_spill_empty");
  const SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 2);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 2);
  DiffOptions options;
  options.dirs = true;
  DiffResult got;
  ASSERT_TRUE(spill_diff_join(prev_side, cur_side, options, &got).ok());
  EXPECT_TRUE(got.new_rows.empty());
  EXPECT_TRUE(got.deleted_rows.empty());
  EXPECT_EQ(got.prev_files, 0u);
  EXPECT_EQ(got.cur_files, 0u);
}

TEST(SpillJoinTest, MismatchedFanOutIsRejected) {
  SnapshotTable table;
  TempDir dir("spider_spill_mismatch");
  const SpilledSide a = spill_table(table, dir.path(), "a", 2);
  const SpilledSide b = spill_table(table, dir.path(), "b", 3);
  DiffResult got;
  EXPECT_EQ(spill_diff_join(a, b, DiffOptions{}, &got).code(),
            StatusCode::kInvalidArgument);
}

TEST(SpillWriterTest, AbandonedWriterRemovesItsFiles) {
  TempDir dir("spider_spill_cleanup");
  std::vector<std::string> files;
  {
    SnapshotTable table;
    table.add(file_record("/lustre/atlas2/p/u/a", 1, 1, 1));
    SpillPartitionWriter writer;
    SpillPartitionWriter::Options options;
    options.dir = dir.path();
    options.stem = "doomed";
    options.bits = 1;
    ASSERT_TRUE(writer.open(options).ok());
    ASSERT_TRUE(writer.add_table(table).ok());
    files = writer.files();
    for (const std::string& file : files) EXPECT_TRUE(fs::exists(file));
    // No finish(): the writer was abandoned mid-spill.
  }
  for (const std::string& file : files) EXPECT_FALSE(fs::exists(file));
}

}  // namespace
}  // namespace spider
