#include "engine/spill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/diff.h"
#include "reference_diff.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

// A partition's decoded paths pass 4 GiB at paper scale (a 1 B-row week on
// a 16 GiB budget spills ~31 M rows of ~164 B paths into each of its 32
// partitions), so the offsets into them must be 64-bit.
static_assert(std::is_same_v<decltype(SpillRecords::path_offsets)::value_type,
                             std::uint64_t>);

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

/// Bytes of a partition file's fixed trailer and of one block directory
/// entry (engine/spill.h documents the layout).
constexpr std::size_t kTrailerBytes = 40;
constexpr std::size_t kEntryBytes = 32;

std::uint64_t load_u64_at(const std::vector<std::uint8_t>& bytes,
                          std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

/// A partition file's layout, read from its trailer and directory.
struct FileLayout {
  std::uint64_t blocks = 0;
  std::uint64_t payload = 0;
  std::vector<std::uint64_t> block_starts;  // blocks + 1 offsets
};

FileLayout file_layout(const std::vector<std::uint8_t>& bytes) {
  FileLayout layout;
  const std::size_t trailer = bytes.size() - kTrailerBytes;
  layout.blocks = load_u64_at(bytes, trailer + 8);
  layout.payload = load_u64_at(bytes, trailer + 24);
  layout.block_starts.push_back(0);
  for (std::size_t k = 0; k < layout.blocks; ++k) {
    layout.block_starts.push_back(
        layout.block_starts.back() +
        load_u64_at(bytes, layout.payload + k * kEntryBytes + 8));
  }
  return layout;
}

/// Flips one payload byte of `file`, leaving the trailer intact so only
/// the checksum catches it.
void corrupt_payload_byte(const std::string& file) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(file, &bytes).ok());
  ASSERT_GT(bytes.size(), kTrailerBytes + kEntryBytes + 1)
      << "need a non-empty payload to corrupt";
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
        const DiffResult want = reference_diff(prev, cur, options);
        for (ThreadPool* pool : {&one, &two, &seven, &hw}) {
          SCOPED_TRACE("bits=" + tag + " prev_rows=" +
                       std::to_string(prev_rows) + " dirs=" +
                       std::to_string(dirs) +
                       " threads=" + std::to_string(pool->size()));
          DiffResult got;
          ASSERT_TRUE(
              spill_diff_join(prev_side, cur_side, options, &got, pool).ok());
          expect_same_diff(got, want);
        }
      }
    }
  }
}

TEST_P(SpillJoinParity, MatchesWithoutExtras) {
  SnapshotTable prev, cur;
  make_week_pair(GetParam() + 100, &prev, &cur);
  const DiffResult want = reference_diff(prev, cur);

  TempDir dir("spider_spill_noextras_" + std::to_string(GetParam()));
  const SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 2);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 2);
  DiffResult got;
  ASSERT_TRUE(spill_diff_join(prev_side, cur_side, DiffOptions{}, &got).ok());
  expect_same_diff(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillJoinParity,
                         ::testing::Values(21, 22, 23, 24));

/// Reads every partition of `side` back: the last must hold strictly the
/// most records and path bytes, and the side must report those maxima.
void expect_last_partition_largest(const SpilledSide& side,
                                   const std::string& what) {
  std::vector<std::size_t> records, path_bytes;
  for (const std::string& file : side.files) {
    SpillRecords part;
    ASSERT_TRUE(read_spill_partition(file, &part).ok()) << file;
    records.push_back(part.size());
    path_bytes.push_back(part.path_bytes.size());
  }
  for (std::size_t p = 0; p + 1 < records.size(); ++p) {
    EXPECT_LT(records[p], records.back()) << what << " partition " << p;
    EXPECT_LT(path_bytes[p], path_bytes.back()) << what << " partition " << p;
  }
  EXPECT_EQ(side.largest_records, records.back()) << what;
  EXPECT_EQ(side.largest_path_bytes, path_bytes.back()) << what;
}

TEST(SpillJoinTest, LastPartitionLargestOnBothSidesSizesColumnsOnce) {
  // Keep every row of partition 3 (the top two hash bits set) and about a
  // quarter of the others', so the join meets its largest partition last
  // on both sides: the columns it reserved up front must hold it.
  constexpr std::uint32_t kBits = 2;
  const auto keep = [](std::uint64_t hash) {
    return (hash >> 62) == 3 || (hash & 3) == 0;
  };
  SnapshotTable all_prev, all_cur, prev, cur;
  make_week_pair(71, &all_prev, &all_cur, 20000);
  for (std::size_t i = 0; i < all_prev.size(); ++i) {
    if (keep(all_prev.path_hash(i))) prev.add(all_prev.row(i));
  }
  for (std::size_t i = 0; i < all_cur.size(); ++i) {
    if (keep(all_cur.path_hash(i))) cur.add(all_cur.row(i));
  }

  TempDir dir("spider_spill_last_largest");
  SpilledSide prev_side = spill_table(prev, dir.path(), "prev", kBits);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", kBits);
  expect_last_partition_largest(prev_side, "prev");
  expect_last_partition_largest(cur_side, "cur");

  // Reserved from the side's maxima, the columns hold every partition
  // without a reallocation.
  SpillRecords part;
  part.reserve(prev_side.largest_records, prev_side.largest_path_bytes);
  const std::size_t record_capacity = part.hashes.capacity();
  const std::size_t path_capacity = part.path_bytes.capacity();
  for (const std::string& file : prev_side.files) {
    ASSERT_TRUE(read_spill_partition(file, &part).ok());
    EXPECT_EQ(part.hashes.capacity(), record_capacity) << file;
    EXPECT_EQ(part.path_offsets.capacity(), record_capacity + 1) << file;
    EXPECT_EQ(part.path_bytes.capacity(), path_capacity) << file;
  }

  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = reference_diff(prev, cur, options);
  ThreadPool one(1), hw(0);
  for (ThreadPool* pool : {&one, &hw}) {
    DiffResult got;
    ASSERT_TRUE(
        spill_diff_join(prev_side, cur_side, options, &got, pool).ok());
    expect_same_diff(got, want);
  }

  // A regenerated side is a fresh spill of the same rows: it reports the
  // same maxima, and the join still matches.
  corrupt_payload_byte(prev_side.files.back());
  std::size_t regenerated = 0;
  SpilledSide rewritten;
  const std::string path = dir.path();
  prev_side.regenerate = [&](std::size_t) {
    ++regenerated;
    rewritten = spill_table(prev, path, "prev", kBits);
    return Status();
  };
  DiffResult got;
  ASSERT_TRUE(spill_diff_join(prev_side, cur_side, options, &got).ok());
  EXPECT_EQ(regenerated, 1u);
  expect_same_diff(got, want);
  expect_last_partition_largest(rewritten, "regenerated prev");
  EXPECT_EQ(rewritten.largest_records, prev_side.largest_records);
  EXPECT_EQ(rewritten.largest_path_bytes, prev_side.largest_path_bytes);
}

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
  const DiffResult want = reference_diff(prev, cur, options);

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
  expect_same_diff(got, want);
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
    const DiffResult want = reference_diff(prev, cur, options);
    DiffResult got;
    ASSERT_TRUE(
        spill_diff_join(prev_side, cur_side, options, &got, &pool).ok());
    expect_same_diff(got, want);
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
  // Group sizes that are not multiples of the 4,096-record block, so every
  // partition's second block starts inside a group. The runner's
  // regenerate hooks rewrite a side group by group and rely on the rewrite
  // being byte-identical, so block bounds must follow each partition's
  // record count, not the add_table calls.
  SnapshotTable whole;
  std::vector<SnapshotTable> groups(4);
  const int group_rows[] = {5000, 3001, 4500, 2777};
  Rng rng(77);
  std::size_t row = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int i = 0; i < group_rows[g]; ++i, ++row) {
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
  const SpilledSide whole_side = spill_table(whole, dir.path(), "whole", 1);

  SpillPartitionWriter writer;
  SpillPartitionWriter::Options options;
  options.dir = dir.path();
  options.stem = "grouped";
  options.bits = 1;
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
    std::vector<std::uint8_t> whole_bytes, grouped_bytes;
    ASSERT_TRUE(read_file(whole_side.files[p], &whole_bytes).ok());
    ASSERT_TRUE(read_file(grouped_side.files[p], &grouped_bytes).ok());
    EXPECT_GE(file_layout(whole_bytes).blocks, 2u)
        << "each partition should restart its coding at least once";
    EXPECT_EQ(whole_bytes, grouped_bytes) << "partition " << p;

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

TEST(SpillWriterTest, LongPathsEndABlockAtItsByteBound) {
  // 300 records of ~1 KiB paths that share only their first byte: the
  // block reaches 256 KiB long before 4,096 records, so the coding must
  // restart there, and the partition must still read back as written.
  SnapshotTable table;
  Rng rng(91);
  for (int i = 0; i < 300; ++i) {
    std::string path = "/";
    for (int c = 0; c < 1024; ++c) {
      path.push_back(static_cast<char>('a' + rng.uniform_u64(26)));
    }
    table.add(file_record(path, 10 + i, 20 - i, 1'500'000'000 + 7 * i));
  }
  TempDir dir("spider_spill_long_paths");
  const SpilledSide side = spill_table(table, dir.path(), "long", 0);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(side.files[0], &bytes).ok());
  EXPECT_EQ(file_layout(bytes).blocks, 2u);

  SpillRecords records;
  ASSERT_TRUE(read_spill_partition(side.files[0], &records).ok());
  ASSERT_EQ(records.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(records.hashes[i], table.path_hash(i));
    EXPECT_EQ(records.rows[i], i);
    EXPECT_EQ(records.path(i), table.path(i));
    EXPECT_EQ(records.atimes[i], table.atime(i));
    EXPECT_EQ(records.mtimes[i], table.mtime(i));
    EXPECT_EQ(records.ctimes[i], table.ctime(i));
  }
}

TEST(SpillFaultTest, ChecksumMismatchRegeneratesOnceAndJoins) {
  SnapshotTable prev, cur;
  make_week_pair(41, &prev, &cur);
  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = reference_diff(prev, cur, options);

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
  expect_same_diff(got, want);
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

/// Writes `damaged` over `victim`, then checks that reading it fails with
/// a Status naming the file and that the join heals it through the
/// regenerate hook with exactly one call.
void expect_damage_heals(const std::string& victim,
                         const std::vector<std::uint8_t>& damaged,
                         const SpilledSide& prev_side,
                         const SpilledSide& cur_side,
                         const DiffOptions& options, const DiffResult& want,
                         std::size_t& regenerated, ThreadPool& pool) {
  ASSERT_TRUE(
      write_file_atomic(victim, std::span<const std::uint8_t>(damaged)).ok());
  SpillRecords records;
  Status s;
  EXPECT_NO_THROW(s = read_spill_partition(victim, &records));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find(victim), std::string::npos) << s.to_string();

  regenerated = 0;
  DiffResult got;
  EXPECT_NO_THROW(
      s = spill_diff_join(prev_side, cur_side, options, &got, &pool));
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(regenerated, 1u);
  expect_same_diff(got, want);
}

TEST(SpillFaultTest, TrailerBitFlipsFailThePartitionAndRegenerate) {
  // The fixed trailer is covered by no checksum, so each of its fields
  // (magic, block count, record count, payload size, directory checksum)
  // must be checked before anything trusts it — above all the counts,
  // which size the reader's columns. A directory entry is covered by the
  // directory checksum. Every single-bit flip of either must come back as
  // a Status naming the file, never as an exception, and the join must
  // heal it through the regenerate hook.
  SnapshotTable prev, cur;
  make_week_pair(44, &prev, &cur, 1500);
  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = reference_diff(prev, cur, options);

  TempDir dir("spider_spill_trailer_flips");
  SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 1);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 1);
  const std::string victim = prev_side.files[0];
  std::vector<std::uint8_t> clean;
  ASSERT_TRUE(read_file(victim, &clean).ok());
  const FileLayout layout = file_layout(clean);
  ASSERT_GE(layout.blocks, 1u);
  std::size_t regenerated = 0;
  prev_side.regenerate = [&](std::size_t p) {
    EXPECT_EQ(p, 0u);
    ++regenerated;
    return write_file_atomic(victim, std::span<const std::uint8_t>(clean));
  };

  struct Field {
    const char* name;
    std::size_t at;
  };
  const std::size_t trailer = clean.size() - kTrailerBytes;
  const std::size_t entry = layout.payload;  // the first directory entry
  const Field fields[] = {
      {"magic", trailer},
      {"block count", trailer + 8},
      {"record count", trailer + 16},
      {"payload", trailer + 24},
      {"directory checksum", trailer + 32},
      {"entry records", entry},
      {"entry bytes", entry + 8},
      {"entry path bytes", entry + 16},
      {"entry checksum", entry + 24},
  };
  ThreadPool pool(2);
  for (const Field& field : fields) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      SCOPED_TRACE(std::string(field.name) + " bit " + std::to_string(bit));
      std::vector<std::uint8_t> damaged = clean;
      damaged[field.at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_damage_heals(victim, damaged, prev_side, cur_side, options, want,
                          regenerated, pool);
    }
  }
}

TEST(SpillFaultTest, BlockDamageAndBlockBoundaryCutsRegenerate) {
  // One partition of at least three blocks. A byte flipped inside any
  // block fails that block's checksum; a file cut at any block boundary
  // (down to an empty file) has lost its trailer. Each case must fail the
  // partition with a Status naming the file, never throw, and heal
  // through the regenerate hook.
  SnapshotTable prev, cur;
  make_week_pair(45, &prev, &cur, 12000);
  DiffOptions options;
  options.prev_rows = true;
  options.dirs = true;
  const DiffResult want = reference_diff(prev, cur, options);

  TempDir dir("spider_spill_block_sweep");
  SpilledSide prev_side = spill_table(prev, dir.path(), "prev", 0);
  const SpilledSide cur_side = spill_table(cur, dir.path(), "cur", 0);
  const std::string victim = prev_side.files[0];
  std::vector<std::uint8_t> clean;
  ASSERT_TRUE(read_file(victim, &clean).ok());
  const FileLayout layout = file_layout(clean);
  ASSERT_GE(layout.blocks, 3u);
  std::size_t regenerated = 0;
  prev_side.regenerate = [&](std::size_t p) {
    EXPECT_EQ(p, 0u);
    ++regenerated;
    return write_file_atomic(victim, std::span<const std::uint8_t>(clean));
  };

  ThreadPool pool(4);
  for (std::size_t k = 0; k < layout.blocks; ++k) {
    SCOPED_TRACE("byte flipped in block " + std::to_string(k));
    std::vector<std::uint8_t> damaged = clean;
    damaged[(layout.block_starts[k] + layout.block_starts[k + 1]) / 2] ^= 0x20;
    expect_damage_heals(victim, damaged, prev_side, cur_side, options, want,
                        regenerated, pool);
  }
  for (const std::uint64_t cut : layout.block_starts) {
    SCOPED_TRACE("file cut at byte " + std::to_string(cut));
    const std::vector<std::uint8_t> damaged(
        clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_damage_heals(victim, damaged, prev_side, cur_side, options, want,
                        regenerated, pool);
  }
}

/// Recomputes every block checksum into its directory entry, then the
/// directory checksum into the trailer: damage made this way passes every
/// checksum, so only the reader's record checks can catch it.
void reseal(std::vector<std::uint8_t>& bytes) {
  const FileLayout layout = file_layout(bytes);
  const auto store = [&bytes](std::size_t at, std::uint64_t v) {
    std::memcpy(bytes.data() + at, &v, sizeof(v));
  };
  for (std::size_t k = 0; k < layout.blocks; ++k) {
    const std::size_t begin = layout.block_starts[k];
    store(layout.payload + k * kEntryBytes + 24,
          hash_bytes(std::string_view(
              reinterpret_cast<const char*>(bytes.data() + begin),
              layout.block_starts[k + 1] - begin)));
  }
  store(bytes.size() - kTrailerBytes + 32,
        hash_bytes(std::string_view(
            reinterpret_cast<const char*>(bytes.data() + layout.payload),
            layout.blocks * kEntryBytes)));
}

TEST(SpillReaderTest, RecordsAreCheckedBehindTheChecksums) {
  // A block that passes its checksum is still walked as the .scol path
  // walk is: a shared prefix longer than the previous path, a suffix past
  // the block, or paths that disagree with the directory entry must each
  // fail the partition, naming the file, without reading out of bounds.
  // The one record codes as hash(8), row(1), prefix and kind(1), suffix
  // length(1), then the suffix.
  SnapshotTable table;
  table.add(file_record("/lustre/atlas2/p/u/a", 1, 1, 1));
  TempDir dir("spider_spill_record_checks");
  const SpilledSide side = spill_table(table, dir.path(), "one", 0);
  std::vector<std::uint8_t> clean;
  ASSERT_TRUE(read_file(side.files[0], &clean).ok());
  ASSERT_EQ(file_layout(clean).blocks, 1u);
  ASSERT_EQ(clean[9], 0u) << "prefix 0, kind file";
  ASSERT_EQ(clean[10], table.path(0).size());

  // Each case sets one byte, and the directory's path bytes to `paths`;
  // the first keeps the path total consistent, so that only the shared
  // length is wrong.
  struct Case {
    const char* name;
    std::size_t at;
    std::uint8_t value;
    std::uint8_t paths;
  };
  const std::size_t paths_at = file_layout(clean).payload + 16;
  const std::uint8_t paths = clean[paths_at];
  const Case cases[] = {
      {"shared prefix past the previous path", 9, 2,
       static_cast<std::uint8_t>(paths + 1)},
      {"suffix past the block", 10, 0x7f, paths},
      {"directory path bytes one short", 0, clean[0],
       static_cast<std::uint8_t>(paths - 1)},
      {"directory path bytes one over", 0, clean[0],
       static_cast<std::uint8_t>(paths + 1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::uint8_t> damaged = clean;
    damaged[c.at] = c.value;
    damaged[paths_at] = c.paths;
    reseal(damaged);
    ASSERT_TRUE(write_file_atomic(side.files[0],
                                  std::span<const std::uint8_t>(damaged))
                    .ok());
    SpillRecords records;
    Status s;
    EXPECT_NO_THROW(s = read_spill_partition(side.files[0], &records));
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.to_string();
    EXPECT_NE(s.to_string().find(side.files[0]), std::string::npos);
    EXPECT_EQ(records.size(), 0u);
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

TEST(SpillReaderTest, PartitionOfEmptyPathsReadsBack) {
  // No record has a path byte, so the decoded path column stays empty.
  TempDir dir("spider_spill_empty_paths");
  SpillPartitionWriter writer;
  SpillPartitionWriter::Options options;
  options.dir = dir.path();
  options.stem = "w";
  ASSERT_TRUE(writer.open(options).ok());
  for (std::uint32_t row = 0; row < 3; ++row) {
    ASSERT_TRUE(writer.add(row + 1, row, row == 1, 10, 20 + row, 30, "").ok());
  }
  ASSERT_TRUE(writer.finish().ok());
  SpillRecords records;
  ASSERT_TRUE(read_spill_partition(writer.files()[0], &records).ok());
  ASSERT_EQ(records.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records.hashes[i], i + 1);
    EXPECT_EQ(records.rows[i], i);
    EXPECT_EQ(records.dir_flags[i], i == 1 ? 1 : 0);
    EXPECT_EQ(records.atimes[i], 10);
    EXPECT_EQ(records.mtimes[i], 20 + i);
    EXPECT_EQ(records.ctimes[i], 30);
    EXPECT_TRUE(records.path(i).empty());
  }
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
