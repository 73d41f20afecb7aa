// Spill-to-disk diff join: the out-of-core half of the week-over-week
// snapshot diff (DESIGN.md §15).
//
// The in-memory join in engine/diff.h holds the previous week's path
// index — and with it the previous week's table — resident for the whole
// probe. Under a streaming study (study/runner.cc with a memory budget)
// neither week is resident: each arrives one row group at a time. This
// layer replaces the resident index with disk partitions:
//
//   1. Each side spills its diff-relevant columns (path hash, row, kind,
//      three timestamps, path bytes) into 1<<bits partition files keyed by
//      the TOP bits of the path hash (RadixPartitions::partition_of), so a
//      path lands in partition p on both sides and the join never crosses
//      partition boundaries. Records are front-coded in blocks (layout
//      below).
//   2. spill_diff_join reserves each side's columns once, for the side's
//      largest partition (SpilledSide::largest_records and
//      largest_path_bytes), then loads ONE partition pair at a time. It
//      maps each file, checks its trailer and block directory, sizes the
//      side's columns from the directory on the calling thread (within
//      the reserved capacity), and decodes the blocks on the pool. It
//      indexes the previous side's records in PathIndex's slot layout
//      (fingerprint in the slot, full path compare on a hit), then
//      probes the current side's records on the pool. Each probe
//      classifies on timestamp equality and writes the row's class into
//      per-row arrays sized from each side's row count. Peak memory is one
//      decoded partition pair, its index and a few bytes per row, never a
//      whole week.
//   3. One sweep over the per-row arrays then emits every class list
//      already ascending by row — the diff's row-order contract — so the
//      result is bit-identical to the in-memory diff (the spill tests
//      compare both with a path-keyed reference) with nothing left to
//      sort.
//
// A partition file is a run of blocks, then a block directory, then a
// fixed trailer; every integer is little-endian:
//
//   record   path hash (8 bytes, as given to add())
//            row: zig-zag varint delta from the previous record's row
//            varint (shared prefix length << 1 | is_dir)
//            varint suffix length, then the suffix bytes
//            mtime: zig-zag varint delta from the previous record's mtime
//            atime, ctime: zig-zag varint deltas from this record's mtime
//   block    up to 4,096 records; a block also ends once it holds 256 KiB.
//            Coding restarts in each block (empty previous path, row and
//            mtime 0), so blocks decode independently, and their bounds
//            follow the partition's record count alone: a rewrite of the
//            same rows is byte-identical however add() calls were grouped.
//   entry    per block: records, bytes, decoded path bytes, and the block
//            bytes' hash_bytes checksum (4 x u64)
//   trailer  magic "SPL0002\0", block count, record count, payload bytes,
//            and the directory's hash_bytes checksum (5 x u64)
//
// Partition files are temp files, not atomically-written artifacts. A
// reader checks every trailer field and the directory before it sizes
// anything, then each block against its checksum and its directory entry.
// A reader that finds a damaged partition asks the owning side to
// regenerate it (the side that spilled the data can always re-derive it —
// re-scan the resident table or re-decode the week's row groups) and
// retries once before giving up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/diff.h"
#include "snapshot/table.h"
#include "util/parallel.h"
#include "util/status.h"

namespace spider {

/// Picks the spill fan-out for a side of `rows` total rows: enough
/// partitions that one partition pair stays comfortably inside
/// `partition_budget` bytes (estimating `bytes_per_row` spilled bytes per
/// row), clamped to [0, 8] bits (1..256 files). 0 bits = one partition,
/// the degenerate "everything spills but nothing is split" case.
std::uint32_t spill_bits_for(std::uint64_t rows, std::size_t bytes_per_row,
                             std::size_t partition_budget);

/// One side's spilled snapshot: the partition files on disk plus the hook
/// that rewrites one of them after a checksum failure. `files[p]` holds
/// every record whose path hash maps to partition p.
struct SpilledSide {
  std::uint32_t bits = 0;
  std::vector<std::string> files;  // size 1 << bits
  std::uint64_t file_rows = 0;     // non-directory records across partitions
  std::uint64_t dir_rows = 0;
  /// The most records, and the most decoded path bytes, that any one
  /// partition holds (the two maxima may come from different partitions).
  /// The join sizes its columns from them once; they are a capacity hint
  /// only, and every size it decodes still comes from the file.
  std::uint64_t largest_records = 0;
  std::uint64_t largest_path_bytes = 0;
  /// Rewrites files[p] from the original data. Null = no recovery; a
  /// checksum failure is then immediately fatal.
  std::function<Status(std::size_t p)> regenerate;
};

/// Streams one snapshot's diff-relevant columns into partition files.
/// Feed rows in ascending row order (whole table or group-at-a-time);
/// finish() seals every file with its directory and trailer. The writer
/// holds one open block per partition and writes each block as it seals,
/// through plain file descriptors — these are scratch files, recreated on
/// demand, so the atomic-rename discipline of write_file_atomic would buy
/// nothing.
class SpillPartitionWriter {
 public:
  struct Options {
    std::string dir;   // existing directory that receives the files
    std::string stem;  // file name prefix, e.g. "w0012-cur"
    std::uint32_t bits = 0;  // 1 << bits partition files, at most 8 bits
  };

  SpillPartitionWriter() = default;
  ~SpillPartitionWriter();
  SpillPartitionWriter(const SpillPartitionWriter&) = delete;
  SpillPartitionWriter& operator=(const SpillPartitionWriter&) = delete;

  /// Creates (truncating) the 1<<bits partition files.
  Status open(const Options& options);

  /// Appends one row. `row` is the row's GLOBAL position in its snapshot
  /// (streaming callers add the group base), which is exactly the value
  /// the diff result reports.
  Status add(std::uint64_t path_hash, std::uint32_t row, bool is_dir,
             std::int64_t atime, std::int64_t mtime, std::int64_t ctime,
             std::string_view path);

  /// Appends every row of `table`, numbering them base..base+size.
  Status add_table(const SnapshotTable& table, std::size_t base = 0);

  /// Seals each partition's open block, writes its directory and trailer,
  /// and closes. The writer cannot accept rows afterwards.
  Status finish();

  /// Best-effort cleanup: closes and unlinks every partition file.
  /// Harmless after finish() + consumption; automatic on destruction if
  /// finish() never ran.
  void remove_files();

  /// The finished side (regenerate left null — the owner installs it).
  /// Valid after finish().
  SpilledSide side() const;

  const std::vector<std::string>& files() const { return files_; }

 private:
  /// One partition file's open block, its coding state and the directory
  /// of the blocks already written.
  struct Partition {
    int fd = -1;
    std::vector<std::uint8_t> block;  // capacity; `used` bytes are coded
    std::size_t used = 0;
    std::uint64_t block_records = 0;
    std::uint64_t block_path_bytes = 0;
    std::uint32_t prev_row = 0;
    std::int64_t prev_mtime = 0;
    std::string prev_path;
    std::vector<std::uint8_t> directory;  // sealed blocks' entries
    std::uint64_t records = 0;     // in sealed blocks
    std::uint64_t payload = 0;     // bytes of sealed blocks
    std::uint64_t path_bytes = 0;  // decoded path bytes of sealed blocks
  };

  Status seal_block(std::size_t p);

  std::uint32_t bits_ = 0;
  std::vector<std::string> files_;
  std::vector<Partition> parts_;
  std::uint64_t file_rows_ = 0;
  std::uint64_t dir_rows_ = 0;
  std::uint64_t largest_records_ = 0;     // over the sealed partitions
  std::uint64_t largest_path_bytes_ = 0;  // over the sealed partitions
  bool finished_ = false;
};

/// One decoded partition file, column-major. Row order is the order the
/// records were spilled (ascending snapshot rows).
struct SpillRecords {
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint8_t> dir_flags;
  std::vector<std::int64_t> atimes;
  std::vector<std::int64_t> mtimes;
  std::vector<std::int64_t> ctimes;
  std::vector<std::uint64_t> path_offsets;  // size()+1 entries
  std::string path_bytes;

  std::size_t size() const { return hashes.size(); }
  std::string_view path(std::size_t i) const {
    return std::string_view(path_bytes)
        .substr(path_offsets[i], path_offsets[i + 1] - path_offsets[i]);
  }
  /// Capacity for `records` records and `path_bytes` path bytes.
  void reserve(std::size_t records, std::size_t path_bytes);
  void clear();
};

/// Reads and verifies one partition file. kCorruption on a damaged
/// trailer, directory or block — every trailer field is checked before
/// anything is sized from it — and kTruncated when the file is shorter
/// than its trailer; both name the file.
Status read_spill_partition(const std::string& file, SpillRecords* out);

/// Joins two spilled sides partition-pair-at-a-time into the same
/// DiffResult that diff_snapshots_partitioned(prev, cur, ...) produces on
/// the resident tables — bit-identical lists, including the prev-row and
/// directory extras when `options` asks for them. Both sides must have
/// been spilled with the same `bits`, and their rows numbered
/// 0..file_rows+dir_rows-1; a record outside that range fails the join
/// with kCorruption. Blocks are verified and decoded, and records probed,
/// on `pool` (null = process-global); every allocation happens on the
/// calling thread. A damaged partition is regenerated through its side's
/// hook and re-read once; a second failure (or a null hook) fails the join.
Status spill_diff_join(const SpilledSide& prev, const SpilledSide& cur,
                       const DiffOptions& options, DiffResult* out,
                       ThreadPool* pool = nullptr);

}  // namespace spider
