// Spill-to-disk diff join: the out-of-core half of the week-over-week
// snapshot diff (DESIGN.md §15).
//
// The in-memory joins in engine/diff.h hold the previous week's path
// index — and with it the previous week's table — resident for the whole
// probe. Under a streaming study (study/runner.cc with a memory budget)
// neither week is resident: each arrives one row group at a time. This
// layer replaces the resident index with disk partitions:
//
//   1. Each side spills its diff-relevant columns (path hash, row, kind,
//      three timestamps, path bytes) into 1<<bits partition files keyed by
//      the TOP bits of the path hash — the same convention as
//      RadixPartitions::partition_of, so a path lands in partition p on
//      both sides and the join never crosses partition boundaries.
//   2. spill_diff_join loads ONE partition pair at a time, sort-merges it
//      (sort both sides by (hash, path), walk, classify on timestamp
//      equality), and appends to the global class lists. Peak memory is
//      one partition pair plus the result, never a whole week.
//   3. A final ascending-by-row sort per class restores the hash join's
//      row-order contract, so the result is bit-identical to
//      diff_snapshots (the spill tests compare the two).
//
// Partition files are temp files, not atomically-written artifacts, so
// every file carries a trailer with a record count and a running checksum.
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
  /// Rewrites files[p] from the original data. Null = no recovery; a
  /// checksum failure is then immediately fatal.
  std::function<Status(std::size_t p)> regenerate;
};

/// Streams one snapshot's diff-relevant columns into partition files.
/// Feed rows in ascending row order (whole table or group-at-a-time);
/// finish() seals every file with its trailer. The writer buffers a few
/// hundred KiB per partition and appends through plain file descriptors —
/// these are scratch files, recreated on demand, so the atomic-rename
/// discipline of write_file_atomic would buy nothing.
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

  /// Flushes buffers, writes each file's trailer, and closes. The writer
  /// cannot accept rows afterwards.
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
  Status flush(std::size_t p);

  std::uint32_t bits_ = 0;
  std::vector<std::string> files_;
  std::vector<int> fds_;
  std::vector<std::vector<std::uint8_t>> buffers_;
  std::vector<std::uint64_t> counts_;       // records per partition
  std::vector<std::uint64_t> bytes_;        // payload bytes per partition
  std::vector<std::uint64_t> checksums_;    // running record-hash chains
  std::uint64_t file_rows_ = 0;
  std::uint64_t dir_rows_ = 0;
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
  std::vector<std::uint32_t> path_offsets;  // size()+1 entries
  std::string path_bytes;

  std::size_t size() const { return hashes.size(); }
  std::string_view path(std::size_t i) const {
    return std::string_view(path_bytes)
        .substr(path_offsets[i], path_offsets[i + 1] - path_offsets[i]);
  }
  void clear();
};

/// Reads and verifies one partition file. kCorruption on checksum or
/// framing damage, kTruncated when the trailer is cut short — both name
/// the file.
Status read_spill_partition(const std::string& file, SpillRecords* out);

/// Joins two spilled sides partition-pair-at-a-time into the same
/// DiffResult that diff_snapshots(prev, cur, ...) would produce on the
/// resident tables — bit-identical lists, including the prev-row and
/// directory extras when `options` asks for them. Both sides must have
/// been spilled with the same `bits`. A damaged partition is regenerated
/// through its side's hook and re-read once; a second failure (or a null
/// hook) fails the join.
Status spill_diff_join(const SpilledSide& prev, const SpilledSide& cur,
                       const DiffOptions& options, DiffResult* out);

}  // namespace spider
