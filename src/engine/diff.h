// Adjacent-snapshot diff: the paper's Figure 13 classifier.
//
// Two weekly snapshots are joined on path (regular files only). Rows of the
// current week are classified against the previous week:
//   new       — path absent last week
//   readonly  — present; only atime changed
//   updated   — present; mtime and/or ctime changed
//   untouched — present; all three timestamps identical
// and rows of the previous week absent now are `deleted`. The percentages
// reported by the study follow the paper's convention: deleted, readonly,
// updated, untouched are fractions of the previous week's file count; new
// is a fraction of the current week's.
//
// The engine has one in-memory join (DESIGN.md §11): DiffKernel, a scan
// kernel that probes a radix-partitioned index over the previous week. The
// study runner registers it first in every fused week's shared scan, and
// diff_snapshots_partitioned runs it alone over the current week. Its
// DiffResult is byte-identical at any thread count. The out-of-core spill
// join (engine/spill.h) honors the same contract; the tests check both
// against a serial path-keyed reference (tests/engine/reference_diff.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/hash_index.h"
#include "engine/scan.h"
#include "snapshot/table.h"
#include "util/parallel.h"

namespace spider {

enum class AccessClass : std::uint8_t {
  kNew = 0,
  kDeleted = 1,
  kReadonly = 2,
  kUpdated = 3,
  kUntouched = 4,
};

struct DiffResult {
  // Rows in the *current* snapshot.
  std::vector<std::uint32_t> new_rows;
  std::vector<std::uint32_t> readonly_rows;
  std::vector<std::uint32_t> updated_rows;
  std::vector<std::uint32_t> untouched_rows;
  // Rows in the *previous* snapshot.
  std::vector<std::uint32_t> deleted_rows;

  // Matched previous-week rows, index-parallel with readonly_rows /
  // updated_rows / untouched_rows. Filled only when DiffOptions::prev_rows
  // was requested — the incremental study (DESIGN.md §13) needs the
  // prev-side twin of every matched row to retire last week's
  // contribution.
  bool has_prev_rows = false;
  std::vector<std::uint32_t> readonly_prev_rows;
  std::vector<std::uint32_t> updated_prev_rows;
  std::vector<std::uint32_t> untouched_prev_rows;

  // Directory diff (DiffOptions::dirs). Directories never enter the file
  // classes or the fractions; "changed" means any of the three timestamps
  // differs (a superset of ownership changes, which move ctime).
  // changed_dir_prev_rows is index-parallel with changed_dir_rows.
  bool has_dir_diff = false;
  std::vector<std::uint32_t> new_dir_rows;          // cur rows
  std::vector<std::uint32_t> changed_dir_rows;      // cur rows
  std::vector<std::uint32_t> changed_dir_prev_rows; // prev rows
  std::vector<std::uint32_t> deleted_dir_rows;      // prev rows

  std::size_t prev_files = 0;  // regular files in previous snapshot
  std::size_t cur_files = 0;   // regular files in current snapshot

  double deleted_fraction() const;
  double readonly_fraction() const;
  double updated_fraction() const;
  double untouched_fraction() const;
  double new_fraction() const;
};

/// Optional diff outputs beyond the five file-row lists. Every join honors
/// both flags with identical results.
struct DiffOptions {
  /// Record the matched previous-week row alongside each readonly /
  /// updated / untouched current-week row.
  bool prev_rows = false;
  /// Also diff directory rows (new / changed / deleted directories).
  bool dirs = false;
};

/// Per-phase wall-clock of one diff_snapshots_partitioned call.
struct DiffBreakdown {
  double build_s = 0;  // index build over the previous week
  double probe_s = 0;  // classify the current week against it
  double sweep_s = 0;  // splice the chunks' lists + deleted sweep
};

/// One scan chunk's classification of current-week rows, each list in
/// ascending row order. The concatenation across chunks (in chunk order)
/// of each class is globally ascending — the mechanism behind the
/// kernel's bit-identity at every thread count.
struct DiffChunkRows {
  static constexpr int kNew = 0;
  static constexpr int kReadonly = 1;
  static constexpr int kUpdated = 2;
  static constexpr int kUntouched = 3;
  std::vector<std::uint32_t> rows[4];

  /// Each matched row's previous-week twin, index-parallel with rows
  /// (kNew stays empty); filled only when the kernel records the prev-row
  /// mapping.
  std::vector<std::uint32_t> prev_rows[4];

  // Directory classification, filled only when the kernel diffs
  // directories. changed_dirs_prev is index-parallel with changed_dirs.
  std::vector<std::uint32_t> new_dirs;          // cur rows
  std::vector<std::uint32_t> changed_dirs;      // cur rows
  std::vector<std::uint32_t> changed_dirs_prev; // prev rows
};

/// The diff as a scan kernel over the current week (DESIGN.md §11): each
/// chunk probes its own rows against the partitioned index over the
/// previous week, and merge_chunks splices the chunks' lists in chunk
/// order and sweeps the unmatched previous-week files into deleted_rows.
/// The study runner registers it FIRST in a fused week's roster, so
/// within every chunk the probe runs before any sibling kernel observes
/// the same rows, and siblings read the chunk's classification through
/// chunk_rows(). Its merge assembles the week's DiffResult before any
/// sibling's merge runs. The current week must be resident (morsel base
/// 0), so morsel rows are table rows.
class DiffKernel : public ScanKernel {
 public:
  /// Arms the kernel for one scan. Must be called before every scan that
  /// includes it — it also resets the chunk registry and the match flags.
  /// `record_prev` turns on the prev-row mapping (DiffOptions::prev_rows)
  /// and a non-null `dir_index`, over the previous week's directory rows,
  /// the directory diff (DiffOptions::dirs). The index, `prev` and `out`
  /// must outlive the scan.
  void set_week(const PartitionedPathIndex& index, const SnapshotTable& prev,
                DiffResult* out, std::size_t cur_files, bool record_prev,
                const DetachedPathIndex* dir_index);

  std::unique_ptr<ScanChunkState> make_chunk_state() const override;
  void observe_chunk(ScanChunkState* state, const ScanMorsel& m) override;
  void merge_chunks(ScanStateList states, ThreadPool* pool) override;

  /// The classification of the morsel's chunk, looked up by m.chunk; null
  /// for a chunk this scan did not create. Complete once the kernel has
  /// observed the chunk, which within a chunk precedes every kernel
  /// registered after it.
  const DiffChunkRows* chunk_rows(const ScanMorsel& m) const {
    return m.chunk < chunk_rows_.size() ? chunk_rows_[m.chunk] : nullptr;
  }

  /// Wall-clock seconds of the last merge_chunks: the splice and the
  /// deleted sweep.
  double finalize_s() const { return finalize_s_; }

 private:
  struct Chunk;
  using MatchFlags = std::unique_ptr<std::atomic<std::uint8_t>[]>;

  const PartitionedPathIndex* index_ = nullptr;
  const SnapshotTable* prev_ = nullptr;
  DiffResult* out_ = nullptr;
  std::size_t cur_files_ = 0;
  bool record_prev_ = false;
  const DetachedPathIndex* dir_index_ = nullptr;
  /// Chunk index -> the chunk's lists. make_chunk_state runs serially in
  /// chunk order before the scan, so a state's registry index is its
  /// chunk index.
  mutable std::vector<const DiffChunkRows*> chunk_rows_;
  /// One flag per indexed file (ordinal) and per indexed directory
  /// (position), set 0 -> 1 by the probes; relaxed atomics suffice.
  MatchFlags matched_;
  MatchFlags dir_matched_;
  double finalize_s_ = 0;
};

/// Runs DiffKernel alone over `cur`: builds the partitioned index over
/// `prev` (and, with options.dirs, the directory index), then scans `cur`
/// on `pool` (null = global pool) at kScanGrainRows. Every output list is
/// ascending and identical at any thread count.
DiffResult diff_snapshots_partitioned(const SnapshotTable& prev,
                                      const SnapshotTable& cur,
                                      ThreadPool* pool = nullptr,
                                      DiffBreakdown* breakdown = nullptr,
                                      const DiffOptions& options = {});

/// Ascending directory rows of `table` — the build side of the directory
/// diff, fed to DetachedPathIndex.
std::vector<std::uint32_t> dir_rows_of(const SnapshotTable& table);

}  // namespace spider
