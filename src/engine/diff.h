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
// Two in-memory joins share this contract (README "join strategies",
// DESIGN.md §11): a single hash index (the reference the tests compare
// against) and the radix-partitioned join, which the study runner fuses
// into its weekly scan. Both produce byte-identical DiffResults at any
// thread count; bench/bench_diff.cpp measures them against each other.
// The out-of-core spill join (engine/spill.h) honors the same contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/hash_index.h"
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

/// Per-phase wall-clock of one diff, for the join benchmark.
struct DiffBreakdown {
  double build_s = 0;  // index build over the previous week
  double probe_s = 0;  // classify the current week against it
  double sweep_s = 0;  // splice partials + deleted sweep / final sorts
};

/// One scan chunk's classification of current-week rows, each list in
/// ascending row order. The concatenation across chunks (in chunk order)
/// of each class is globally ascending — the mechanism behind the
/// bit-identity of every join and of the fused kernel.
struct DiffChunkRows {
  static constexpr int kNew = 0;
  static constexpr int kReadonly = 1;
  static constexpr int kUpdated = 2;
  static constexpr int kUntouched = 3;
  std::vector<std::uint32_t> rows[4];

  /// Set before probing to also record each matched row's previous-week
  /// twin in prev_rows (index-parallel with rows; kNew stays empty).
  bool record_prev = false;
  std::vector<std::uint32_t> prev_rows[4];

  // Directory classification, filled only when the probe is handed a
  // DiffDirProbe. changed_dirs_prev is index-parallel with changed_dirs.
  std::vector<std::uint32_t> new_dirs;          // cur rows
  std::vector<std::uint32_t> changed_dirs;      // cur rows
  std::vector<std::uint32_t> changed_dirs_prev; // prev rows
};

/// Classifies regular files between two adjacent snapshots with the single
/// hash-index join. Probes in parallel on `pool` (null = global pool);
/// outputs are in ascending row order (deterministic).
DiffResult diff_snapshots(const SnapshotTable& prev, const SnapshotTable& cur,
                          ThreadPool* pool = nullptr,
                          DiffBreakdown* breakdown = nullptr,
                          const DiffOptions& options = {});

/// The radix-partitioned join (DESIGN.md §11): build side partitioned once
/// by the top bits of the path hash, per-partition shards built fully in
/// parallel with no atomics, parallel probe, parallel deleted sweep.
/// Byte-identical to diff_snapshots at any thread count.
DiffResult diff_snapshots_partitioned(const SnapshotTable& prev,
                                      const SnapshotTable& cur,
                                      ThreadPool* pool = nullptr,
                                      DiffBreakdown* breakdown = nullptr,
                                      const DiffOptions& options = {});

// --- Fused-kernel building blocks -----------------------------------------
// The study runner computes the diff as a kernel on the shared weekly scan
// (study/runner.cc) instead of as a separate pass: each scan chunk probes
// its own rows via diff_probe_range, and the kernel's merge assembles the
// DiffResult via diff_finalize. Exposed here so the kernel, the standalone
// joins, and the tests share one implementation.

/// Directory side of the probe (DiffOptions::dirs): an index over the
/// previous week's directory rows plus its match flags, one per indexed
/// directory (0 -> 1 transitions only; relaxed atomics suffice).
struct DiffDirProbe {
  const DetachedPathIndex* index = nullptr;
  std::atomic<std::uint8_t>* matched = nullptr;
};

/// Probes rows [begin, end) of `cur` against the partitioned index over
/// `prev`, appending each file row to the matching class list of `out` and
/// flagging matched build-side ordinals in `matched` (0 -> 1 transitions
/// only; relaxed atomics suffice). With out->record_prev set, the matched
/// classes also record the previous-week row; with `dirs`, directory rows
/// are classified against its index instead of being skipped. Safe to run
/// concurrently over disjoint ranges with distinct `out` states.
void diff_probe_range(const PartitionedPathIndex& index,
                      const SnapshotTable& prev, const SnapshotTable& cur,
                      std::size_t begin, std::size_t end,
                      std::atomic<std::uint8_t>* matched, DiffChunkRows* out,
                      const DiffDirProbe* dirs = nullptr);

/// Optional diff_finalize outputs matching DiffOptions: prev-row splicing
/// (the probes ran with record_prev) and the directory lists plus the
/// deleted-directory sweep of `prev_dir_rows` against `dir_matched`.
struct DiffFinalizeExtras {
  bool prev_rows = false;
  bool dirs = false;
  std::span<const std::uint32_t> prev_dir_rows;
  const std::atomic<std::uint8_t>* dir_matched = nullptr;
};

/// Splices per-chunk classifications (chunk order) into `out` and sweeps
/// the unmatched positions of `prev_file_rows` into deleted_rows, in
/// parallel. Fills the row lists only; the caller sets
/// prev_files/cur_files.
void diff_finalize(std::span<const std::uint32_t> prev_file_rows,
                   const std::atomic<std::uint8_t>* matched,
                   std::span<const DiffChunkRows* const> chunks,
                   ThreadPool* pool, DiffResult* out,
                   const DiffFinalizeExtras* extras = nullptr);

/// Ascending directory rows of `table` — the build side of the directory
/// diff, fed to DetachedPathIndex.
std::vector<std::uint32_t> dir_rows_of(const SnapshotTable& table);

}  // namespace spider
