// Study framework: analyzers consume the snapshot series in one streaming
// pass (week by week, in order). Since the morsel refactor (DESIGN.md §10)
// each week is ONE shared parallel scan feeding every analyzer at once:
// the runner computes the union column projection, pushes it into the
// source, computes the adjacent-snapshot diff once for all diff-based
// analyzers — on resident weeks as a kernel fused into the same scan,
// probing a radix-partitioned index built during the decode slot
// (DESIGN.md §11) — and drives all analyzers' chunk kernels over the
// table via engine/scan.
// Decode of week N+1 overlaps analysis of week N (a depth-1 double
// buffer), and the previous week is retained by move or stable pointer —
// never by deep copy.
//
// Determinism: chunk layout depends only on the row count and grain, and
// every analyzer's merge() folds chunk states in chunk order, so all
// results are bit-identical to the 1-thread reference at any thread count.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "engine/diff.h"
#include "engine/scan.h"
#include "snapshot/series.h"
#include "util/serialize.h"

namespace spider {

/// Read-only view of the fused diff kernel's per-chunk classification.
/// scan_table runs kernels in registration order within a chunk and the
/// diff kernel is registered first, so when any analyzer's observe_chunk
/// sees rows [begin, end), the DiffChunkRows for that same range is
/// already complete and safe to read from the same thread.
class DiffChunkProvider {
 public:
  /// The classification of the chunk whose row range starts at `begin`,
  /// or null when no diff is active this week.
  virtual const DiffChunkRows* chunk_rows(std::size_t begin) const = 0;

 protected:
  ~DiffChunkProvider() = default;
};

/// One week's change set, assembled by the runner on delta weeks
/// (StudyOptions::incremental) from a diff carrying the prev-row mapping
/// and the directory diff. Delta-capable analyzers consume this instead of
/// scanning the snapshot; DESIGN.md §13 spells out the contract.
struct WeekDelta {
  /// The week's full classification, with has_prev_rows and has_dir_diff.
  const DiffResult* diff = nullptr;
  const SnapshotTable* prev = nullptr;
  const SnapshotTable* cur = nullptr;
  /// New file rows ∪ new directory rows of cur, ascending — the only rows
  /// a first-seen tracker must consider: a matched row kept its path, so
  /// its identity was already seen in an earlier week.
  std::vector<std::uint32_t> added_rows;
  /// added_rows ∪ updated file rows ∪ changed directory rows, ascending —
  /// the rows whose non-path attributes may differ from last week.
  /// Readonly and untouched rows are excluded by POSIX semantics: chmod
  /// and chown move ctime, so a row classified readonly or untouched kept
  /// its uid, gid, and mode.
  std::vector<std::uint32_t> touched_rows;
};

struct WeekObservation {
  std::size_t week = 0;  // slot index in the series timeline (may skip)
  const Snapshot* snap = nullptr;
  const Snapshot* prev = nullptr;  // null on the first snapshot
  const DiffResult* diff = nullptr;  // null unless requested & prev exists
  /// Non-null only while the fused diff kernel is active (resident weeks
  /// whose previous week was resident too): analyzers that consume diff
  /// rows inside observe_chunk must read their chunk's slice through this
  /// — in fused mode `diff` is only complete by merge() time. When it is
  /// null, `diff` was joined through the spill layer and is final before
  /// the scan. Merge-time readers use `diff` either way.
  const DiffChunkProvider* diff_chunks = nullptr;
  /// True when one or more slots between `prev` and `snap` are gaps
  /// (missing or corrupt weeks). The runner does not compute a diff
  /// across a gap — it would span several collection intervals and
  /// contaminate the weekly rates — so `diff` is null then even for
  /// analyzers that want it; count-based analyzers use the flag to
  /// annotate the affected week.
  bool gap_before = false;
  /// The study's pool (null = process-global), for order-insensitive
  /// parallel sub-steps inside merge() — see ScanKernel::merge_chunks.
  ThreadPool* pool = nullptr;
  /// Mirror of StudyOptions::incremental. On scan weeks (re-baselines
  /// included) delta-capable analyzers use it to decide whether to also
  /// (re)build the retained cross-week state their apply_delta needs —
  /// pure scan runs skip that upkeep.
  bool incremental = false;
  /// Row/file/dir counts of the week's snapshot. On resident weeks these
  /// mirror snap->table; on streamed weeks — where snap->table is an
  /// empty shell and the rows only ever exist one group at a time — the
  /// runner fills them from the streaming pre-pass, so merge-time sizing
  /// (reserves, hash-set capacity hints) never touches the whole table.
  std::size_t row_count = 0;
  std::size_t file_count = 0;
  std::size_t dir_count = 0;
};

/// A study analyzer is a scan kernel plus per-week bookkeeping. The runner
/// calls, per week:
///
///   state[c] = make_chunk_state()            (one per chunk, serial)
///   observe_chunk(state[c], obs, morsel)     (concurrent, shared scan)
///   merge(obs, states)                       (serial, chunk order)
///
/// observe_chunk runs concurrently with other chunks AND other analyzers:
/// it must write only through its chunk state. Reading analyzer members
/// is allowed when nothing mutates them during the scan — the standard
/// pattern is a first-seen filter that reads a membership set frozen since
/// the previous merge and defers inserts to merge().
///
/// merge() is the ordered, single-threaded step: chunk states arrive in
/// chunk (= row) order at every thread count, so order-dependent logic
/// (first-seen tracking, floating-point accumulation) is deterministic.
/// Week-level analyzers with no per-row work override merge() alone and
/// ignore `states`.
class StudyAnalyzer {
 public:
  virtual ~StudyAnalyzer() = default;

  /// Analyzers returning true receive the adjacent-snapshot DiffResult.
  virtual bool wants_diff() const { return false; }

  /// Columns this analyzer reads. The runner ORs the masks of all
  /// analyzers (plus the diff's columns when any analyzer wants the diff)
  /// and pushes the union into the source, so unused columns are never
  /// decoded. Default: everything.
  virtual ColumnMask columns_needed() const { return kColMaskAll; }

  /// Fresh per-chunk partial state; null (the default) for analyzers with
  /// no per-row work.
  virtual std::unique_ptr<ScanChunkState> make_chunk_state() const {
    return nullptr;
  }

  /// Accumulate the morsel's rows into `state`. The morsel's global row
  /// range [m.begin, m.end) numbers rows of the week's full snapshot;
  /// m.table holds them at local rows m.local(i). On resident weeks
  /// m.table is &obs.snap->table with base 0; on streamed weeks it is a
  /// transient staging table valid only for this call — analyzers must
  /// read rows through the morsel, never through obs.snap->table.
  virtual void observe_chunk(ScanChunkState* state, const WeekObservation& obs,
                             const ScanMorsel& m) {
    (void)state;
    (void)obs;
    (void)m;
  }

  /// Fold the week's chunk states (chunk order) and do per-week
  /// bookkeeping. Called once per scanned week.
  virtual void merge(const WeekObservation& obs, ScanStateList states) {
    (void)obs;
    (void)states;
  }

  /// Analyzers returning true maintain retained cross-week state and can
  /// consume a WeekDelta through apply_delta() instead of scanning the
  /// snapshot. The runner decides per week: on delta weeks the analyzer is
  /// left out of the shared scan entirely; on re-baseline weeks (the first
  /// snapshot, a week after a gap, a salvage-damaged week or its
  /// successor) it runs its normal scan kernel and must rebuild the
  /// retained state from scratch (obs.incremental signals that upkeep is
  /// needed). Results must be byte-identical either way.
  virtual bool supports_delta() const { return false; }

  /// Apply one week's delta against the retained state. Runs serially, in
  /// registration order, after the week's shared scan completed — obs.diff
  /// is final. Called only when supports_delta() is true.
  virtual void apply_delta(const WeekObservation& obs,
                           const WeekDelta& delta) {
    (void)obs;
    (void)delta;
  }

  /// Called once after the last snapshot.
  virtual void finish() {}

  /// --- Checkpoint contract (DESIGN.md §14) ---
  ///
  /// Analyzers that can serialize their accumulated state implement all
  /// four hooks; the runner then includes them in .sckpt checkpoints and
  /// can resume a crashed study without replaying the analyzed weeks.
  /// The defaults record a re-baseline marker instead: a checkpoint
  /// containing any marker is not resumable and the study re-runs in
  /// full, which is always correct — just slower.

  /// Stable identifier written into the checkpoint and matched on resume
  /// (a roster change means the blobs do not line up). Empty = no state.
  virtual std::string_view state_id() const { return {}; }
  /// Bumped whenever save_state's layout changes; a version mismatch
  /// re-baselines instead of misparsing an old blob.
  virtual std::uint32_t state_version() const { return 1; }
  /// Serializes everything accumulated so far (retained delta state AND
  /// cumulative results). Returns false (the default) to record a
  /// re-baseline marker.
  virtual bool save_state(StateWriter& w) const {
    (void)w;
    return false;
  }
  /// Restores a save_state image. Implementations must be atomic: either
  /// every member is overwritten from the blob, or false is returned with
  /// the analyzer untouched (deserialize into locals, then commit).
  virtual bool load_state(StateReader& r) {
    (void)r;
    return false;
  }
};

/// Crash-safety knobs for run_study (active only in incremental mode —
/// the checkpoint is the incremental engine's warm state).
struct CheckpointOptions {
  /// Where to write/read the .sckpt file; empty disables checkpointing.
  std::string path;
  /// Write a checkpoint every N analyzed weeks (1 = every week).
  std::size_t every = 1;
  /// Attempt to resume from an existing checkpoint at `path`. Off forces
  /// a fresh run even when a valid checkpoint exists.
  bool resume = true;
};

/// What the checkpoint layer did during one run_study call.
struct CheckpointReport {
  /// True when the run resumed from a checkpoint instead of starting at
  /// the first week.
  bool resumed = false;
  /// The checkpointed week the resume continued after (valid iff resumed).
  std::size_t resumed_week = 0;
  /// Why a present checkpoint was NOT resumed (validation failure,
  /// corruption, version skew, re-baseline marker...). Empty when resumed
  /// or when no checkpoint existed.
  std::string rebaseline_reason;
  std::size_t checkpoints_written = 0;
  /// Checkpoint writes that failed (the study continues; the previous
  /// checkpoint on disk stays valid thanks to the atomic write).
  std::size_t write_failures = 0;
  /// Timeline damage restored from the checkpoint — gaps in weeks the
  /// resumed run never revisited. Callers rendering data quality union
  /// these with the source's own gaps() (dedup by week).
  std::vector<SeriesGap> restored_gaps;
};

struct StudyOptions {
  /// Pool for the shared scan; null selects the process-global pool.
  ThreadPool* pool = nullptr;
  /// Rows per morsel (see kScanGrainRows). Results are bit-identical
  /// across thread counts for a FIXED grain; changing the grain changes
  /// chunk boundaries and may perturb floating-point last bits.
  std::size_t grain = kScanGrainRows;
  /// Decode week N+1 on the visiting thread while a pipeline thread
  /// analyzes week N. Analysis order and results are unchanged; off is
  /// useful for debugging and single-threaded profiling.
  bool prefetch = true;
  /// Incremental mode (DESIGN.md §13): drive delta-capable analyzers
  /// (supports_delta) off a WeekDelta built from the diff — which then
  /// also carries the prev-row mapping and the directory diff — so their
  /// per-week cost is proportional to churn, not snapshot size. Weeks
  /// without a trustworthy delta (the first snapshot, after a gap, a
  /// salvage-damaged snapshot on either side of the diff) re-baseline with
  /// the full scan. Rendered results are byte-identical either way; off
  /// preserves the pure scan path.
  bool incremental = false;
  /// Durable checkpoint/resume (DESIGN.md §14). Requires `incremental`;
  /// ignored (with the reason recorded in the report) otherwise.
  CheckpointOptions checkpoint;
  /// When non-null, filled with what the checkpoint layer did.
  CheckpointReport* checkpoint_report = nullptr;
  /// Peak bytes the runner may spend holding snapshot rows (DESIGN.md
  /// §15). 0 = unlimited: every week is decoded resident, as before.
  /// With a budget, any week whose estimated resident footprint exceeds
  /// it is processed OUT OF CORE — decoded one .scol row group at a time
  /// with bounded group residency, and diffed through the spill join —
  /// while small weeks stay resident. Rendered results are byte-identical
  /// either way. Weeks a checkpoint must fingerprint are forced resident
  /// (the fingerprint folds whole column spans).
  std::size_t memory_budget = 0;
};

/// Streams `source` through all analyzers. The diff (when any analyzer
/// wants it) is computed once per week and shared.
void run_study(SnapshotSource& source,
               std::span<StudyAnalyzer* const> analyzers,
               const StudyOptions& options = {});

/// Convenience for a single analyzer.
void run_study(SnapshotSource& source, StudyAnalyzer& analyzer,
               const StudyOptions& options = {});

}  // namespace spider
