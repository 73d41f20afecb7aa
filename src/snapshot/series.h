// A snapshot series: the 72-week study collection, either materialized in
// memory (tests, small scales) or streamed one week at a time (the full
// study, where keeping every snapshot resident would defeat the point).
//
// Analyses consume a SnapshotSource; the visitor contract guarantees weeks
// arrive in chronological order, which the diff-based analyses (Fig 13/17)
// rely on to keep only the previous week resident.
//
// Degradation model (see DESIGN.md §9): an operational series is rarely
// perfect — collection skips a maintenance week, a file is torn by a
// crashed copy. Sources expose that damage instead of hiding it: week
// indices are *slots* in the study timeline and may have holes, and every
// hole is described by a SeriesGap (slot, expected date, file, Status).
// The study runner uses the holes to avoid computing diffs across a gap;
// reports list the gaps rather than silently narrowing the study.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "snapshot/scol.h"
#include "snapshot/table.h"
#include "util/retry.h"
#include "util/status.h"

namespace spider {

struct Snapshot {
  std::int64_t taken_at = 0;  // epoch seconds of collection
  SnapshotTable table;
  /// True when the snapshot was decoded under a salvage policy and lost
  /// rows (SalvageReport not clean). The incremental study treats such a
  /// week — and the diff against it — as untrustworthy for delta purposes
  /// and re-baselines with a full scan (DESIGN.md §13).
  bool degraded = false;
};

/// One unusable week slot in a series: a snapshot that was never collected
/// (cadence hole) or one whose file is unreadable/corrupt.
struct SeriesGap {
  std::size_t week = 0;       // the slot the gap occupies
  std::int64_t taken_at = 0;  // (estimated) collection time; 0 if unknown
  std::string file;           // offending file; empty for a missing week
  Status status;              // why the week is unusable

  /// "week 7 (2015-02-16): snap_20150216.scol: corruption: ..." — one line.
  std::string describe() const;
};

/// Callback invoked per snapshot, in chronological order.
/// `week` is a 0-based slot index into the series timeline; series with
/// gaps skip the damaged slots, so consecutive calls may not be
/// consecutive weeks.
using SnapshotVisitor =
    std::function<void(std::size_t week, const Snapshot& snap)>;

/// Ownership-passing variant: the source hands the snapshot over and the
/// visitor may keep it (the study runner retains the previous week this
/// way, instead of deep-copying a multi-million-row table).
using SnapshotMoveVisitor =
    std::function<void(std::size_t week, Snapshot&& snap)>;

/// One week offered for group-at-a-time consumption (DESIGN.md §15): an
/// open reader over the week's .scol image instead of a decoded table.
/// The reader is valid only for the duration of the visit.
struct WeekGroupStream {
  std::size_t week = 0;
  std::int64_t taken_at = 0;
  std::string file;
  const ScolGroupReader* reader = nullptr;
};

/// Consulted once per deliverable week, before any decode work: return
/// true to receive the week through the stream visitor, false to receive
/// a resident Snapshot. `rows_hint` comes from the file header — the only
/// bytes touched so far — so the budget decision costs no decode. The
/// study runner streams the weeks that overflow its memory budget;
/// infer_facility (synth/infer.h) streams every week, because it reads
/// only three columns and builds no table.
using StreamChooser = std::function<bool(
    std::size_t week, std::int64_t taken_at, std::uint64_t rows_hint)>;

/// Consumes one streamed week. Returning a non-ok Status declares the
/// week unusable — the source records it as a SeriesGap exactly as an
/// eager decode failure would, so the visitor must return the same RAW
/// decode Status the eager path would have produced (the source adds the
/// file context itself). Failures that are not the file's fault (scratch
/// space, say) must not be returned: they would blame a readable file.
using SnapshotStreamVisitor = std::function<Status(const WeekGroupStream&)>;

class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;

  /// Number of snapshots this source will visit (gaps excluded).
  virtual std::size_t count() const = 0;

  /// Visits every readable snapshot in order. May be called multiple
  /// times; each call re-traverses (or regenerates) the whole series.
  virtual void visit(const SnapshotVisitor& visitor) = 0;

  /// Like visit(), but transfers ownership of each snapshot to the
  /// visitor. Sources that build a fresh snapshot per week (decode,
  /// simulation) override this to move it out; the default falls back to
  /// a deep copy, so overriding is a pure optimization.
  virtual void visit_move(const SnapshotMoveVisitor& visitor);

  /// The entry point of the study runner and of infer_facility for
  /// sources that hand snapshots over: like visit_move(), but delivers
  /// only the weeks whose slot index is >= `first_slot` (a checkpointed
  /// study resuming mid-series), and the weeks a non-null `chooser`
  /// accepts arrive as open group readers through `stream_visitor`
  /// instead of resident through `move_visitor` (out-of-core weeks in the
  /// study, every week in inference). The default filters visit_move()
  /// and ignores the chooser — only sources that actually hold
  /// group-structured bytes (DirectorySeries over .scol files) can stream,
  /// so callers must not assume streaming happened. gaps() still
  /// describes the whole timeline, including slots before `first_slot`.
  virtual void visit_streaming(std::size_t first_slot,
                               const StreamChooser& chooser,
                               const SnapshotMoveVisitor& move_visitor,
                               const SnapshotStreamVisitor& stream_visitor);

  /// True when the Snapshot references passed to visit() stay valid for
  /// the source's whole lifetime (fully materialized series). Consumers
  /// may then retain pointers across visitor calls instead of copying or
  /// taking ownership.
  virtual bool stable_snapshots() const { return false; }

  /// Projection hint: only the masked columns need to be materialized.
  /// Sources that decode from disk (DirectorySeries) push the mask into
  /// the codec; everything else may ignore it — skipping columns is never
  /// required for correctness.
  virtual void set_columns(ColumnMask columns) { (void)columns; }

  /// Decode threads: sources that decode from disk (DirectorySeries)
  /// spread each week's row groups over `pool` (null = the process-global
  /// pool); everything else may ignore it. run_study hands over its own
  /// pool for the length of the run, resident or out of core, so weeks
  /// decode on the study's threads.
  virtual void set_pool(ThreadPool* pool) { (void)pool; }

  /// The known holes in the timeline, ascending by slot. Sources that
  /// discover damage lazily (DirectorySeries) report gaps found during the
  /// most recent visit() in addition to those found at open().
  virtual std::span<const SeriesGap> gaps() const { return {}; }
};

/// Fully in-memory series.
class SnapshotSeries : public SnapshotSource {
 public:
  void add(Snapshot snap) {
    slots_.push_back(next_slot_++);
    snaps_.push_back(std::move(snap));
  }

  /// Marks the next slot as a gap instead of a snapshot — the in-memory
  /// way to model a missing or corrupt week (tests, simulations).
  void add_gap(std::int64_t taken_at, Status status, std::string file = "") {
    gaps_.push_back(
        SeriesGap{next_slot_++, taken_at, std::move(file), std::move(status)});
  }

  std::size_t count() const override { return snaps_.size(); }
  void visit(const SnapshotVisitor& visitor) override {
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      visitor(slots_[i], snaps_[i]);
    }
  }
  /// The series keeps its snapshots (at() and re-visits depend on them),
  /// so consumers hold stable pointers instead of taking ownership.
  bool stable_snapshots() const override { return true; }
  std::span<const SeriesGap> gaps() const override { return gaps_; }

  const Snapshot& at(std::size_t i) const { return snaps_[i]; }
  Snapshot& at(std::size_t i) { return snaps_[i]; }

 private:
  std::vector<Snapshot> snaps_;
  std::vector<std::size_t> slots_;  // parallel to snaps_
  std::vector<SeriesGap> gaps_;
  std::size_t next_slot_ = 0;
};

/// Streams snapshots from `snap_<YYYYMMDD>.scol` files in a directory, in
/// ascending date order. Construction scans the directory; visit() decodes
/// one file at a time.
///
/// Degradation: open() detects missing weeks from the collection cadence
/// (an interval much longer than the median) and reserves gap slots for
/// them; entries that match the snapshot name pattern but cannot be
/// statted become gaps rather than being silently dropped. visit() turns
/// every unreadable/corrupt file into a gap (with the decode Status) and
/// keeps going — callers consult gaps() afterwards.
class DirectorySeries : public SnapshotSource {
 public:
  /// Lists matching files; fails when the directory cannot be read or
  /// contains no snapshots.
  Status open(const std::string& directory);

  /// Decode options for visit(), e.g. a salvage policy so that a week
  /// with localized damage is visited with its surviving rows instead of
  /// becoming a gap. Default: strict decode.
  void set_scol_options(const ScolOptions& options) { scol_options_ = options; }

  /// Retry policy for the byte-reading half of each decode (transient
  /// shared-storage faults; util/retry.h). Only kIoError reads retry —
  /// corruption and truncation are properties of the bytes, and a missing
  /// file is a real state, so those become gaps on the first attempt.
  /// Default: single attempt, no retries.
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  /// Retry accounting accumulated across traversals.
  const RetryStats& retry_stats() const { return retry_stats_; }

  /// Test seam: replaces the byte-reading step of each decode (default:
  /// util/io read_file), so tests can script transient failures and
  /// verify the retry behavior without real storage faults.
  using ReadFileFn =
      std::function<Status(const std::string& file,
                           std::vector<std::uint8_t>* bytes)>;
  void set_read_fn(ReadFileFn fn) { read_fn_ = std::move(fn); }

  std::size_t count() const override { return files_.size(); }
  void visit(const SnapshotVisitor& visitor) override;
  void visit_move(const SnapshotMoveVisitor& visitor) override;
  /// Skips both the decode and the read for slots before `first_slot` —
  /// resuming a checkpointed study pays I/O only for the remaining weeks.
  /// Streams chooser-accepted weeks as mapped ScolGroupReaders. Weeks
  /// whose image cannot even be opened for streaming (header/directory
  /// damage, v1 quirks) fall back to the eager path so their gap
  /// accounting — status text, retry behavior, read_fn_ seam — is
  /// byte-identical to an eager traversal; for the same reason a
  /// configured read_fn_ (test seam) disables streaming entirely.
  void visit_streaming(std::size_t first_slot, const StreamChooser& chooser,
                       const SnapshotMoveVisitor& move_visitor,
                       const SnapshotStreamVisitor& stream_visitor) override;
  /// Pushes the projection into the .scol decoder: unrequested column
  /// blocks are checksum-verified but not materialized.
  void set_columns(ColumnMask columns) override {
    scol_options_.columns = columns;
  }
  void set_pool(ThreadPool* pool) override { pool_ = pool; }
  std::span<const SeriesGap> gaps() const override { return gaps_; }

  const std::vector<std::string>& files() const { return files_; }

 private:
  std::vector<std::string> files_;      // absolute paths, sorted by date
  std::vector<std::int64_t> taken_at_;  // parallel to files_
  std::vector<std::size_t> slots_;      // parallel to files_; has holes
  std::vector<SeriesGap> gaps_;
  std::vector<SeriesGap> open_gaps_;  // gaps found by open(); visit()
                                      // restarts from them each traversal
  ScolOptions scol_options_;
  ThreadPool* pool_ = nullptr;  // decode threads; null = process-global
  RetryPolicy retry_policy_;
  RetryStats retry_stats_;
  ReadFileFn read_fn_;
};

/// Adapter delivering every `stride`-th snapshot of a base source with
/// re-densified week indices — the sampling-frequency ablation (the paper
/// sampled one snapshot per week out of a daily collection; this asks how
/// the findings shift at coarser cadences). Gaps are not forwarded: the
/// resampled timeline is treated as complete.
class StridedSource : public SnapshotSource {
 public:
  StridedSource(SnapshotSource& base, std::size_t stride)
      : base_(base), stride_(stride == 0 ? 1 : stride) {}

  std::size_t count() const override {
    return (base_.count() + stride_ - 1) / stride_;
  }
  void visit(const SnapshotVisitor& visitor) override {
    std::size_t emitted = 0;
    base_.visit([&](std::size_t week, const Snapshot& snap) {
      if (week % stride_ == 0) visitor(emitted++, snap);
    });
  }
  void visit_move(const SnapshotMoveVisitor& visitor) override {
    std::size_t emitted = 0;
    base_.visit_move([&](std::size_t week, Snapshot&& snap) {
      if (week % stride_ == 0) visitor(emitted++, std::move(snap));
    });
  }
  bool stable_snapshots() const override { return base_.stable_snapshots(); }
  void set_columns(ColumnMask columns) override { base_.set_columns(columns); }
  void set_pool(ThreadPool* pool) override { base_.set_pool(pool); }

 private:
  SnapshotSource& base_;
  std::size_t stride_;
};

/// Writes every snapshot of a source into `directory` as .scol files named
/// snap_<YYYYMMDD>.scol. Creates the directory if needed. Each file is
/// written via temp file + atomic rename (util/io.h); a failed write does
/// not stop the others, and the first failure is returned.
Status save_series(SnapshotSource& source, const std::string& directory);

}  // namespace spider
