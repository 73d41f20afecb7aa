#include "study/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/hash_index.h"
#include "engine/spill.h"
#include "engine/stream.h"
#include "study/checkpoint.h"

namespace spider {

namespace {

namespace fs = std::filesystem;

/// Columns the adjacent-snapshot diff reads: the path join plus the three
/// timestamps and mode (file/dir split, file counts).
constexpr ColumnMask kDiffColumns = kColMaskPaths | kColMaskAtime |
                                    kColMaskCtime | kColMaskMtime |
                                    kColMaskMode;

/// Rough resident bytes per decoded snapshot row (fixed columns, path and
/// OST-list bytes, per-week index overhead), used to predict a week's
/// footprint from the .scol header alone — before anything is decoded —
/// when deciding resident vs out-of-core under StudyOptions::memory_budget.
constexpr std::size_t kResidentBytesPerRow = 160;

/// Rough spilled bytes per row (41-byte record header + average path),
/// sizing the spill fan-out so a loaded partition pair stays well inside
/// the budget's slice.
constexpr std::size_t kSpillBytesPerRow = 96;

/// Bridges a StudyAnalyzer onto the engine's ScanKernel interface for the
/// week currently being analyzed.
class AnalyzerKernel : public ScanKernel {
 public:
  explicit AnalyzerKernel(StudyAnalyzer* analyzer) : analyzer_(analyzer) {}

  void set_observation(const WeekObservation* obs) { obs_ = obs; }

  std::unique_ptr<ScanChunkState> make_chunk_state() const override {
    return analyzer_->make_chunk_state();
  }
  void observe_chunk(ScanChunkState* state, const ScanMorsel& m) override {
    analyzer_->observe_chunk(state, *obs_, m);
  }
  void merge_chunks(ScanStateList states, ThreadPool*) override {
    // Analyzers take the pool through obs_->pool instead — it is the same
    // pool, and the WeekObservation carries it to apply_delta() too.
    analyzer_->merge(*obs_, states);
  }

 private:
  StudyAnalyzer* analyzer_;
  const WeekObservation* obs_ = nullptr;
};

/// How a week's diff against its predecessor is computed.
enum class DiffMode {
  kNone,     // first week, a gap before it, or no analyzer wants a diff
  kFused,    // both weeks resident: a kernel inside the shared scan
  kSpilled,  // either week streamed: spill_diff_join before the scan
};

/// Everything the runner decides about a week, decided before any of the
/// week's stages runs (DESIGN.md §10).
struct WeekPlan {
  /// The week arrived as an open group reader (the residency chooser
  /// predicted it would overflow its slice of StudyOptions::memory_budget).
  bool streamed = false;
  DiffMode diff = DiffMode::kNone;
  /// Delta-capable analyzers take a WeekDelta instead of scanning. Needs
  /// incremental mode, a fused diff (only the fused kernel records the
  /// prev-row mapping and the directory diff a delta is built from), and
  /// neither side salvage-degraded: a damaged snapshot forces a full-scan
  /// re-baseline that rebuilds the retained state.
  bool delta = false;
};

/// One week in flight between the visiting thread and analysis and, once
/// analyzed, the retained previous week. A resident week owns its snapshot
/// (moved out of the source) or points into a fully materialized source
/// (stable_snapshots()), so retaining it is a move, never a deep copy. A
/// streamed week owns a shell snapshot (collection time and degraded flag,
/// no rows). The indexes store no table pointer, so moving this struct,
/// which relocates `owned`, is safe.
struct PendingWeek {
  std::size_t week = 0;
  Snapshot owned;
  const Snapshot* view = nullptr;
  std::unique_ptr<PartitionedPathIndex> index;
  /// Incremental mode only: the week's directory rows, indexed for the
  /// diff's directory side.
  std::unique_ptr<DetachedPathIndex> dir_index;
  /// Checkpointing only: the source's gap timeline up to (not including)
  /// this week, captured on the visiting thread — the source mutates its
  /// gap list during traversal, so the analyst thread must not read it.
  std::vector<SeriesGap> gaps_so_far;
  /// The week's counts: its table's when resident, pass A's when streamed.
  std::size_t rows = 0;
  std::size_t files = 0;
  std::size_t dirs = 0;

  bool streamed = false;
  /// Streamed weeks, while their visit lasts: the open reader and the
  /// groups pass A found damaged (skipped by the scan).
  const ScolGroupReader* reader = nullptr;
  std::vector<std::uint8_t> skip;
  /// Streamed weeks: pass A's spill of the diff columns, absent when no
  /// diff is wanted or the scratch space failed. Kept while the week is
  /// `prev`, for the next week's join.
  std::optional<SpilledSide> spill;

  const Snapshot& snap() const { return view ? *view : owned; }
};

/// Ascending union of disjoint, already-ascending row lists.
std::vector<std::uint32_t> merged_union(
    std::initializer_list<std::span<const std::uint32_t>> lists) {
  std::size_t total = 0;
  for (const auto& list : lists) total += list.size();
  std::vector<std::uint32_t> out;
  out.reserve(total);
  for (const auto& list : lists) {
    out.insert(out.end(), list.begin(), list.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Best-effort removal of a spilled side's partition files.
void remove_files(const SpilledSide& side) {
  for (const std::string& file : side.files) {
    std::error_code ec;
    fs::remove(file, ec);
  }
}

/// Structural validation of a loaded checkpoint against THIS run's
/// configuration: same hash function, same projection, same grain, and an
/// analyzer roster that lines up id-for-id with resumable state for every
/// entry. Content validation (does the checkpointed week still match the
/// source?) happens later, against the re-decoded snapshot.
Status validate_checkpoint(const StudyCheckpoint& ckpt,
                           std::span<StudyAnalyzer* const> analyzers,
                           ColumnMask columns, std::size_t grain) {
  if (ckpt.hash_probe != checkpoint_hash_probe()) {
    return Status::failed_precondition(
        "hash-function drift: the checkpoint's probe fingerprint does not "
        "match this build");
  }
  if (ckpt.columns_mask != columns) {
    return Status::failed_precondition(
        "column projection changed: checkpoint mask " +
        std::to_string(ckpt.columns_mask) + ", this run " +
        std::to_string(columns));
  }
  if (ckpt.grain != grain) {
    return Status::failed_precondition(
        "scan grain changed: checkpoint " + std::to_string(ckpt.grain) +
        ", this run " + std::to_string(grain));
  }
  if (ckpt.analyzers.size() != analyzers.size()) {
    return Status::failed_precondition(
        "analyzer roster changed: checkpoint has " +
        std::to_string(ckpt.analyzers.size()) + " analyzers, this run " +
        std::to_string(analyzers.size()));
  }
  for (std::size_t i = 0; i < analyzers.size(); ++i) {
    const AnalyzerCheckpoint& a = ckpt.analyzers[i];
    if (a.id != analyzers[i]->state_id()) {
      return Status::failed_precondition(
          "analyzer roster changed at position " + std::to_string(i) +
          ": checkpoint '" + a.id + "', this run '" +
          std::string(analyzers[i]->state_id()) + "'");
    }
    if (!a.has_state) {
      return Status::failed_precondition(
          "analyzer '" + a.id +
          "' recorded a re-baseline marker (no serializable state)");
    }
    if (a.version != analyzers[i]->state_version()) {
      return Status::failed_precondition(
          "analyzer '" + a.id + "' state version skew: checkpoint v" +
          std::to_string(a.version) + ", this build v" +
          std::to_string(analyzers[i]->state_version()));
    }
  }
  return Status();
}

/// The diff as a scan kernel (DESIGN.md §11), in the roster of fused
/// weeks only. It is registered FIRST, so within every chunk its probe
/// runs before any analyzer observes the same rows, and sibling kernels
/// may read the chunk's classification through the DiffChunkProvider
/// interface. merge_chunks assembles the week's DiffResult (serial,
/// chunk-ordered) before any analyzer's merge runs — merge-time consumers
/// of obs.diff see the complete result.
class DiffScanKernel : public ScanKernel, public DiffChunkProvider {
 public:
  /// Arms the kernel for one week. Must be called before every scan that
  /// includes it — it also resets the chunk registry. On delta weeks
  /// `record_prev` turns on the prev-row mapping and `dir_index` the
  /// directory diff.
  void set_week(const PartitionedPathIndex& index, const SnapshotTable& prev,
                DiffResult* out, std::size_t grain, std::size_t cur_files,
                bool record_prev, const DetachedPathIndex* dir_index) {
    index_ = &index;
    prev_ = &prev;
    out_ = out;
    cur_files_ = cur_files;
    grain_ = grain == 0 ? kScanGrainRows : grain;
    record_prev_ = record_prev;
    dir_index_ = dir_index;
    chunk_rows_.clear();
    matched_ = match_flags(index_->size());
    dir_matched_ = match_flags(dir_index_ != nullptr ? dir_index_->size() : 0);
  }

  std::unique_ptr<ScanChunkState> make_chunk_state() const override {
    auto state = std::make_unique<DiffKernelChunk>();
    state->rows.record_prev = record_prev_;
    // make_chunk_state runs serially in chunk order before the scan, so
    // the registry index equals the chunk index.
    chunk_rows_.push_back(&state->rows);
    return state;
  }

  void observe_chunk(ScanChunkState* state, const ScanMorsel& m) override {
    // Fused weeks are resident, so the morsel's base is 0 and global rows
    // are table rows.
    const DiffDirProbe dirs{dir_index_, dir_matched_.get()};
    diff_probe_range(*index_, *prev_, *m.table, m.begin, m.end,
                     matched_.get(),
                     &static_cast<DiffKernelChunk*>(state)->rows,
                     dir_index_ != nullptr ? &dirs : nullptr);
  }

  void merge_chunks(ScanStateList, ThreadPool* pool) override {
    DiffFinalizeExtras extras;
    extras.prev_rows = record_prev_;
    extras.dirs = dir_index_ != nullptr;
    if (dir_index_ != nullptr) {
      extras.prev_dir_rows = dir_index_->rows();
      extras.dir_matched = dir_matched_.get();
    }
    diff_finalize(index_->file_rows(), matched_.get(),
                  std::span<const DiffChunkRows* const>(chunk_rows_), pool,
                  out_, &extras);
    out_->prev_files = index_->size();
    out_->cur_files = cur_files_;
  }

  const DiffChunkRows* chunk_rows(std::size_t begin) const override {
    const std::size_t chunk = begin / grain_;
    return chunk < chunk_rows_.size() ? chunk_rows_[chunk] : nullptr;
  }

 private:
  struct DiffKernelChunk : ScanChunkState {
    DiffChunkRows rows;
  };
  using MatchFlags = std::unique_ptr<std::atomic<std::uint8_t>[]>;

  /// Zeroed per-row match flags for an index side; null when it is empty.
  static MatchFlags match_flags(std::size_t rows) {
    // Value-initialization zeroes the atomics (C++20).
    return rows == 0 ? nullptr
                     : MatchFlags(new std::atomic<std::uint8_t>[rows]());
  }

  const PartitionedPathIndex* index_ = nullptr;
  const SnapshotTable* prev_ = nullptr;
  DiffResult* out_ = nullptr;
  std::size_t grain_ = kScanGrainRows;
  std::size_t cur_files_ = 0;
  bool record_prev_ = false;
  const DetachedPathIndex* dir_index_ = nullptr;
  mutable std::vector<const DiffChunkRows*> chunk_rows_;
  MatchFlags matched_;
  MatchFlags dir_matched_;
};

/// One run_study call: the configuration fixed up front, and the analysis
/// state one week hands to the next. Every week, resident or streamed,
/// goes through run_week() — one at a time, in arrival order, on a single
/// thread (the caller's, or the prefetch pipeline's).
class StudyRun {
 public:
  StudyRun(SnapshotSource& source, std::span<StudyAnalyzer* const> analyzers,
           const StudyOptions& options)
      : source_(source),
        analyzers_(analyzers),
        options_(options),
        report_(options.checkpoint_report != nullptr
                    ? options.checkpoint_report
                    : &scratch_report_) {
    bool any_delta = false;
    for (StudyAnalyzer* analyzer : analyzers_) {
      need_diff_ = need_diff_ || analyzer->wants_diff();
      any_delta = any_delta || analyzer->supports_delta();
      columns_ |= analyzer->columns_needed();
    }
    // Incremental mode is diff-driven: the WeekDelta is built from the
    // classification even for analyzers that never asked for the diff.
    incremental_ = options_.incremental && any_delta;
    if (incremental_) need_diff_ = true;
    if (need_diff_) columns_ |= kDiffColumns;
    source_.set_columns(columns_);

    kernels_.reserve(analyzers_.size());
    for (StudyAnalyzer* analyzer : analyzers_) kernels_.emplace_back(analyzer);
    scan_options_.grain = options_.grain;
    scan_options_.pool = options_.pool;

    // --- Checkpoint setup (DESIGN.md §14) ---
    *report_ = CheckpointReport{};
    const bool ckpt_wanted = !options_.checkpoint.path.empty();
    // The checkpoint serializes the incremental engine's retained state; a
    // pure scan run has nothing worth saving, so checkpointing rides on
    // incremental mode only.
    ckpt_enabled_ = ckpt_wanted && incremental_;
    if (ckpt_wanted && !incremental_) {
      report_->rebaseline_reason =
          "checkpointing requires incremental mode; running without";
    }
    ckpt_every_ = std::max<std::size_t>(1, options_.checkpoint.every);

    // --- Out-of-core mode (DESIGN.md §15) ---
    // A fully materialized source has nothing to stream, and a
    // checkpointed run fingerprints whole tables, so both force every
    // week resident.
    stable_ = source_.stable_snapshots();
    out_of_core_ = options_.memory_budget > 0 && !ckpt_enabled_ && !stable_;
    if (out_of_core_ && need_diff_) {
      // Scratch directory for the spill join's partition files, private to
      // this run. If no scratch space exists the budget cannot be honored;
      // falling back to resident keeps the results correct.
      static std::atomic<std::uint64_t> run_counter{0};
      std::error_code ec;
      const fs::path base = fs::temp_directory_path(ec);
      if (!ec) {
        const fs::path dir =
            base / ("spider-spill-" +
                    std::to_string(static_cast<unsigned long>(::getpid())) +
                    "-" + std::to_string(run_counter.fetch_add(1)));
        fs::create_directories(dir, ec);
        if (!ec) spill_dir_ = dir.string();
      }
      if (spill_dir_.empty()) out_of_core_ = false;
    }

    if (ckpt_enabled_ && options_.checkpoint.resume) {
      Status s = load_checkpoint(options_.checkpoint.path, &restored_);
      if (s.ok()) {
        s = validate_checkpoint(restored_, analyzers_, columns_,
                                options_.grain);
      }
      if (s.ok()) {
        resume_pending_ = true;
      } else if (s.code() != StatusCode::kNotFound) {
        // A missing checkpoint is an ordinary fresh run; anything else —
        // corruption, truncation, version skew, roster drift — is a
        // re-baseline worth reporting.
        report_->rebaseline_reason = s.to_string();
      }
    }
    // Where the weeks decode. A resident run spreads each row group over
    // the study's pool, beside the analysis of the week before. An
    // out-of-core run takes each week's steps one after another on the
    // visiting thread, so there a pooled decode would wait on the critical
    // path for the slowest of the pool's threads, and the run's throughput
    // would swing with how many cores other work leaves free (on a shared
    // 4-vCPU host, perfbench's budget_stream read 0.62-0.83 M rows/s over
    // five runs). Its groups decode on one thread instead, through a pool
    // of one: parallel_for runs inline on it, and its worker takes the
    // streamed scan's decode-ahead. Set last, so the destructor, which
    // takes the pool back, runs whenever it is set.
    if (out_of_core_) one_thread_.emplace(1u);
    decode_pool_ = out_of_core_ ? &*one_thread_ : options_.pool;
    source_.set_pool(decode_pool_);
  }
  /// The source keeps no pointer to a pool that may not outlive the run.
  ~StudyRun() { source_.set_pool(nullptr); }
  StudyRun(const StudyRun&) = delete;
  StudyRun& operator=(const StudyRun&) = delete;

  void run() {
    run_pass(resume_pending_ ? static_cast<std::size_t>(restored_.week) : 0);
    if (resume_pending_ || resume_failed_) {
      // The resume never materialized: either validation failed at the
      // first arriving week, or no week at or past the checkpointed slot
      // arrived at all (the file vanished or decayed into a gap). Analyzer
      // state is untouched in both cases, so the full run is correct.
      if (resume_pending_ && report_->rebaseline_reason.empty()) {
        report_->rebaseline_reason =
            "checkpointed week " + std::to_string(restored_.week) +
            " never arrived from the source";
      }
      resume_pending_ = false;
      resume_failed_ = false;
      prev_.reset();
      weeks_since_ckpt_ = 0;
      run_pass(0);
    }
    for (StudyAnalyzer* analyzer : analyzers_) analyzer->finish();
    if (!spill_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(spill_dir_, ec);
    }
  }

 private:
  /// One traversal from `first_slot`. Stable sources are visited in place;
  /// every other source hands its weeks over through visit_streaming, with
  /// a residency chooser only when the run is out of core. With prefetch,
  /// a pipeline thread analyzes week N while the visit decodes week N+1 —
  /// one week in flight (the visit waits until the pipeline takes each
  /// week), analysis in arrival order on one thread, so results are
  /// identical either way. Out-of-core runs stay synchronous:
  /// a streamed week must run while its visit keeps the reader open, and a
  /// prefetched resident week would put a third week inside the budget.
  void run_pass(std::size_t first_slot) {
    const bool pipelined = options_.prefetch && !out_of_core_;
    std::mutex mu;
    std::condition_variable slot_free, slot_filled;
    std::optional<PendingWeek> slot;
    bool done = false;
    std::thread analyst;
    if (pipelined) {
      analyst = std::thread([&] {
        for (;;) {
          std::unique_lock<std::mutex> lock(mu);
          slot_filled.wait(lock, [&] { return slot.has_value() || done; });
          if (!slot.has_value()) return;
          PendingWeek cur = std::move(*slot);
          slot.reset();
          slot_free.notify_one();
          lock.unlock();
          (void)run_week(std::move(cur));  // resident weeks cannot fail
        }
      });
    }
    auto deliver = [&](PendingWeek&& week) {
      if (!pipelined) {
        (void)run_week(std::move(week));  // resident weeks cannot fail
        return;
      }
      std::unique_lock<std::mutex> lock(mu);
      slot = std::move(week);
      slot_filled.notify_one();
      // Return only once the pipeline thread has taken the week: the visit
      // then decodes week N+1 while week N is analyzed, and never a second
      // week ahead into memory while the first waits in the slot.
      slot_free.wait(lock, [&] { return !slot.has_value(); });
    };

    if (stable_) {
      source_.visit([&](std::size_t week, const Snapshot& snap) {
        if (week >= first_slot) deliver(arrive(week, &snap, Snapshot{}));
      });
    } else {
      // Streams any week whose predicted footprint overflows its slice of
      // the budget (half for the current week, half for the retained
      // previous one).
      const StreamChooser chooser = [this](std::size_t, std::int64_t,
                                           std::uint64_t rows_hint) {
        return rows_hint > options_.memory_budget / 2 / kResidentBytesPerRow;
      };
      source_.visit_streaming(
          first_slot, out_of_core_ ? chooser : StreamChooser(),
          [&](std::size_t week, Snapshot&& snap) {
            deliver(arrive(week, nullptr, std::move(snap)));
          },
          [this](const WeekGroupStream& stream) {
            PendingWeek cur;
            const Status s = decode_streamed(stream, &cur);
            return s.ok() ? run_week(std::move(cur)) : s;
          });
    }

    if (pipelined) {
      {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        slot_filled.notify_one();
      }
      analyst.join();
    }
  }

  /// Readies a resident week on the visiting thread. Its index (the NEXT
  /// diff's build side) is built here, so with prefetch on the build
  /// overlaps the current week's analysis. Checkpointing runs also copy the
  /// source's gap list up to this week, which only this thread may read.
  PendingWeek arrive(std::size_t week, const Snapshot* view,
                     Snapshot owned) const {
    PendingWeek pending;
    pending.week = week;
    pending.view = view;
    pending.owned = std::move(owned);
    const SnapshotTable& table = pending.snap().table;
    pending.rows = table.size();
    pending.files = table.file_count();
    pending.dirs = table.dir_count();
    if (need_diff_) {
      pending.index =
          std::make_unique<PartitionedPathIndex>(table, options_.pool);
      if (incremental_) {
        pending.dir_index =
            std::make_unique<DetachedPathIndex>(table, dir_rows_of(table));
      }
    }
    if (ckpt_enabled_) {
      for (const SeriesGap& gap : source_.gaps()) {
        if (gap.week < week) pending.gaps_so_far.push_back(gap);
      }
    }
    return pending;
  }

  /// Pass A of a streamed week, serial in group order: decodes each group,
  /// folding its verdict into the week's salvage report as decode_scol does
  /// (scol.h documents the contract), spills the diff columns and counts
  /// rows, files and dirs. Only a decode verdict (strict policy) fails it,
  /// and the source records that raw status as a decoded week's gap. A
  /// spill that cannot be written costs the week its diff, not its rows:
  /// no spill side.
  Status decode_streamed(const WeekGroupStream& stream, PendingWeek* cur) {
    const ScolGroupReader& reader = *stream.reader;
    SalvageReport salvage = reader.make_report();
    cur->week = stream.week;
    cur->streamed = true;
    cur->reader = &reader;
    cur->skip.assign(reader.group_count(), 0);

    SpillPartitionWriter writer;
    SpillPartitionWriter::Options wopts;
    bool spilling = false;
    if (need_diff_) {
      // Both sides of a join share one fan-out: a retained spill fixes it.
      wopts = spill_options(prev_ && prev_->spill
                                ? prev_->spill->bits
                                : spill_bits_for(reader.rows(),
                                                 kSpillBytesPerRow,
                                                 options_.memory_budget / 4));
      spilling = writer.open(wopts).ok();
    }
    SnapshotTable staging;
    for (std::size_t g = 0; g < reader.group_count(); ++g) {
      staging.clear();
      Status s = reader.decode_group(g, &staging, decode_pool_);
      if (!s.ok()) {
        s = reader.dispose_failure(g, std::move(s), &salvage);
        if (!s.ok()) return s;
        cur->skip[g] = 1;
        continue;
      }
      reader.note_success(g, &salvage);
      // Global row numbers continue across surviving groups only — the
      // row numbering the eager salvage splice produces.
      spilling = spilling && writer.add_table(staging, cur->rows).ok();
      cur->rows += staging.size();
      cur->files += staging.file_count();
      cur->dirs += staging.dir_count();
    }
    cur->owned.taken_at = stream.taken_at;
    cur->owned.degraded = !salvage.clean();

    if (spilling && writer.finish().ok()) {
      cur->spill = writer.side();
      // Re-derives every partition from the mapped image; the spill is
      // deterministic, so the rewrite is byte-identical. Usable only
      // while the reader is open: retain() drops it.
      cur->spill->regenerate = [&reader, skip = cur->skip, wopts,
                                pool = decode_pool_](std::size_t) -> Status {
        SpillPartitionWriter w;
        Status rs = w.open(wopts);
        std::size_t base = 0;
        SnapshotTable t;
        for (std::size_t g = 0; rs.ok() && g < reader.group_count(); ++g) {
          if (skip[g]) continue;
          t.clear();
          rs = reader.decode_group(g, &t, pool);
          if (rs.ok()) rs = w.add_table(t, base);
          base += t.size();
        }
        if (rs.ok()) rs = w.finish();
        return rs;
      };
    }
    return Status();
  }

  /// The one week path: plan, observation, diff, scan, deltas, retain,
  /// checkpoint. A returned status is a streamed week's pass-B decode
  /// failure, which the source records as a gap.
  Status run_week(PendingWeek&& cur) {
    if (resume_failed_) return Status();  // draining an abandoned resume
    if (resume_pending_) {
      // The checkpointed week becomes `prev` without being analyzed: it
      // already was, before the crash.
      resume_pending_ = false;
      if (try_resume(cur)) {
        retain(std::move(cur));
      } else {
        resume_failed_ = true;
      }
      return Status();
    }
    const WeekPlan plan = plan_week(cur);
    WeekObservation obs = observe(cur, plan);
    DiffResult diff;
    attach_diff(cur, plan, &diff, &obs);
    const Status s = scan(cur, plan, obs);
    if (!s.ok()) {
      // A group that validated in pass A failed in pass B — mapping-level
      // I/O decay. No analyzer merged (scan_stream aborts before merges),
      // so gapping the week keeps the study consistent.
      if (cur.spill) remove_files(*cur.spill);
      return s;
    }
    if (plan.delta) apply_deltas(cur, obs, diff);
    retain(std::move(cur));
    checkpoint();
    return Status();
  }

  WeekPlan plan_week(const PendingWeek& cur) const {
    WeekPlan plan;
    plan.streamed = cur.streamed;
    // No diff across a gap: it would span several collection intervals.
    if (need_diff_ && prev_ && cur.week == prev_->week + 1) {
      plan.diff = cur.streamed || prev_->streamed ? DiffMode::kSpilled
                                                  : DiffMode::kFused;
    }
    plan.delta = incremental_ && plan.diff == DiffMode::kFused &&
                 !cur.snap().degraded && !prev_->snap().degraded;
    return plan;
  }

  WeekObservation observe(const PendingWeek& cur, const WeekPlan& plan) const {
    WeekObservation obs;
    obs.week = cur.week;
    obs.snap = &cur.snap();
    obs.prev = prev_ ? &prev_->snap() : nullptr;
    obs.gap_before = prev_ && cur.week != prev_->week + 1;
    obs.pool = options_.pool;
    // A shell table cannot rebuild retained delta state, so a streamed
    // week skips the upkeep and the next resident week re-baselines.
    obs.incremental = incremental_ && !plan.streamed;
    obs.row_count = cur.rows;
    obs.file_count = cur.files;
    obs.dir_count = cur.dirs;
    return obs;
  }

  /// A fused diff arms the scan's diff kernel. A spilled diff is joined
  /// before the scan from two sides: each week's own spill, or its
  /// resident table spilled here and removed after the join. A missing
  /// side (scratch space lost or full) or a failed join leaves the week
  /// without a diff and with gap_before set, as a gap in the series would.
  void attach_diff(const PendingWeek& cur, const WeekPlan& plan,
                   DiffResult* out, WeekObservation* obs) {
    if (plan.diff == DiffMode::kFused) {
      diff_kernel_.set_week(*prev_->index, prev_->snap().table, out,
                            options_.grain, cur.files, plan.delta,
                            plan.delta ? prev_->dir_index.get() : nullptr);
      obs->diff = out;
      obs->diff_chunks = &diff_kernel_;
      return;
    }
    if (plan.diff == DiffMode::kNone) return;
    if ((prev_->streamed && !prev_->spill) || (cur.streamed && !cur.spill)) {
      obs->gap_before = true;
      return;
    }
    const std::uint32_t bits =
        prev_->streamed ? prev_->spill->bits : cur.spill->bits;
    SpilledSide prev_side, cur_side;
    Status s;
    if (prev_->streamed) {
      prev_side = *prev_->spill;
    } else {
      s = spill_resident(prev_->snap().table, bits, &prev_side);
    }
    if (cur.streamed) {
      cur_side = *cur.spill;
    } else if (s.ok()) {
      s = spill_resident(cur.snap().table, bits, &cur_side);
    }
    if (s.ok()) s = spill_diff_join(prev_side, cur_side, DiffOptions{}, out);
    if (!prev_->streamed) remove_files(prev_side);
    if (!cur.streamed) remove_files(cur_side);
    if (s.ok()) {
      obs->diff = out;
    } else {
      obs->gap_before = true;
    }
  }

  /// The shared scan over the plan's roster: the diff kernel first on
  /// fused weeks (siblings read its per-chunk output — DiffChunkProvider),
  /// then every analyzer except, on delta weeks, the delta-capable ones.
  /// Streamed weeks run pass B through ScolMorselSource, skipping the
  /// groups pass A found damaged.
  Status scan(const PendingWeek& cur, const WeekPlan& plan,
              const WeekObservation& obs) {
    std::vector<ScanKernel*> roster;
    roster.reserve(kernels_.size() + 1);
    if (plan.diff == DiffMode::kFused) roster.push_back(&diff_kernel_);
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      kernels_[i].set_observation(&obs);
      if (!plan.delta || !analyzers_[i]->supports_delta()) {
        roster.push_back(&kernels_[i]);
      }
    }
    if (!plan.streamed) {
      scan_table(cur.snap().table, roster, scan_options_);
      return Status();
    }
    ScolMorselSource::Options mopts;
    mopts.pool = decode_pool_;
    mopts.prefetch = options_.prefetch;
    mopts.skip = cur.skip;
    ScolMorselSource groups(cur.reader, std::move(mopts));
    return scan_stream(groups, roster, scan_options_);
  }

  void apply_deltas(const PendingWeek& cur, const WeekObservation& obs,
                    const DiffResult& diff) {
    WeekDelta delta;
    delta.diff = &diff;
    delta.prev = &prev_->snap().table;
    delta.cur = &cur.snap().table;
    delta.added_rows = merged_union({diff.new_rows, diff.new_dir_rows});
    delta.touched_rows = merged_union(
        {delta.added_rows, diff.updated_rows, diff.changed_dir_rows});
    for (StudyAnalyzer* analyzer : analyzers_) {
      if (analyzer->supports_delta()) analyzer->apply_delta(obs, delta);
    }
  }

  /// The week becomes `prev`, and the spill of the week it replaces is
  /// removed. A streamed week keeps its spill for the next join but not
  /// the hook that regenerates it: the reader closes with the visit, so
  /// trailer checksums are the only line of defense from here on.
  void retain(PendingWeek&& cur) {
    if (prev_ && prev_->spill) remove_files(*prev_->spill);
    prev_ = std::move(cur);
    prev_->reader = nullptr;
    if (prev_->spill) prev_->spill->regenerate = nullptr;
  }

  /// Checkpoints the just-retained week every ckpt_every_ weeks.
  void checkpoint() {
    if (!ckpt_enabled_ || ++weeks_since_ckpt_ < ckpt_every_) return;
    weeks_since_ckpt_ = 0;
    StudyCheckpoint ckpt;
    ckpt.week = prev_->week;
    ckpt.taken_at = prev_->snap().taken_at;
    ckpt.degraded = prev_->snap().degraded;
    ckpt.table_fingerprint = table_fingerprint(prev_->snap().table, columns_);
    ckpt.columns_mask = columns_;
    ckpt.grain = options_.grain;
    ckpt.hash_probe = checkpoint_hash_probe();
    // Keep pre-resume damage alive across checkpoint generations: the
    // source never re-read those weeks, so its own gap list cannot
    // contain them.
    ckpt.gaps = report_->restored_gaps.empty()
                    ? prev_->gaps_so_far
                    : merge_gap_timelines(report_->restored_gaps,
                                          prev_->gaps_so_far);
    ckpt.analyzers.reserve(analyzers_.size());
    for (StudyAnalyzer* analyzer : analyzers_) {
      AnalyzerCheckpoint a;
      a.id = std::string(analyzer->state_id());
      a.version = analyzer->state_version();
      StateWriter w(&a.blob);
      a.has_state = analyzer->save_state(w);
      if (!a.has_state) a.blob.clear();
      ckpt.analyzers.push_back(std::move(a));
    }
    // Best-effort: a failed write leaves the previous checkpoint on disk
    // intact (atomic replace), and the study itself continues.
    if (save_checkpoint(options_.checkpoint.path, ckpt).ok()) {
      ++report_->checkpoints_written;
    } else {
      ++report_->write_failures;
    }
  }

  SpillPartitionWriter::Options spill_options(std::uint32_t bits) {
    SpillPartitionWriter::Options wopts;
    wopts.dir = spill_dir_;
    wopts.stem = "s" + std::to_string(spill_seq_++);
    wopts.bits = bits;
    return wopts;
  }

  /// Spills a resident table as one side of a join. The regenerate hook
  /// re-derives the whole side from the table (identical bytes — the
  /// spill is deterministic), so checksum damage in scratch files heals
  /// as long as the table is alive, which it is for the whole join.
  Status spill_resident(const SnapshotTable& table, std::uint32_t bits,
                        SpilledSide* out) {
    const auto write = [&table, wopts = spill_options(bits)](
                           SpillPartitionWriter& writer) {
      Status s = writer.open(wopts);
      if (s.ok()) s = writer.add_table(table);
      if (s.ok()) s = writer.finish();
      return s;
    };
    SpillPartitionWriter writer;
    const Status s = write(writer);
    if (!s.ok()) return s;
    *out = writer.side();
    out->regenerate = [write](std::size_t) {
      SpillPartitionWriter rewriter;
      return write(rewriter);
    };
    return Status();
  }

  /// Content validation + state restore against the re-decoded
  /// checkpointed week. Any mismatch abandons the resume with analyzer
  /// state untouched.
  bool try_resume(const PendingWeek& cur) {
    if (cur.week != restored_.week ||
        cur.snap().taken_at != restored_.taken_at ||
        cur.snap().degraded != restored_.degraded ||
        table_fingerprint(cur.snap().table, columns_) !=
            restored_.table_fingerprint) {
      report_->rebaseline_reason =
          "checkpointed week " + std::to_string(restored_.week) +
          " no longer matches the source (position or content changed)";
      return false;
    }
    for (std::size_t i = 0; i < analyzers_.size(); ++i) {
      StateReader r(restored_.analyzers[i].blob);
      if (!analyzers_[i]->load_state(r) || !r.exhausted()) {
        // Unreachable short of a bug: the blob passed its section checksum
        // and its version check. load_state is atomic per analyzer, so
        // falling back to the full run is the best effort.
        report_->rebaseline_reason = "analyzer '" +
                                     restored_.analyzers[i].id +
                                     "' failed to restore its state";
        return false;
      }
    }
    report_->resumed = true;
    report_->resumed_week = static_cast<std::size_t>(restored_.week);
    report_->restored_gaps = std::move(restored_.gaps);
    return true;
  }

  SnapshotSource& source_;
  std::span<StudyAnalyzer* const> analyzers_;
  const StudyOptions& options_;
  bool need_diff_ = false;
  bool incremental_ = false;
  ColumnMask columns_ = kColMaskNone;
  std::vector<AnalyzerKernel> kernels_;  // parallel to analyzers_
  DiffScanKernel diff_kernel_;
  ScanOptions scan_options_;

  CheckpointReport scratch_report_;
  CheckpointReport* report_;
  bool ckpt_enabled_ = false;
  std::size_t ckpt_every_ = 1;
  StudyCheckpoint restored_;
  bool resume_pending_ = false;
  bool resume_failed_ = false;

  bool stable_ = false;
  bool out_of_core_ = false;
  std::optional<ThreadPool> one_thread_;  // out of core only
  ThreadPool* decode_pool_ = nullptr;     // where weeks decode
  std::string spill_dir_;
  std::uint64_t spill_seq_ = 0;

  std::optional<PendingWeek> prev_;
  std::size_t weeks_since_ckpt_ = 0;
};

}  // namespace

void run_study(SnapshotSource& source,
               std::span<StudyAnalyzer* const> analyzers,
               const StudyOptions& options) {
  StudyRun(source, analyzers, options).run();
}

void run_study(SnapshotSource& source, StudyAnalyzer& analyzer,
               const StudyOptions& options) {
  StudyAnalyzer* list[] = {&analyzer};
  run_study(source, list, options);
}

}  // namespace spider
