#include "engine/diff.h"

#include <algorithm>
#include <chrono>
#include <memory>

namespace spider {

namespace {

double fraction(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Deleted-sweep chunk size. Fixed for the same reason as kScanGrainRows:
/// the chunk layout (and with it the partial-splice order) must never
/// depend on the pool width.
constexpr std::size_t kDiffGrain = 8192;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int classify(bool atime_same, bool mtime_same, bool ctime_same) {
  if (mtime_same && ctime_same) {
    return atime_same ? DiffChunkRows::kUntouched : DiffChunkRows::kReadonly;
  }
  return DiffChunkRows::kUpdated;
}

/// Classifies one matched directory row against its previous-week twin:
/// appended to the changed lists when any timestamp differs, dropped
/// (still counted as matched by the caller) otherwise.
void classify_dir(const SnapshotTable& prev, const SnapshotTable& cur,
                  std::uint32_t prev_row, std::uint32_t cur_row,
                  std::vector<std::uint32_t>& changed,
                  std::vector<std::uint32_t>& changed_prev) {
  if (cur.atime(cur_row) != prev.atime(prev_row) ||
      cur.mtime(cur_row) != prev.mtime(prev_row) ||
      cur.ctime(cur_row) != prev.ctime(prev_row)) {
    changed.push_back(cur_row);
    changed_prev.push_back(prev_row);
  }
}

/// Zeroed match flags, one per indexed position; null when there are
/// none.
std::unique_ptr<std::atomic<std::uint8_t>[]> make_matched(std::size_t count) {
  if (count == 0) return nullptr;
  // Value-initialization zeroes the atomics (C++20).
  return std::unique_ptr<std::atomic<std::uint8_t>[]>(
      new std::atomic<std::uint8_t>[count]());
}

/// Appends one list of every chunk to `out`, in chunk order; `list` picks
/// the list out of a chunk.
template <typename List>
void splice(std::span<const DiffChunkRows* const> chunks, List list,
            std::vector<std::uint32_t>* out) {
  std::size_t total = 0;
  for (const DiffChunkRows* chunk : chunks) total += list(*chunk).size();
  out->reserve(total);
  for (const DiffChunkRows* chunk : chunks) {
    const std::vector<std::uint32_t>& rows = list(*chunk);
    out->insert(out->end(), rows.begin(), rows.end());
  }
}

}  // namespace

std::vector<std::uint32_t> dir_rows_of(const SnapshotTable& table) {
  std::vector<std::uint32_t> rows;
  rows.reserve(table.size() - table.file_count());
  for (std::size_t row = 0; row < table.size(); ++row) {
    if (table.is_dir(row)) rows.push_back(static_cast<std::uint32_t>(row));
  }
  return rows;
}

double DiffResult::deleted_fraction() const {
  return fraction(deleted_rows.size(), prev_files);
}
double DiffResult::readonly_fraction() const {
  return fraction(readonly_rows.size(), prev_files);
}
double DiffResult::updated_fraction() const {
  return fraction(updated_rows.size(), prev_files);
}
double DiffResult::untouched_fraction() const {
  return fraction(untouched_rows.size(), prev_files);
}
double DiffResult::new_fraction() const {
  return fraction(new_rows.size(), cur_files);
}

struct DiffKernel::Chunk : ScanChunkState {
  DiffChunkRows rows;
};

void DiffKernel::set_week(const PartitionedPathIndex& index,
                          const SnapshotTable& prev, DiffResult* out,
                          std::size_t cur_files, bool record_prev,
                          const DetachedPathIndex* dir_index) {
  index_ = &index;
  prev_ = &prev;
  out_ = out;
  cur_files_ = cur_files;
  record_prev_ = record_prev;
  dir_index_ = dir_index;
  chunk_rows_.clear();
  matched_ = make_matched(index.size());
  dir_matched_ = make_matched(dir_index != nullptr ? dir_index->size() : 0);
}

std::unique_ptr<ScanChunkState> DiffKernel::make_chunk_state() const {
  auto state = std::make_unique<Chunk>();
  chunk_rows_.push_back(&state->rows);
  return state;
}

void DiffKernel::observe_chunk(ScanChunkState* state, const ScanMorsel& m) {
  // The kernel's fields as locals: the loop's push_backs may allocate, and
  // the compiler must then assume they changed *this and reload them.
  const PartitionedPathIndex& index = *index_;
  const SnapshotTable& prev = *prev_;
  const DetachedPathIndex* const dir_index = dir_index_;
  std::atomic<std::uint8_t>* const matched = matched_.get();
  std::atomic<std::uint8_t>* const dir_matched = dir_matched_.get();
  const bool record_prev = record_prev_;
  const SnapshotTable& cur = *m.table;
  DiffChunkRows& out = static_cast<Chunk*>(state)->rows;
  // No prefetch-ahead here: the index's Bloom pre-filter answers the
  // dominant miss case from L2, so most rows never touch a slot line (and,
  // via lookup_lazy, never materialize the probe-side path either).
  for (std::size_t row = m.begin; row < m.end; ++row) {
    const std::uint32_t cur_row = static_cast<std::uint32_t>(row);
    if (cur.is_dir(row)) {
      if (dir_index != nullptr) {
        const std::uint32_t pos =
            dir_index->lookup(prev, cur.path_hash(row), cur.path(row));
        if (pos == DetachedPathIndex::kNotFound) {
          out.new_dirs.push_back(cur_row);
        } else {
          dir_matched[pos].store(1, std::memory_order_relaxed);
          classify_dir(prev, cur, dir_index->row_of(pos), cur_row,
                       out.changed_dirs, out.changed_dirs_prev);
        }
      }
      continue;
    }
    const std::uint32_t ordinal = index.lookup_lazy(
        prev, cur.path_hash(row), [&cur, row] { return cur.path(row); });
    if (ordinal == PartitionedPathIndex::kNotFound) {
      out.rows[DiffChunkRows::kNew].push_back(cur_row);
      continue;
    }
    matched[ordinal].store(1, std::memory_order_relaxed);
    const PartitionedPathIndex::Payload& payload = index.payload(ordinal);
    const int k = classify(cur.atime(row) == payload.atime,
                           cur.mtime(row) == payload.mtime,
                           cur.ctime(row) == payload.ctime);
    out.rows[k].push_back(cur_row);
    if (record_prev) out.prev_rows[k].push_back(index.row_of(ordinal));
  }
}

void DiffKernel::merge_chunks(ScanStateList, ThreadPool* pool) {
  const auto start = std::chrono::steady_clock::now();
  const std::span<const DiffChunkRows* const> chunks(chunk_rows_);
  DiffResult& out = *out_;
  std::vector<std::uint32_t>* const lists[4] = {
      &out.new_rows, &out.readonly_rows, &out.updated_rows,
      &out.untouched_rows};
  for (int k = 0; k < 4; ++k) {
    splice(
        chunks, [k](const auto& c) -> const auto& { return c.rows[k]; },
        lists[k]);
  }
  if (record_prev_) {
    out.has_prev_rows = true;
    std::vector<std::uint32_t>* const prev_lists[4] = {
        nullptr, &out.readonly_prev_rows, &out.updated_prev_rows,
        &out.untouched_prev_rows};
    for (int k = DiffChunkRows::kReadonly; k < 4; ++k) {
      splice(
          chunks, [k](const auto& c) -> const auto& { return c.prev_rows[k]; },
          prev_lists[k]);
    }
  }

  if (dir_index_ != nullptr) {
    out.has_dir_diff = true;
    splice(
        chunks, [](const auto& c) -> const auto& { return c.new_dirs; },
        &out.new_dir_rows);
    splice(
        chunks, [](const auto& c) -> const auto& { return c.changed_dirs; },
        &out.changed_dir_rows);
    splice(
        chunks,
        [](const auto& c) -> const auto& { return c.changed_dirs_prev; },
        &out.changed_dir_prev_rows);
    // Deleted-directory sweep, serial: directories are a small minority of
    // the snapshot, and the indexed rows ascend so the output does too.
    const std::span<const std::uint32_t> dir_rows = dir_index_->rows();
    for (std::size_t pos = 0; pos < dir_rows.size(); ++pos) {
      if (dir_matched_[pos].load(std::memory_order_relaxed) == 0) {
        out.deleted_dir_rows.push_back(dir_rows[pos]);
      }
    }
  }

  // Deleted sweep: every indexed file never matched, in parallel chunks
  // spliced in order. The match counts are already known, so the result
  // is sized exactly before the sweep.
  const std::span<const std::uint32_t> file_rows = index_->file_rows();
  const std::size_t n = file_rows.size();
  out.deleted_rows.reserve(n - out.readonly_rows.size() -
                           out.updated_rows.size() -
                           out.untouched_rows.size());
  std::vector<std::vector<std::uint32_t>> partials(
      (n + kDiffGrain - 1) / kDiffGrain);
  parallel_for_chunked(
      n, kDiffGrain,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t>& deleted = partials[begin / kDiffGrain];
        for (std::size_t pos = begin; pos < end; ++pos) {
          if (matched_[pos].load(std::memory_order_relaxed) == 0) {
            deleted.push_back(file_rows[pos]);
          }
        }
      },
      pool);
  for (const std::vector<std::uint32_t>& deleted : partials) {
    out.deleted_rows.insert(out.deleted_rows.end(), deleted.begin(),
                            deleted.end());
  }
  out.prev_files = n;
  out.cur_files = cur_files_;
  finalize_s_ = seconds_since(start);
}

DiffResult diff_snapshots_partitioned(const SnapshotTable& prev,
                                      const SnapshotTable& cur,
                                      ThreadPool* pool,
                                      DiffBreakdown* breakdown,
                                      const DiffOptions& options) {
  DiffResult result;
  auto mark = std::chrono::steady_clock::now();
  const PartitionedPathIndex index(prev, pool);
  std::unique_ptr<DetachedPathIndex> dir_index;
  if (options.dirs) {
    dir_index = std::make_unique<DetachedPathIndex>(prev, dir_rows_of(prev));
  }
  DiffKernel kernel;
  kernel.set_week(index, prev, &result, cur.file_count(), options.prev_rows,
                  dir_index.get());
  if (breakdown) {
    breakdown->build_s = seconds_since(mark);
    mark = std::chrono::steady_clock::now();
  }
  ScanKernel* const kernels[] = {&kernel};
  scan_table(cur, kernels, ScanOptions{kScanGrainRows, pool});
  if (breakdown) {
    // The scan's time is the probe plus the kernel's merge.
    breakdown->sweep_s = kernel.finalize_s();
    breakdown->probe_s =
        std::max(0.0, seconds_since(mark) - breakdown->sweep_s);
  }
  return result;
}

}  // namespace spider
