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

/// Probe/sweep chunk size. Fixed for the same reason as kScanGrainRows:
/// the chunk layout (and with it the partial-splice order) must never
/// depend on the pool width.
constexpr std::size_t kDiffGrain = 8192;

/// How many rows ahead the hash join's probe loop issues the
/// slot-line prefetch. The probe is a chain of independent random
/// lookups, so overlapping ~16 in-flight misses hides most of the
/// latency; the value is uncritical (8..32 measure alike) and does not
/// affect results. (The partitioned probe does not prefetch — its Bloom
/// pre-filter answers most misses from L2.)
constexpr std::size_t kProbePrefetchDistance = 16;

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

/// Ascending regular-file rows of `table`, gathered serially (the build
/// side of the hash join; the partitioned index gathers its own copy in
/// parallel).
std::vector<std::uint32_t> file_rows_of(const SnapshotTable& table) {
  std::vector<std::uint32_t> rows;
  rows.reserve(table.file_count());
  for (std::size_t row = 0; row < table.size(); ++row) {
    if (!table.is_dir(row)) rows.push_back(static_cast<std::uint32_t>(row));
  }
  return rows;
}

/// Zeroed match flags, one per build-side file (never per row — the
/// directory rows of the previous week get no slots).
std::unique_ptr<std::atomic<std::uint8_t>[]> make_matched(std::size_t files) {
  if (files == 0) return nullptr;
  // Value-initialization zeroes the atomics (C++20).
  return std::unique_ptr<std::atomic<std::uint8_t>[]>(
      new std::atomic<std::uint8_t>[files]());
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

void diff_probe_range(const PartitionedPathIndex& index,
                      const SnapshotTable& prev, const SnapshotTable& cur,
                      std::size_t begin, std::size_t end,
                      std::atomic<std::uint8_t>* matched, DiffChunkRows* out,
                      const DiffDirProbe* dirs) {
  // No prefetch-ahead here: the index's Bloom pre-filter answers the
  // dominant miss case from L2, so most rows never touch a slot line (and,
  // via lookup_lazy, never materialize the probe-side path either).
  for (std::size_t row = begin; row < end; ++row) {
    const std::uint32_t cur_row = static_cast<std::uint32_t>(row);
    if (cur.is_dir(row)) {
      if (dirs != nullptr) {
        const std::uint32_t pos =
            dirs->index->lookup(prev, cur.path_hash(row), cur.path(row));
        if (pos == DetachedPathIndex::kNotFound) {
          out->new_dirs.push_back(cur_row);
        } else {
          dirs->matched[pos].store(1, std::memory_order_relaxed);
          classify_dir(prev, cur, dirs->index->row_of(pos), cur_row,
                       out->changed_dirs, out->changed_dirs_prev);
        }
      }
      continue;
    }
    const std::uint32_t ordinal = index.lookup_lazy(
        prev, cur.path_hash(row), [&cur, row] { return cur.path(row); });
    if (ordinal == PartitionedPathIndex::kNotFound) {
      out->rows[DiffChunkRows::kNew].push_back(cur_row);
      continue;
    }
    matched[ordinal].store(1, std::memory_order_relaxed);
    const PartitionedPathIndex::Payload& payload = index.payload(ordinal);
    const int k = classify(cur.atime(row) == payload.atime,
                           cur.mtime(row) == payload.mtime,
                           cur.ctime(row) == payload.ctime);
    out->rows[k].push_back(cur_row);
    if (out->record_prev) out->prev_rows[k].push_back(index.row_of(ordinal));
  }
}

void diff_finalize(std::span<const std::uint32_t> prev_file_rows,
                   const std::atomic<std::uint8_t>* matched,
                   std::span<const DiffChunkRows* const> chunks,
                   ThreadPool* pool, DiffResult* out,
                   const DiffFinalizeExtras* extras) {
  std::size_t totals[4] = {0, 0, 0, 0};
  for (const DiffChunkRows* chunk : chunks) {
    for (int k = 0; k < 4; ++k) totals[k] += chunk->rows[k].size();
  }
  out->new_rows.reserve(totals[DiffChunkRows::kNew]);
  out->readonly_rows.reserve(totals[DiffChunkRows::kReadonly]);
  out->updated_rows.reserve(totals[DiffChunkRows::kUpdated]);
  out->untouched_rows.reserve(totals[DiffChunkRows::kUntouched]);
  for (const DiffChunkRows* chunk : chunks) {
    out->new_rows.insert(out->new_rows.end(),
                         chunk->rows[DiffChunkRows::kNew].begin(),
                         chunk->rows[DiffChunkRows::kNew].end());
    out->readonly_rows.insert(out->readonly_rows.end(),
                              chunk->rows[DiffChunkRows::kReadonly].begin(),
                              chunk->rows[DiffChunkRows::kReadonly].end());
    out->updated_rows.insert(out->updated_rows.end(),
                             chunk->rows[DiffChunkRows::kUpdated].begin(),
                             chunk->rows[DiffChunkRows::kUpdated].end());
    out->untouched_rows.insert(out->untouched_rows.end(),
                               chunk->rows[DiffChunkRows::kUntouched].begin(),
                               chunk->rows[DiffChunkRows::kUntouched].end());
  }

  if (extras != nullptr && extras->prev_rows) {
    out->has_prev_rows = true;
    out->readonly_prev_rows.reserve(totals[DiffChunkRows::kReadonly]);
    out->updated_prev_rows.reserve(totals[DiffChunkRows::kUpdated]);
    out->untouched_prev_rows.reserve(totals[DiffChunkRows::kUntouched]);
    for (const DiffChunkRows* chunk : chunks) {
      out->readonly_prev_rows.insert(
          out->readonly_prev_rows.end(),
          chunk->prev_rows[DiffChunkRows::kReadonly].begin(),
          chunk->prev_rows[DiffChunkRows::kReadonly].end());
      out->updated_prev_rows.insert(
          out->updated_prev_rows.end(),
          chunk->prev_rows[DiffChunkRows::kUpdated].begin(),
          chunk->prev_rows[DiffChunkRows::kUpdated].end());
      out->untouched_prev_rows.insert(
          out->untouched_prev_rows.end(),
          chunk->prev_rows[DiffChunkRows::kUntouched].begin(),
          chunk->prev_rows[DiffChunkRows::kUntouched].end());
    }
  }

  if (extras != nullptr && extras->dirs) {
    out->has_dir_diff = true;
    for (const DiffChunkRows* chunk : chunks) {
      out->new_dir_rows.insert(out->new_dir_rows.end(),
                               chunk->new_dirs.begin(), chunk->new_dirs.end());
      out->changed_dir_rows.insert(out->changed_dir_rows.end(),
                                   chunk->changed_dirs.begin(),
                                   chunk->changed_dirs.end());
      out->changed_dir_prev_rows.insert(out->changed_dir_prev_rows.end(),
                                        chunk->changed_dirs_prev.begin(),
                                        chunk->changed_dirs_prev.end());
    }
    // Deleted-directory sweep, serial: directories are a small minority of
    // the snapshot, and prev_dir_rows ascends so the output does too.
    for (std::size_t pos = 0; pos < extras->prev_dir_rows.size(); ++pos) {
      if (extras->dir_matched[pos].load(std::memory_order_relaxed) == 0) {
        out->deleted_dir_rows.push_back(extras->prev_dir_rows[pos]);
      }
    }
  }

  // Deleted sweep: everything never matched. The match counts are already
  // known, so the result is sized exactly before the sweep.
  const std::size_t matched_total = totals[DiffChunkRows::kReadonly] +
                                    totals[DiffChunkRows::kUpdated] +
                                    totals[DiffChunkRows::kUntouched];
  out->deleted_rows.reserve(prev_file_rows.size() - matched_total);
  const std::size_t n = prev_file_rows.size();
  const std::size_t sweep_chunks = n == 0 ? 0 : (n + kDiffGrain - 1) / kDiffGrain;
  std::vector<std::vector<std::uint32_t>> partials(sweep_chunks);
  parallel_for_chunked(
      n, kDiffGrain,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t>& deleted = partials[begin / kDiffGrain];
        for (std::size_t pos = begin; pos < end; ++pos) {
          if (matched[pos].load(std::memory_order_relaxed) == 0) {
            deleted.push_back(prev_file_rows[pos]);
          }
        }
      },
      pool);
  for (const std::vector<std::uint32_t>& deleted : partials) {
    out->deleted_rows.insert(out->deleted_rows.end(), deleted.begin(),
                             deleted.end());
  }
}

DiffResult diff_snapshots(const SnapshotTable& prev, const SnapshotTable& cur,
                          ThreadPool* pool, DiffBreakdown* breakdown,
                          const DiffOptions& options) {
  DiffResult result;
  result.prev_files = prev.file_count();
  result.cur_files = cur.file_count();

  auto mark = std::chrono::steady_clock::now();
  // Index the previous week's files via the subset constructor: lookups
  // return positions in file_rows, so the match flags and the deleted
  // sweep stay dense over files (directory rows get no slots).
  const std::vector<std::uint32_t> file_rows = file_rows_of(prev);
  const PathIndex index(prev, file_rows);
  auto matched = make_matched(file_rows.size());
  std::unique_ptr<DetachedPathIndex> dir_index;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dir_matched;
  if (options.dirs) {
    dir_index = std::make_unique<DetachedPathIndex>(prev, dir_rows_of(prev));
    dir_matched = make_matched(dir_index->size());
  }
  if (breakdown) {
    breakdown->build_s = seconds_since(mark);
    mark = std::chrono::steady_clock::now();
  }

  // Per-chunk classification buffers, merged in chunk order so the final
  // row vectors are ascending regardless of scheduling.
  const std::size_t n = cur.size();
  const std::size_t chunks = n == 0 ? 0 : (n + kDiffGrain - 1) / kDiffGrain;
  std::vector<DiffChunkRows> partials(chunks);
  for (DiffChunkRows& partial : partials) {
    partial.record_prev = options.prev_rows;
  }
  parallel_for_chunked(
      n, kDiffGrain,
      [&](std::size_t begin, std::size_t end) {
        DiffChunkRows& out = partials[begin / kDiffGrain];
        for (std::size_t row = begin; row < end; ++row) {
          const std::size_t ahead = row + kProbePrefetchDistance;
          if (ahead < end && !cur.is_dir(ahead)) {
            index.prefetch(cur.path_hash(ahead));
          }
          const std::uint32_t cur_row = static_cast<std::uint32_t>(row);
          if (cur.is_dir(row)) {
            if (dir_index != nullptr) {
              const std::uint32_t pos = dir_index->lookup(
                  prev, cur.path_hash(row), cur.path(row));
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
          const std::uint32_t pos =
              index.lookup(cur.path_hash(row), cur.path(row));
          if (pos == PathIndex::kNotFound) {
            out.rows[DiffChunkRows::kNew].push_back(cur_row);
            continue;
          }
          matched[pos].store(1, std::memory_order_relaxed);
          const std::uint32_t prev_row = file_rows[pos];
          const int k = classify(cur.atime(row) == prev.atime(prev_row),
                                 cur.mtime(row) == prev.mtime(prev_row),
                                 cur.ctime(row) == prev.ctime(prev_row));
          out.rows[k].push_back(cur_row);
          if (out.record_prev) out.prev_rows[k].push_back(prev_row);
        }
      },
      pool);
  if (breakdown) {
    breakdown->probe_s = seconds_since(mark);
    mark = std::chrono::steady_clock::now();
  }

  std::vector<const DiffChunkRows*> chunk_ptrs;
  chunk_ptrs.reserve(partials.size());
  for (const DiffChunkRows& partial : partials) chunk_ptrs.push_back(&partial);
  DiffFinalizeExtras extras;
  extras.prev_rows = options.prev_rows;
  extras.dirs = options.dirs;
  if (dir_index != nullptr) {
    extras.prev_dir_rows = dir_index->rows();
    extras.dir_matched = dir_matched.get();
  }
  diff_finalize(file_rows, matched.get(), chunk_ptrs, pool, &result, &extras);
  if (breakdown) breakdown->sweep_s = seconds_since(mark);
  return result;
}

DiffResult diff_snapshots_partitioned(const SnapshotTable& prev,
                                      const SnapshotTable& cur,
                                      ThreadPool* pool,
                                      DiffBreakdown* breakdown,
                                      const DiffOptions& options) {
  DiffResult result;
  result.prev_files = prev.file_count();
  result.cur_files = cur.file_count();

  auto mark = std::chrono::steady_clock::now();
  const PartitionedPathIndex index(prev, pool);
  auto matched = make_matched(index.size());
  std::unique_ptr<DetachedPathIndex> dir_index;
  std::unique_ptr<std::atomic<std::uint8_t>[]> dir_matched;
  DiffDirProbe dir_probe;
  if (options.dirs) {
    dir_index = std::make_unique<DetachedPathIndex>(prev, dir_rows_of(prev));
    dir_matched = make_matched(dir_index->size());
    dir_probe.index = dir_index.get();
    dir_probe.matched = dir_matched.get();
  }
  if (breakdown) {
    breakdown->build_s = seconds_since(mark);
    mark = std::chrono::steady_clock::now();
  }

  const std::size_t n = cur.size();
  const std::size_t chunks = n == 0 ? 0 : (n + kDiffGrain - 1) / kDiffGrain;
  std::vector<DiffChunkRows> partials(chunks);
  for (DiffChunkRows& partial : partials) {
    partial.record_prev = options.prev_rows;
  }
  parallel_for_chunked(
      n, kDiffGrain,
      [&](std::size_t begin, std::size_t end) {
        diff_probe_range(index, prev, cur, begin, end, matched.get(),
                         &partials[begin / kDiffGrain],
                         options.dirs ? &dir_probe : nullptr);
      },
      pool);
  if (breakdown) {
    breakdown->probe_s = seconds_since(mark);
    mark = std::chrono::steady_clock::now();
  }

  std::vector<const DiffChunkRows*> chunk_ptrs;
  chunk_ptrs.reserve(partials.size());
  for (const DiffChunkRows& partial : partials) chunk_ptrs.push_back(&partial);
  DiffFinalizeExtras extras;
  extras.prev_rows = options.prev_rows;
  extras.dirs = options.dirs;
  if (dir_index != nullptr) {
    extras.prev_dir_rows = dir_index->rows();
    extras.dir_matched = dir_matched.get();
  }
  diff_finalize(index.file_rows(), matched.get(), chunk_ptrs, pool, &result,
                &extras);
  if (breakdown) breakdown->sweep_s = seconds_since(mark);
  return result;
}

}  // namespace spider
