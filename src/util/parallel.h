// Shared-memory parallel substrate: a fixed thread pool plus chunked
// parallel_for / parallel_reduce in the OpenMP "static-ish with dynamic
// chunk claiming" style.
//
// The analytics engine is a set of embarrassingly parallel scans and
// shard-local aggregations; this is all the parallelism it needs. Chunks are
// claimed from an atomic counter (dynamic schedule) so skewed per-row costs
// (e.g. path parsing) balance automatically. Nested calls from inside a
// worker execute inline — the thread is already "inside" the parallel
// region, and blocking it on further pool tasks could deadlock the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spider {

class ThreadPool {
 public:
  /// threads == 0 selects hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task; tasks must not throw (the pool terminates on escape).
  /// Bodies run through parallel_for and friends may throw: their first
  /// exception reaches the calling thread.
  void submit(std::function<void()> task);

  /// Process-wide pool, created on first use with hardware concurrency.
  static ThreadPool& global();

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

namespace detail {

/// Runs fn(chunk_begin, chunk_end) over [0, n) split into chunks of at most
/// `grain`, fanned out across `pool`. The caller participates, so progress
/// is guaranteed even on a saturated pool. Blocks until all chunks finish.
/// If fn throws, on any thread, no further chunks start; once no thread is
/// still inside fn, the first exception is rethrown to the caller.
void parallel_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace detail

/// Grain floor for the automatic schedule: chunks never drop below this
/// many iterations, so tiny inputs run inline instead of fanning out.
inline constexpr std::size_t kGrainMin = 1024;

/// Passing this (or 0) as a grain selects the automatic schedule.
inline constexpr std::size_t kGrainAuto = 0;

/// Automatic grain: aim for ~8 chunks per worker (enough slack for dynamic
/// balancing of skewed per-row costs) but never below kGrainMin, so tiny
/// inputs don't fan out and huge inputs don't create thousands of chunks.
inline std::size_t resolve_grain(std::size_t n, std::size_t grain,
                                 ThreadPool* pool = nullptr) {
  if (grain != kGrainAuto) return grain;
  ThreadPool& p = pool ? *pool : ThreadPool::global();
  return std::max<std::size_t>(kGrainMin, n / (8 * std::max(1u, p.size())));
}

/// Parallel loop over [0, n) in chunks; Body is fn(begin, end).
template <typename Body>
void parallel_for_chunked(std::size_t n, std::size_t grain, Body&& body,
                          ThreadPool* pool = nullptr) {
  ThreadPool& p = pool ? *pool : ThreadPool::global();
  std::function<void(std::size_t, std::size_t)> fn = std::forward<Body>(body);
  detail::parallel_chunks(p, n, resolve_grain(n, grain, &p), fn);
}

/// Parallel loop over [0, n); Body is fn(i). The default grain picks the
/// automatic schedule (see resolve_grain).
template <typename Body>
void parallel_for(std::size_t n, Body&& body, ThreadPool* pool = nullptr,
                  std::size_t grain = kGrainAuto) {
  parallel_for_chunked(
      n, grain,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      pool);
}

/// Parallel map-reduce: each chunk folds into a thread-local Acc via
/// `fold(acc, i)`, partials are combined left-to-right (deterministically,
/// in chunk order) via `combine(into, from)`.
template <typename Acc, typename Fold, typename Combine>
Acc parallel_reduce(std::size_t n, Acc identity, Fold&& fold,
                    Combine&& combine, ThreadPool* pool = nullptr,
                    std::size_t grain = kGrainAuto) {
  if (n == 0) return identity;
  grain = resolve_grain(n, grain, pool);
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<Acc> partials(chunks, identity);
  parallel_for_chunked(
      n, grain,
      [&](std::size_t begin, std::size_t end) {
        Acc& acc = partials[begin / grain];
        for (std::size_t i = begin; i < end; ++i) fold(acc, i);
      },
      pool);
  Acc result = std::move(identity);
  for (Acc& partial : partials) combine(result, partial);
  return result;
}

}  // namespace spider
