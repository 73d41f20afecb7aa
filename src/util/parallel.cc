#include "util/parallel.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <new>

namespace spider {

namespace {
thread_local const ThreadPool* tls_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

bool ThreadPool::on_worker_thread() const { return tls_current_pool == this; }

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace detail {

void parallel_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);

  // Inline execution when the work is tiny or we are already inside a
  // worker (avoids pool-on-pool deadlock for nested parallel regions). The
  // chunking contract (no chunk exceeds `grain`) holds on this path too.
  if (n <= grain || pool.size() <= 1 || pool.on_worker_thread()) {
    for (std::size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }

  // Helpers may start after the call has returned, so everything they
  // touch lives in shared state; `fn` itself is only called for claimed
  // chunks, and the caller waits until every claimed chunk has finished.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};  // chunks not finished or cancelled
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // the first exception a chunk threw
  };
  const std::size_t num_chunks = (n + grain - 1) / grain;
  auto shared = std::make_shared<Shared>();
  shared->remaining = num_chunks;

  auto drain = [shared, n, grain, num_chunks, &fn]() {
    Shared& st = *shared;
    for (;;) {
      const std::size_t c = st.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      std::size_t finished = 1;
      try {
        fn(c * grain, std::min(c * grain + grain, n));
      } catch (...) {
        // Stop handing out chunks: the unclaimed ones count as finished.
        std::lock_guard<std::mutex> lock(st.mu);
        if (!st.error) st.error = std::current_exception();
        const std::size_t claimed = st.next.exchange(num_chunks);
        if (claimed < num_chunks) finished += num_chunks - claimed;
      }
      if (st.remaining.fetch_sub(finished, std::memory_order_acq_rel) ==
          finished) {
        std::lock_guard<std::mutex> lock(st.mu);
        st.cv.notify_all();
      }
    }
  };

  // One helper task per worker; each drains chunks from the shared counter.
  // A submit that runs out of memory only costs parallelism: the caller
  // drains whatever no helper claims.
  const unsigned helpers =
      static_cast<unsigned>(std::min<std::size_t>(pool.size(), num_chunks));
  try {
    for (unsigned i = 0; i + 1 < helpers; ++i) pool.submit(drain);
  } catch (const std::bad_alloc&) {
  }

  // The caller participates too, so progress never depends on queue
  // position behind unrelated long-running tasks.
  drain();

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] {
    return shared->remaining.load(std::memory_order_acquire) == 0;
  });
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace detail

}  // namespace spider
