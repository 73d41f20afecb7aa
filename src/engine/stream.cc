#include "engine/stream.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <new>
#include <utility>

namespace spider {

struct ScolMorselSource::Impl {
  const ScolGroupReader* reader = nullptr;
  Options options;

  SnapshotTable slots[2];
  std::size_t next_group = 0;  // next group to hand out (skip-advanced)
  std::size_t base = 0;        // global row of the next batch's first row
  int next_slot = 0;           // slot the next batch will occupy

  // Depth-1 decode-ahead. The in-flight task decodes group next_group
  // into slots[next_slot]; `done` flips under `mu` when it finishes, with
  // its verdict in `pending_status` or, if the decode threw (an
  // allocation failure, say), the exception in `pending_error`.
  std::mutex mu;
  std::condition_variable cv;
  bool pending = false;
  bool done = false;
  Status pending_status;
  std::exception_ptr pending_error;

  bool skipped(std::size_t g) const {
    return g < options.skip.size() && options.skip[g] != 0;
  }

  /// First non-skipped group at or after `g`, or group_count() if none.
  std::size_t advance(std::size_t g) const {
    while (g < reader->group_count() && skipped(g)) ++g;
    return g;
  }

  void wait_pending() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
  }

  /// Waits for the decode-ahead and takes its outcome: the verdict, or the
  /// task's exception rethrown here, on the consumer's thread.
  Status take_pending() {
    wait_pending();
    pending = false;
    if (pending_error) std::rethrow_exception(std::exchange(pending_error, {}));
    return std::move(pending_status);
  }

  void submit_prefetch(std::size_t group, int slot) {
    done = false;
    ThreadPool& pool = options.pool ? *options.pool : ThreadPool::global();
    try {
      pool.submit([this, group, slot] {
        Status s;
        std::exception_ptr error;
        try {
          slots[slot].clear();
          // On a worker of options.pool, so the group decodes inline.
          s = reader->decode_group(group, &slots[slot], options.pool);
        } catch (...) {  // a pool task must not throw
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu);
        pending_status = std::move(s);
        pending_error = std::move(error);
        done = true;
        cv.notify_all();
      });
    } catch (const std::bad_alloc&) {
      return;  // no decode-ahead: next() decodes the group itself
    }
    pending = true;
  }
};

ScolMorselSource::ScolMorselSource(const ScolGroupReader* reader,
                                   Options options)
    : impl_(std::make_unique<Impl>()) {
  impl_->reader = reader;
  impl_->options = std::move(options);
  impl_->next_group = impl_->advance(0);
}

ScolMorselSource::~ScolMorselSource() {
  if (impl_ && impl_->pending) impl_->wait_pending();
}

Status ScolMorselSource::next(MorselBatch* batch) {
  Impl& im = *impl_;
  batch->table = nullptr;
  batch->base = 0;
  if (im.next_group >= im.reader->group_count()) return Status();

  const std::size_t group = im.next_group;
  const int slot = im.next_slot;
  // A decode-ahead in flight is always for this group and slot: it was
  // submitted for next_group into next_slot, and nothing else moves them.
  Status s;
  if (im.pending) {
    s = im.take_pending();
  } else {
    im.slots[slot].clear();
    s = im.reader->decode_group(group, &im.slots[slot], im.options.pool);
  }
  if (!s.ok()) return s;

  im.next_group = im.advance(group + 1);
  im.next_slot = 1 - slot;
  if (im.options.prefetch && im.next_group < im.reader->group_count()) {
    im.submit_prefetch(im.next_group, im.next_slot);
  }

  batch->table = &im.slots[slot];
  batch->base = im.base;
  im.base += im.slots[slot].size();
  return Status();
}

}  // namespace spider
