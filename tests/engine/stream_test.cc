// ScolMorselSource's decode-ahead under allocation failure. This binary
// replaces the global operator new so a test can make exactly one
// allocation throw, either on a pool worker (inside the prefetch task) or
// on the consuming thread (inside ThreadPool::submit). Either way the
// failure must reach the consumer as an exception or as a lost prefetch,
// never terminate the process or leave the source waiting forever.
#include "engine/stream.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/scol.h"

namespace {

enum class FailOn : int { kNothing, kPoolWorker, kArmingThread };

std::atomic<FailOn> g_fail_on{FailOn::kNothing};
std::atomic<const spider::ThreadPool*> g_pool{nullptr};
std::thread::id g_arming_thread;

bool take_failure() {
  const FailOn fail_on = g_fail_on.load(std::memory_order_acquire);
  if (fail_on == FailOn::kNothing) return false;
  const bool here =
      fail_on == FailOn::kPoolWorker
          ? g_pool.load(std::memory_order_acquire)->on_worker_thread()
          : std::this_thread::get_id() == g_arming_thread;
  FailOn expected = fail_on;
  return here && g_fail_on.compare_exchange_strong(expected, FailOn::kNothing);
}

/// The next allocation on one of `pool`'s workers throws std::bad_alloc.
void fail_next_worker_allocation(const spider::ThreadPool& pool) {
  g_pool.store(&pool, std::memory_order_release);
  g_fail_on.store(FailOn::kPoolWorker, std::memory_order_release);
}

/// The next allocation on the calling thread throws std::bad_alloc.
void fail_next_allocation_here() {
  g_arming_thread = std::this_thread::get_id();
  g_fail_on.store(FailOn::kArmingThread, std::memory_order_release);
}

bool failure_fired() {
  return g_fail_on.load(std::memory_order_acquire) == FailOn::kNothing;
}

}  // namespace

// GCC pairs an inlined replacement new with free() and warns; the pair is
// consistent here, since every form below allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (take_failure()) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace spider {
namespace {

constexpr std::size_t kGroupRows = 64;
constexpr std::size_t kGroups = 4;

SnapshotTable make_table() {
  SnapshotTable table;
  for (std::size_t i = 0; i < kGroupRows * kGroups; ++i) {
    table.add("/lustre/atlas2/cli100/u" + std::to_string(i % 7) + "/f" +
                  std::to_string(i),
              100 + static_cast<std::int64_t>(i), 90, 80,
              10000 + static_cast<std::uint32_t>(i % 7), 3000, 0100644,
              1000 + i, std::vector<std::uint32_t>{1, 2});
  }
  return table;
}

ScolOptions small_groups() {
  ScolOptions options;
  options.group_size = kGroupRows;
  return options;
}

/// Pulls one batch and checks it holds group `g` of `table`.
void expect_group(ScolMorselSource& source, const SnapshotTable& table,
                  std::size_t g) {
  MorselBatch batch;
  ASSERT_TRUE(source.next(&batch).ok()) << "group " << g;
  ASSERT_NE(batch.table, nullptr) << "group " << g;
  ASSERT_EQ(batch.base, g * kGroupRows);
  ASSERT_EQ(batch.table->size(), kGroupRows);
  for (std::size_t i = 0; i < kGroupRows; ++i) {
    ASSERT_EQ(batch.table->path(i), table.path(batch.base + i));
    ASSERT_EQ(batch.table->atime(i), table.atime(batch.base + i));
  }
}

void expect_end(ScolMorselSource& source) {
  MorselBatch batch;
  ASSERT_TRUE(source.next(&batch).ok());
  EXPECT_EQ(batch.table, nullptr);
}

TEST(ScolMorselSourceTest, PrefetchAllocationFailureReachesTheConsumer) {
  const SnapshotTable table = make_table();
  const std::vector<std::uint8_t> image = encode_scol(table, small_groups());
  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, small_groups()).ok());
  ASSERT_EQ(reader.group_count(), kGroups);

  ThreadPool pool(1);
  ScolMorselSource::Options options;
  options.pool = &pool;
  {
    ScolMorselSource source(&reader, options);
    // Group 0 decodes here; the decode-ahead of group 1 then fails on the
    // worker, and the failure surfaces from the next pull.
    fail_next_worker_allocation(pool);
    expect_group(source, table, 0);
    MorselBatch batch;
    EXPECT_THROW((void)source.next(&batch), std::bad_alloc);
    EXPECT_TRUE(failure_fired());
    // The failed group is still the next one, and the rest follow.
    for (std::size_t g = 1; g < kGroups; ++g) expect_group(source, table, g);
    expect_end(source);
  }  // the destructor must not wait on a prefetch that never finishes
}

TEST(ScolMorselSourceTest, FailedSubmitOnlyCostsThePrefetch) {
  const SnapshotTable table = make_table();
  const std::vector<std::uint8_t> image = encode_scol(table, small_groups());
  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, small_groups()).ok());

  ThreadPool pool(1);
  ScolMorselSource::Options options;
  options.pool = &pool;
  {
    ScolMorselSource source(&reader, options);
    expect_group(source, table, 0);
    // Taking group 1 from the decode-ahead allocates nothing on this
    // thread until the submit of group 2's decode-ahead, which fails.
    fail_next_allocation_here();
    expect_group(source, table, 1);
    EXPECT_TRUE(failure_fired());
    for (std::size_t g = 2; g < kGroups; ++g) expect_group(source, table, g);
    expect_end(source);
  }  // and no lost submit leaves the destructor waiting
}

}  // namespace
}  // namespace spider
