#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace spider {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForChunkedTest, ChunksCoverRangeWithoutOverlap) {
  constexpr std::size_t kN = 12345;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_chunked(kN, 100, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(end - begin, 100u);
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(visits[i].load(), 1);
}

TEST(ParallelReduceTest, SumMatchesSerial) {
  constexpr std::size_t kN = 1000000;
  const std::uint64_t expected = kN * (kN - 1) / 2;
  const std::uint64_t sum = parallel_reduce<std::uint64_t>(
      kN, 0, [](std::uint64_t& acc, std::size_t i) { acc += i; },
      [](std::uint64_t& into, std::uint64_t& from) { into += from; });
  EXPECT_EQ(sum, expected);
}

TEST(ParallelReduceTest, CombineOrderIsDeterministic) {
  // Concatenation is order-sensitive; the reduce contract promises
  // chunk-order combination, so the result must equal the serial string.
  constexpr std::size_t kN = 1000;
  const std::string result = parallel_reduce<std::string>(
      kN, std::string(),
      [](std::string& acc, std::size_t i) { acc += static_cast<char>('a' + i % 26); },
      [](std::string& into, std::string& from) { into += from; },
      nullptr, /*grain=*/64);
  std::string expected;
  for (std::size_t i = 0; i < kN; ++i) {
    expected += static_cast<char>('a' + i % 26);
  }
  EXPECT_EQ(result, expected);
}

TEST(ParallelForTest, NestedCallsExecuteInline) {
  // A parallel_for inside a pool worker must not deadlock.
  std::atomic<std::uint64_t> total{0};
  parallel_for(
      64,
      [&](std::size_t) {
        parallel_for(100, [&](std::size_t) { total.fetch_add(1); }, nullptr,
                     10);
      },
      nullptr, /*grain=*/1);
  EXPECT_EQ(total.load(), 6400u);
}

TEST(ParallelForTest, WorksWithExplicitSmallPool) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  parallel_for(10000, [&](std::size_t i) { total.fetch_add(i); }, &pool);
  EXPECT_EQ(total.load(), 10000ull * 9999 / 2);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::uint64_t total = 0;  // no atomics needed: guaranteed inline
  parallel_for(1000, [&](std::size_t i) { total += i; }, &pool);
  EXPECT_EQ(total, 1000ull * 999 / 2);
}

TEST(ParallelForChunkedTest, BodyExceptionsReachTheCaller) {
  // A body that throws on the calling thread must not unwind the call
  // while workers still run it; one that throws on a worker must not
  // escape the pool. Either way the exception arrives at the call and the
  // pool stays usable.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kChunks = 1024;

  std::atomic<bool> caller_entered{false};
  std::atomic<int> in_body{0};
  auto throw_on_caller = [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() == caller) {
      caller_entered = true;
      while (in_body.load() == 0) std::this_thread::yield();
      throw std::bad_alloc();
    }
    in_body.fetch_add(1);
    while (!caller_entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_body.fetch_sub(1);
  };
  EXPECT_THROW(parallel_for_chunked(kChunks, 1, throw_on_caller, &pool),
               std::bad_alloc);
  EXPECT_EQ(in_body.load(), 0) << "a worker was still inside the body";

  std::atomic<bool> worker_threw{false};
  auto throw_on_worker = [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) {
      worker_threw = true;
      throw std::runtime_error("worker");
    }
    while (!worker_threw.load()) std::this_thread::yield();
  };
  EXPECT_THROW(parallel_for_chunked(kChunks, 1, throw_on_worker, &pool),
               std::runtime_error);

  std::atomic<std::uint64_t> total{0};
  parallel_for(10000, [&](std::size_t i) { total.fetch_add(i); }, &pool);
  EXPECT_EQ(total.load(), 10000ull * 9999 / 2);
}

// Stress the chunk-claiming logic across grain sizes.
class GrainSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GrainSweep, SumIsExact) {
  const std::size_t grain = GetParam();
  constexpr std::size_t kN = 54321;
  std::atomic<std::uint64_t> total{0};
  parallel_for(kN, [&](std::size_t i) { total.fetch_add(i + 1); }, nullptr,
               grain);
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kN) * (kN + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Grains, GrainSweep,
                         ::testing::Values(1, 7, 64, 1000, 54321, 100000));

}  // namespace
}  // namespace spider
