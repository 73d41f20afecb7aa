// Jittered exponential backoff (util/retry.h): attempt accounting, delay
// growth and bounds, the retryable predicate, and the wiring into
// DirectorySeries — a snapshot source whose reads fail transiently must
// recover without recording a series gap.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/series.h"
#include "synth/generator.h"
#include "util/io.h"
#include "util/retry.h"
#include "util/status.h"

namespace spider {
namespace {

TEST(RetryTest, FirstTrySuccessSleepsNever) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::vector<std::uint64_t> slept;
  policy.sleep_fn = [&](std::uint64_t us) { slept.push_back(us); };
  RetryStats stats;
  const Status s =
      retry_with_backoff(policy, &stats, [] { return Status(); });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_TRUE(slept.empty());
}

TEST(RetryTest, TransientFailureRecoversWithBoundedDelays) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_us = 1000;
  policy.max_delay_us = 200'000;
  policy.jitter = 0.5;
  std::vector<std::uint64_t> slept;
  policy.sleep_fn = [&](std::uint64_t us) { slept.push_back(us); };

  int calls = 0;
  RetryStats stats;
  const Status s = retry_with_backoff(policy, &stats, [&] {
    return ++calls < 3 ? Status::io_error("flaky") : Status();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  ASSERT_EQ(slept.size(), 2u);
  // Attempt k sleeps base * 2^k scaled into [1 - jitter, 1].
  EXPECT_GE(slept[0], 500u);
  EXPECT_LE(slept[0], 1000u);
  EXPECT_GE(slept[1], 1000u);
  EXPECT_LE(slept[1], 2000u);
  EXPECT_EQ(stats.slept_us, slept[0] + slept[1]);
}

TEST(RetryTest, DelayIsCappedAtMax) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_delay_us = 1000;
  policy.max_delay_us = 4000;
  policy.jitter = 0.0;  // deterministic: full delay every time
  std::vector<std::uint64_t> slept;
  policy.sleep_fn = [&](std::uint64_t us) { slept.push_back(us); };
  RetryStats stats;
  const Status s = retry_with_backoff(
      policy, &stats, [] { return Status::io_error("always down"); });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(stats.exhausted, 1u);
  ASSERT_EQ(slept.size(), 11u);
  EXPECT_EQ(slept[0], 1000u);
  EXPECT_EQ(slept[1], 2000u);
  for (std::size_t i = 2; i < slept.size(); ++i) {
    EXPECT_EQ(slept[i], 4000u) << "attempt " << i;
  }
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleep_fn = [](std::uint64_t) { FAIL() << "slept on non-retryable"; };
  int calls = 0;
  RetryStats stats;
  const Status s = retry_with_backoff(policy, &stats, [&] {
    ++calls;
    return Status::corruption("permanent");
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(RetryTest, CustomRetryablePredicate) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_fn = [](std::uint64_t) {};
  policy.retryable = [](const Status& s) {
    return s.code() == StatusCode::kResourceExhausted;
  };
  int calls = 0;
  RetryStats stats;
  const Status s = retry_with_backoff(policy, &stats, [&] {
    return ++calls < 2 ? Status::resource_exhausted("busy") : Status();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, DisabledPolicyMeansOneAttempt) {
  RetryPolicy policy;  // max_attempts = 1
  EXPECT_FALSE(policy.enabled());
  int calls = 0;
  RetryStats stats;
  const Status s = retry_with_backoff(policy, &stats, [&] {
    ++calls;
    return Status::io_error("down");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.exhausted, 1u);
}

// A DirectorySeries whose reads fail transiently (first two attempts per
// file) must, with a retry policy installed, deliver every week with no
// gaps; without one, every week becomes a gap.
TEST(RetryWiringTest, DirectorySeriesRetriesTransientReadErrors) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "spider_retry_wiring_test")
          .string();
  std::filesystem::remove_all(dir);
  FacilityConfig config;
  config.scale = 2e-5;
  config.weeks = 4;
  config.maintenance_gaps = false;
  FacilityGenerator generator(config);
  ASSERT_TRUE(save_series(generator, dir).ok());

  const auto flaky_read = [](int fail_first_n) {
    auto counts = std::make_shared<std::map<std::string, int>>();
    return [counts, fail_first_n](const std::string& path,
                                  std::vector<std::uint8_t>* out) -> Status {
      if ((*counts)[path]++ < fail_first_n) {
        return Status::io_error("transient test failure");
      }
      return read_file(path, out);
    };
  };

  {
    DirectorySeries series;
    ASSERT_TRUE(series.open(dir).ok());
    series.set_read_fn(flaky_read(2));
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.sleep_fn = [](std::uint64_t) {};  // no real sleeping in tests
    series.set_retry_policy(policy);
    std::size_t weeks = 0;
    series.visit([&](std::size_t, const Snapshot&) { ++weeks; });
    EXPECT_EQ(weeks, 4u);
    EXPECT_TRUE(series.gaps().empty());
    EXPECT_EQ(series.retry_stats().retries, 8u);  // 2 per file
  }
  {
    DirectorySeries series;
    ASSERT_TRUE(series.open(dir).ok());
    series.set_read_fn(flaky_read(2));  // no retry policy installed
    std::size_t weeks = 0;
    series.visit([&](std::size_t, const Snapshot&) { ++weeks; });
    EXPECT_EQ(weeks, 0u);
    EXPECT_EQ(series.gaps().size(), 4u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spider
