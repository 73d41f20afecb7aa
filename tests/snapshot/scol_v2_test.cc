// .scol v2 row-group layout: round-trip property sweep across every
// encoding-knob combination and the group-boundary row counts, group
// checksum isolation, version dispatch, and parallel/serial decode parity.
#include <cstring>

#include <gtest/gtest.h>

#include "scol_v1_image.h"
#include "snapshot/scol.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

constexpr std::size_t kGroup = 64;  // small groups keep the sweep fast

SnapshotTable make_table(std::size_t rows, std::uint64_t seed = 7) {
  Rng rng(seed);
  SnapshotTable t;
  std::int64_t mtime = 1420416000;
  for (std::size_t i = 0; i < rows; ++i) {
    RawRecord rec;
    const std::size_t proj = i / 50;
    rec.path = "/lustre/atlas2/proj" + std::to_string(proj) + "/u" +
               std::to_string(proj % 7) + "/run" + std::to_string(i % 9) +
               "/step." + std::to_string(i);
    mtime += static_cast<std::int64_t>(rng.uniform_u64(1000));
    rec.mtime = mtime;
    rec.ctime = mtime;
    rec.atime = mtime + static_cast<std::int64_t>(rng.uniform_u64(86400));
    rec.uid = static_cast<std::uint32_t>(1000 + proj % 13);
    rec.gid = static_cast<std::uint32_t>(2000 + proj % 5);
    rec.mode = (i % 20 == 0) ? (kModeDirectory | 0775) : (kModeRegular | 0664);
    rec.inode = 1'000'000 + i * 3;
    if (!rec.is_dir()) {
      const std::size_t stripes = 1 + rng.uniform_u64(8);
      for (std::size_t s = 0; s < stripes; ++s) {
        rec.osts.push_back(static_cast<std::uint32_t>(rng.uniform_u64(2016)));
      }
    }
    t.add(rec);
  }
  return t;
}

void expect_tables_equal(const SnapshotTable& a, const SnapshotTable& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.file_count(), b.file_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.path(i), b.path(i)) << "row " << i;
    ASSERT_EQ(a.path_hash(i), b.path_hash(i)) << "row " << i;
    ASSERT_EQ(a.depth(i), b.depth(i)) << "row " << i;
    ASSERT_EQ(a.atime(i), b.atime(i)) << "row " << i;
    ASSERT_EQ(a.ctime(i), b.ctime(i)) << "row " << i;
    ASSERT_EQ(a.mtime(i), b.mtime(i)) << "row " << i;
    ASSERT_EQ(a.uid(i), b.uid(i)) << "row " << i;
    ASSERT_EQ(a.gid(i), b.gid(i)) << "row " << i;
    ASSERT_EQ(a.mode(i), b.mode(i)) << "row " << i;
    ASSERT_EQ(a.inode(i), b.inode(i)) << "row " << i;
    const auto osts_a = a.osts(i);
    const auto osts_b = b.osts(i);
    ASSERT_EQ(osts_a.size(), osts_b.size()) << "row " << i;
    for (std::size_t k = 0; k < osts_a.size(); ++k) {
      ASSERT_EQ(osts_a[k], osts_b[k]);
    }
  }
}

// Every encoding-knob combination must round-trip exactly at every row
// count that stresses a group boundary: empty, single row, one short of a
// boundary, exactly at it, one past it, and a multi-group remainder.
class ScolV2OptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScolV2OptionSweep, RoundTripAcrossGroupBoundaries) {
  const int mask = GetParam();
  ScolOptions options;
  options.front_code_paths = mask & 1;
  options.delta_timestamps = mask & 2;
  options.rle_ids = mask & 4;
  options.delta_inodes = mask & 8;
  options.group_size = kGroup;

  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, kGroup - 1, kGroup, kGroup + 1,
        3 * kGroup + 7}) {
    const SnapshotTable original = make_table(rows);
    const auto image = encode_scol(original, options);
    ASSERT_EQ(std::memcmp(image.data(), "SCOL0002", 8), 0);
    SnapshotTable decoded;
    const Status s = decode_scol(image, &decoded, ScolOptions{});
    ASSERT_TRUE(s.ok()) << "rows=" << rows << ": " << s.to_string();
    expect_tables_equal(original, decoded);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombinations, ScolV2OptionSweep,
                         ::testing::Range(0, 16));

TEST(ScolV2Test, V1ImagesStillDecode) {
  // Backward compat: images in the seed encoder's v1 layout, which nothing
  // writes any more, must keep decoding through the version dispatch.
  // The rows append behind any already in the table, and the report
  // counts only the image's rows.
  const SnapshotTable original = make_table(500);
  const auto image = scol_v1_image(original);
  ASSERT_EQ(std::memcmp(image.data(), "SCOL0001", 8), 0);
  for (const std::size_t existing : {0, 7}) {
    SnapshotTable decoded = make_table(existing, /*seed=*/3);
    SnapshotTable expected = make_table(existing, /*seed=*/3);
    expected.append_table(make_table(500));
    SalvageReport report;
    ASSERT_TRUE(decode_scol(image, &decoded, ScolOptions{}, &report).ok());
    expect_tables_equal(expected, decoded);
    EXPECT_EQ(report.groups_total, 1u) << "existing rows " << existing;
    EXPECT_EQ(report.rows_total, 500u) << "existing rows " << existing;
    EXPECT_EQ(report.rows_recovered, 500u) << "existing rows " << existing;
    EXPECT_TRUE(report.clean());
  }
}

TEST(ScolV2Test, V1AndV2EncodeIdenticalTables) {
  const SnapshotTable original = make_table(3 * kGroup + 7);
  ScolOptions v2;
  v2.group_size = kGroup;
  SnapshotTable from_v1, from_v2;
  ASSERT_TRUE(
      decode_scol(scol_v1_image(original), &from_v1, ScolOptions{}).ok());
  ASSERT_TRUE(
      decode_scol(encode_scol(original, v2), &from_v2, ScolOptions{}).ok());
  expect_tables_equal(from_v1, from_v2);
}

TEST(ScolV2Test, CorruptedGroupChecksumIsRejected) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(3 * kGroup + 7);
  auto image = encode_scol(original, options);

  // The image tail is the last group's OST payload; flipping a byte there
  // must fail that group's checksum and name the group.
  auto corrupted = image;
  corrupted[corrupted.size() - 5] ^= 0xff;
  SnapshotTable decoded;
  const Status s = decode_scol(corrupted, &decoded, ScolOptions{});
  EXPECT_FALSE(s.ok());
  const std::string error = s.to_string();
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_NE(error.find("group 3"), std::string::npos) << error;

  // Truncation anywhere — inside the header, the directory, or a group —
  // must fail cleanly.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, std::size_t{30},
        image.size() / 2, image.size() - 1}) {
    SnapshotTable partial;
    const std::span<const std::uint8_t> prefix(image.data(), keep);
    EXPECT_FALSE(decode_scol(prefix, &partial, ScolOptions{}).ok())
        << "keep=" << keep;
  }
}

TEST(ScolV2Test, RandomCorruptionNeverCrashes) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(2 * kGroup + 11, 23);
  const auto image = encode_scol(original, options);
  Rng rng(7919);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = image;
    const std::size_t pos = rng.uniform_u64(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    SnapshotTable decoded;
    const Status s = decode_scol(corrupted, &decoded, ScolOptions{});
    if (!s.ok()) {
      EXPECT_FALSE(s.to_string().empty());
    } else {
      EXPECT_EQ(decoded.size(), original.size());
    }
  }
}

TEST(ScolV2Test, ParallelAndSerialDecodeMatch) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(5 * kGroup + 3);
  ThreadPool serial(1), wide(4);
  const auto image_serial = encode_scol(original, options, &serial);
  const auto image_wide = encode_scol(original, options, &wide);
  ASSERT_EQ(image_serial, image_wide)
      << "encoded image must not depend on the thread count";
  SnapshotTable dec_serial, dec_wide;
  ASSERT_TRUE(
      decode_scol(image_wide, &dec_serial, ScolOptions{}, nullptr, &serial)
          .ok());
  ASSERT_TRUE(
      decode_scol(image_wide, &dec_wide, ScolOptions{}, nullptr, &wide).ok());
  expect_tables_equal(dec_serial, dec_wide);
  expect_tables_equal(original, dec_wide);
}

TEST(ScolV2Test, DecodeAppendsToExistingTable) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(2 * kGroup);
  const auto image = encode_scol(original, options);
  SnapshotTable out;
  RawRecord pre;
  pre.path = "/lustre/atlas2/p/u/pre";
  out.add(pre);
  ASSERT_TRUE(decode_scol(image, &out, ScolOptions{}).ok());
  EXPECT_EQ(out.size(), 2 * kGroup + 1);
  EXPECT_EQ(out.path(0), "/lustre/atlas2/p/u/pre");
  EXPECT_EQ(out.path(1), original.path(0));
  EXPECT_EQ(out.path(2 * kGroup), original.path(2 * kGroup - 1));
}

TEST(ScolV2Test, GroupDirectoryRowMismatchIsRejected) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(2 * kGroup);
  auto image = encode_scol(original, options);
  // Total-row field (offset 8) no longer matches the directory sum.
  image[8] ^= 1;
  SnapshotTable decoded;
  const Status s = decode_scol(image, &decoded, ScolOptions{});
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.to_string().empty());
}

}  // namespace
}  // namespace spider
