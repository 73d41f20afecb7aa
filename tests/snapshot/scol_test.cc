#include "snapshot/scol.h"

#include <gtest/gtest.h>

#include <sstream>

#include "snapshot/psv.h"
#include "snapshot/varint.h"
#include "util/prng.h"

namespace spider {
namespace {

// --- varint primitives -------------------------------------------------

TEST(VarintTest, RoundTripBoundaryValues) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xffffffffULL,
        0xffffffffffffffffULL}) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t decoded = 0;
    ASSERT_TRUE(get_varint(buf, pos, decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, RejectsTruncatedInput) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 0xffffffffffULL);
  buf.pop_back();
  std::size_t pos = 0;
  std::uint64_t decoded = 0;
  EXPECT_FALSE(get_varint(buf, pos, decoded));
}

TEST(ZigzagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  for (const std::int64_t v :
       {std::int64_t{-1000000}, std::int64_t{-1}, std::int64_t{0},
        std::int64_t{1}, std::int64_t{987654321}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

// --- scol round trips ----------------------------------------------------

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
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.path(i), b.path(i)) << "row " << i;
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

TEST(ScolTest, EmptyTableRoundTrip) {
  const SnapshotTable empty;
  const auto image = encode_scol(empty);
  SnapshotTable decoded;
  ASSERT_TRUE(decode_scol(image, &decoded, ScolOptions{}).ok());
  EXPECT_EQ(decoded.size(), 0u);
}

// Every combination of encoding knobs must round-trip identically.
struct OptionCase {
  ScolOptions options;
  const char* name;
};

class ScolOptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScolOptionSweep, RoundTripExact) {
  const int mask = GetParam();
  ScolOptions options;
  options.front_code_paths = mask & 1;
  options.delta_timestamps = mask & 2;
  options.rle_ids = mask & 4;
  options.delta_inodes = mask & 8;

  const SnapshotTable original = make_table(1000);
  const auto image = encode_scol(original, options);
  SnapshotTable decoded;
  ASSERT_TRUE(decode_scol(image, &decoded, ScolOptions{}).ok());
  expect_tables_equal(original, decoded);
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombinations, ScolOptionSweep,
                         ::testing::Range(0, 16));

TEST(ScolTest, DefaultEncodingsBeatPlain) {
  const SnapshotTable t = make_table(5000);
  ScolOptions plain;
  plain.front_code_paths = false;
  plain.delta_timestamps = false;
  plain.rle_ids = false;
  plain.delta_inodes = false;
  const auto encoded_default = encode_scol(t).size();
  const auto encoded_plain = encode_scol(t, plain).size();
  EXPECT_LT(encoded_default, encoded_plain / 2)
      << "columnar encodings should at least halve the footprint";
}

TEST(ScolTest, SmallerThanPsv) {
  const SnapshotTable t = make_table(5000);
  std::stringstream psv;
  const std::uint64_t psv_bytes = write_psv(t, psv);
  const std::uint64_t scol_bytes = encode_scol(t).size();
  // The paper reports 119 GB -> 28 GB (~4.3x); our synthetic rows are less
  // redundant but 3x is well within reach.
  EXPECT_LT(scol_bytes * 3, psv_bytes);
}

TEST(ScolTest, ColumnSizesSumToTotal) {
  const SnapshotTable t = make_table(500);
  const ScolColumnSizes sizes = scol_column_sizes(t);
  EXPECT_EQ(sizes.total, sizes.paths + sizes.atime + sizes.ctime +
                             sizes.mtime + sizes.uid + sizes.gid + sizes.mode +
                             sizes.inode + sizes.ost);
  EXPECT_GT(sizes.paths, 0u);
  EXPECT_GT(sizes.ost, 0u);
}

TEST(ScolTest, DetectsCorruption) {
  const SnapshotTable t = make_table(100);
  auto image = encode_scol(t);

  // Flip one payload byte near the end (inside the OST column payload).
  auto corrupted = image;
  corrupted[corrupted.size() - 5] ^= 0xff;
  SnapshotTable decoded;
  const Status s = decode_scol(corrupted, &decoded, ScolOptions{});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("checksum"), std::string::npos)
      << s.to_string();

  // Bad magic.
  auto bad_magic = image;
  bad_magic[0] = 'X';
  SnapshotTable decoded2;
  EXPECT_FALSE(decode_scol(bad_magic, &decoded2, ScolOptions{}).ok());

  // Truncation at any point must fail cleanly, never crash.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, image.size() / 2,
        image.size() - 1}) {
    SnapshotTable partial;
    const std::span<const std::uint8_t> prefix(image.data(), keep);
    EXPECT_FALSE(decode_scol(prefix, &partial, ScolOptions{}).ok())
        << "keep=" << keep;
  }
}

// Fuzz-style property: arbitrary single-byte corruption anywhere in the
// image must never crash or hang — decode either fails cleanly or (for
// bytes outside validated regions) round-trips unaffected data.
class ScolCorruptionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScolCorruptionFuzz, NeverCrashes) {
  const SnapshotTable original = make_table(200, GetParam());
  const auto image = encode_scol(original);
  Rng rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = image;
    const std::size_t pos = rng.uniform_u64(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    SnapshotTable decoded;
    const Status s = decode_scol(corrupted, &decoded, ScolOptions{});
    if (!s.ok()) {
      EXPECT_FALSE(s.to_string().empty());
    } else {
      // Only a corrupted *checksum byte of an empty-column header* region
      // could still decode; whatever decodes must have the right shape.
      EXPECT_EQ(decoded.size(), original.size());
    }
  }
}

TEST_P(ScolCorruptionFuzz, RandomTruncationNeverCrashes) {
  const SnapshotTable original = make_table(150, GetParam());
  const auto image = encode_scol(original);
  Rng rng(GetParam() * 104729 + 1);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t keep = rng.uniform_u64(image.size());
    SnapshotTable decoded;
    const std::span<const std::uint8_t> prefix(image.data(), keep);
    EXPECT_FALSE(decode_scol(prefix, &decoded, ScolOptions{}).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScolCorruptionFuzz,
                         ::testing::Values(21, 22, 23));

TEST(ScolTest, FileRoundTrip) {
  const SnapshotTable original = make_table(300);
  const std::string file = testing::TempDir() + "/spider_scol_test.scol";
  ASSERT_TRUE(write_scol_file(original, file, ScolOptions{}).ok());
  SnapshotTable loaded;
  ASSERT_TRUE(read_scol_file(file, &loaded, ScolOptions{}).ok());
  expect_tables_equal(original, loaded);
  EXPECT_FALSE(read_scol_file(file + ".missing", &loaded, ScolOptions{}).ok());
}

TEST(ScolTest, DecodeAppendsToExistingTable) {
  const SnapshotTable original = make_table(10);
  const auto image = encode_scol(original);
  SnapshotTable out;
  RawRecord pre;
  pre.path = "/lustre/atlas2/p/u/pre";
  out.add(pre);
  ASSERT_TRUE(decode_scol(image, &out, ScolOptions{}).ok());
  EXPECT_EQ(out.size(), 11u);
  EXPECT_EQ(out.path(0), "/lustre/atlas2/p/u/pre");
  EXPECT_EQ(out.path(1), original.path(0));
}

}  // namespace
}  // namespace spider
