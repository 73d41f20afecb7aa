// ScolGroupReader / ScolStreamWriter: the out-of-core ends of the codec.
// The reader must reproduce the eager decoder bit-for-bit — same rows,
// same projection behaviour, same salvage verdicts in the same order, same
// strict-mode error text — because the streaming study pipeline's gap and
// data-quality accounting rides on that equivalence. The writer must emit
// byte-identical images to the buffering encoder so a streamed series is
// indistinguishable from a materialized one.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scol_v1_image.h"
#include "snapshot/scol.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/prng.h"

namespace spider {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

SnapshotTable make_table(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  SnapshotTable t;
  std::string dir = "/lustre/proj";
  for (std::size_t i = 0; i < rows; ++i) {
    if (rng.uniform_u64(64) == 0) {
      dir = "/lustre/proj" + std::to_string(rng.uniform_u64(40)) + "/run" +
            std::to_string(rng.uniform_u64(9));
    }
    const bool is_dir = rng.uniform_u64(16) == 0;
    const std::string path =
        dir + "/f" + std::to_string(i) + (is_dir ? "" : ".dat");
    const std::int64_t mtime =
        1'400'000'000 + static_cast<std::int64_t>(rng.uniform_u64(100'000'000));
    std::vector<std::uint32_t> osts;
    const std::size_t stripes = rng.uniform_u64(4);
    for (std::size_t k = 0; k < stripes; ++k) {
      osts.push_back(static_cast<std::uint32_t>(rng.uniform_u64(1008)));
    }
    t.add(path, mtime + static_cast<std::int64_t>(rng.uniform_u64(10'000)),
          mtime, mtime, static_cast<std::uint32_t>(rng.uniform_u64(100)),
          static_cast<std::uint32_t>(rng.uniform_u64(40)),
          is_dir ? 040755u : 0100644u, 1'000'000 + i, osts);
  }
  return t;
}

void expect_tables_equal(const SnapshotTable& a, const SnapshotTable& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.file_count(), b.file_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.path(i), b.path(i)) << i;
    ASSERT_EQ(a.atime(i), b.atime(i)) << i;
    ASSERT_EQ(a.ctime(i), b.ctime(i)) << i;
    ASSERT_EQ(a.mtime(i), b.mtime(i)) << i;
    ASSERT_EQ(a.uid(i), b.uid(i)) << i;
    ASSERT_EQ(a.gid(i), b.gid(i)) << i;
    ASSERT_EQ(a.mode(i), b.mode(i)) << i;
    ASSERT_EQ(a.inode(i), b.inode(i)) << i;
    ASSERT_EQ(a.path_hash(i), b.path_hash(i)) << i;
    ASSERT_EQ(a.stripe_count(i), b.stripe_count(i)) << i;
  }
}

ScolOptions small_groups() {
  ScolOptions options;
  options.group_size = 100;
  return options;
}

TEST(ScolGroupReaderTest, GroupAtATimeEqualsEagerDecode) {
  const SnapshotTable table = make_table(1234, 1);
  const auto image = encode_scol(table, small_groups());

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, small_groups()).ok());
  EXPECT_EQ(reader.rows(), table.size());
  EXPECT_EQ(reader.group_count(), 13u);
  EXPECT_EQ(reader.group_rows(0), 100u);
  EXPECT_EQ(reader.group_rows(12), 34u);

  SnapshotTable streamed;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    ASSERT_TRUE(reader.decode_group(g, &streamed).ok()) << g;
  }
  expect_tables_equal(table, streamed);
}

TEST(ScolGroupReaderTest, GroupsDecodeIndependentlyAndRepeatedly) {
  const SnapshotTable table = make_table(500, 2);
  const auto image = encode_scol(table, small_groups());
  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, small_groups()).ok());

  // Decode out of order and twice; each call appends exactly that group.
  SnapshotTable g3;
  ASSERT_TRUE(reader.decode_group(3, &g3).ok());
  ASSERT_EQ(g3.size(), 100u);
  EXPECT_EQ(g3.path(0), table.path(300));
  SnapshotTable again;
  ASSERT_TRUE(reader.decode_group(3, &again).ok());
  expect_tables_equal(g3, again);
}

TEST(ScolGroupReaderTest, MappedFileRoundTrip) {
  const SnapshotTable table = make_table(800, 3);
  const std::string path = temp_path("spider_scol_stream_map.scol");
  ASSERT_TRUE(write_scol_file(table, path, small_groups()).ok());

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open(path, small_groups()).ok());
  SnapshotTable streamed;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    ASSERT_TRUE(reader.decode_group(g, &streamed).ok());
  }
  expect_tables_equal(table, streamed);
  std::remove(path.c_str());
}

TEST(ScolGroupReaderTest, ProjectionMatchesEagerDecode) {
  const SnapshotTable table = make_table(600, 4);
  const auto image = encode_scol(table, small_groups());

  ScolOptions projected = small_groups();
  projected.columns = kColMaskPaths | kColMaskAtime | kColMaskMode;

  SnapshotTable eager;
  ASSERT_TRUE(decode_scol(image, &eager, projected).ok());

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, projected).ok());
  SnapshotTable streamed;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    ASSERT_TRUE(reader.decode_group(g, &streamed).ok());
  }
  expect_tables_equal(eager, streamed);
  // Projection really dropped the unrequested columns.
  EXPECT_EQ(streamed.uid(0), 0u);
  EXPECT_EQ(streamed.inode(0), 0u);
}

TEST(ScolGroupReaderTest, MissingFileReportsNotFound) {
  ScolGroupReader reader;
  const Status s = reader.open(temp_path("spider_scol_stream_missing.scol"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_FALSE(reader.is_open());
}

TEST(ScolGroupReaderTest, HeaderDamageFailsOpenLikeEager) {
  const SnapshotTable table = make_table(300, 5);
  auto image = encode_scol(table, small_groups());
  image[3] ^= 0xff;  // magic
  ScolGroupReader reader;
  EXPECT_FALSE(reader.open_bytes(image, small_groups()).ok());
  SnapshotTable eager;
  EXPECT_FALSE(decode_scol(image, &eager, small_groups()).ok());
}

/// Flips one payload byte inside group `g` of `image`.
void corrupt_group(std::vector<std::uint8_t>& image, std::size_t g) {
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(image, &layout).ok());
  image[layout.group_begin[g] + layout.group_len[g] / 2] ^= 0x40;
}

TEST(ScolGroupReaderTest, StrictModeMatchesEagerErrorText) {
  const SnapshotTable table = make_table(700, 6);
  auto image = encode_scol(table, small_groups());
  corrupt_group(image, 4);

  SnapshotTable eager;
  const Status eager_status = decode_scol(image, &eager, small_groups());
  ASSERT_FALSE(eager_status.ok());

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, small_groups()).ok());
  SalvageReport report = reader.make_report();
  Status streamed_status;
  SnapshotTable streamed;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    Status s = reader.decode_group(g, &streamed);
    if (!s.ok()) {
      streamed_status = reader.dispose_failure(g, std::move(s), &report);
      break;
    }
    reader.note_success(g, &report);
  }
  ASSERT_FALSE(streamed_status.ok());
  EXPECT_EQ(streamed_status.to_string(), eager_status.to_string());
}

TEST(ScolGroupReaderTest, SalvageSweepReproducesEagerReport) {
  for (const CorruptGroupPolicy policy :
       {CorruptGroupPolicy::kSkip, CorruptGroupPolicy::kQuarantine}) {
    const SnapshotTable table = make_table(900, 7);
    auto image = encode_scol(table, small_groups());
    corrupt_group(image, 2);
    corrupt_group(image, 7);

    ScolOptions options = small_groups();
    options.on_corrupt_group = policy;

    SnapshotTable eager;
    SalvageReport eager_report;
    ASSERT_TRUE(decode_scol(image, &eager, options, &eager_report).ok());

    ScolGroupReader reader;
    ASSERT_TRUE(reader.open_bytes(image, options).ok());
    SalvageReport report = reader.make_report();
    SnapshotTable streamed;
    for (std::size_t g = 0; g < reader.group_count(); ++g) {
      Status s = reader.decode_group(g, &streamed);
      if (s.ok()) {
        reader.note_success(g, &report);
      } else {
        ASSERT_TRUE(reader.dispose_failure(g, std::move(s), &report).ok());
      }
    }
    expect_tables_equal(eager, streamed);
    EXPECT_EQ(report.summary(), eager_report.summary());
    EXPECT_EQ(report.groups_total, eager_report.groups_total);
    EXPECT_EQ(report.groups_lost, eager_report.groups_lost);
    EXPECT_EQ(report.rows_total, eager_report.rows_total);
    EXPECT_EQ(report.rows_lost, eager_report.rows_lost);
    EXPECT_EQ(report.rows_recovered, eager_report.rows_recovered);
    ASSERT_EQ(report.damage.size(), eager_report.damage.size());
    for (std::size_t i = 0; i < report.damage.size(); ++i) {
      EXPECT_EQ(report.damage[i].group, eager_report.damage[i].group);
      EXPECT_EQ(report.damage[i].rows, eager_report.damage[i].rows);
      EXPECT_EQ(report.damage[i].status.to_string(),
                eager_report.damage[i].status.to_string());
      EXPECT_EQ(report.damage[i].quarantined,
                eager_report.damage[i].quarantined);
    }
  }
}

TEST(ScolGroupReaderTest, TruncatedTailGroupsMatchEagerSalvage) {
  const SnapshotTable table = make_table(1000, 8);
  auto image = encode_scol(table, small_groups());
  image.resize(image.size() * 2 / 3);  // cut the payload tail

  ScolOptions options = small_groups();
  options.on_corrupt_group = CorruptGroupPolicy::kSkip;

  SnapshotTable eager;
  SalvageReport eager_report;
  ASSERT_TRUE(decode_scol(image, &eager, options, &eager_report).ok());

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, options).ok());
  SalvageReport report = reader.make_report();
  SnapshotTable streamed;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    Status s = reader.decode_group(g, &streamed);
    if (s.ok()) {
      reader.note_success(g, &report);
    } else {
      ASSERT_TRUE(reader.dispose_failure(g, std::move(s), &report).ok());
    }
  }
  expect_tables_equal(eager, streamed);
  EXPECT_EQ(report.summary(), eager_report.summary());
}

TEST(ScolGroupReaderTest, V1ImagePresentsAsOneGroup) {
  const SnapshotTable table = make_table(400, 9);
  const auto image = scol_v1_image(table);

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image, ScolOptions{}).ok());
  EXPECT_EQ(reader.group_count(), 1u);
  EXPECT_EQ(reader.rows(), table.size());
  EXPECT_EQ(reader.group_rows(0), table.size());
  SnapshotTable streamed;
  ASSERT_TRUE(reader.decode_group(0, &streamed).ok());
  expect_tables_equal(table, streamed);
}

// ---- scan_owners: the table-free row scan --------------------------------

struct OwnerRow {
  std::string path;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
};

/// What the scan and decode_group (under the scan's paths|uid|gid
/// projection) made of an image's groups.
struct ScanParity {
  bool opened = false;
  std::size_t groups_failed = 0;
};

/// Scans and decodes every group of `image` and checks that each verdict
/// (ok, code and message) is the same, that a passing group yields the
/// decoded (path, uid, gid) rows, and that a failing one yields none.
ScanParity expect_scan_matches_decode(const std::vector<std::uint8_t>& image,
                                      ScolOptions options,
                                      const std::string& what) {
  options.columns = kColMaskPaths | kColMaskUid | kColMaskGid;
  ScanParity parity;
  ScolGroupReader reader;
  if (!reader.open_bytes(image, options).ok()) return parity;
  parity.opened = true;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    SnapshotTable decoded;
    const Status decoded_status = reader.decode_group(g, &decoded);
    std::vector<OwnerRow> scanned;
    const Status scanned_status = reader.scan_owners(
        g, [&scanned](std::string_view path, std::uint32_t uid,
                      std::uint32_t gid) {
          scanned.push_back(OwnerRow{std::string(path), uid, gid});
        });
    EXPECT_EQ(scanned_status.ok(), decoded_status.ok()) << what << " g" << g;
    if (!decoded_status.ok()) {
      ++parity.groups_failed;
      EXPECT_EQ(scanned_status.code(), decoded_status.code())
          << what << " g" << g;
      EXPECT_EQ(scanned_status.message(), decoded_status.message())
          << what << " g" << g;
      EXPECT_TRUE(scanned.empty()) << what << " g" << g;
      continue;
    }
    EXPECT_EQ(scanned.size(), decoded.size()) << what << " g" << g;
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < scanned.size() && i < decoded.size(); ++i) {
      mismatched += scanned[i].path != decoded.path(i) ||
                    scanned[i].uid != decoded.uid(i) ||
                    scanned[i].gid != decoded.gid(i);
    }
    EXPECT_EQ(mismatched, 0u) << what << " g" << g;
  }
  return parity;
}

TEST(ScolGroupReaderTest, ScanOwnersMatchesDecodeOnIntactImages) {
  const SnapshotTable table = make_table(1000, 11);
  ScolOptions plain = small_groups();
  plain.front_code_paths = false;
  plain.rle_ids = false;
  for (const ScolOptions& options : {small_groups(), plain}) {
    const ScanParity parity = expect_scan_matches_decode(
        encode_scol(table, options), options, "intact");
    EXPECT_TRUE(parity.opened);
    EXPECT_EQ(parity.groups_failed, 0u);
  }
  const ScanParity v1 =
      expect_scan_matches_decode(scol_v1_image(table), {}, "intact v1");
  EXPECT_TRUE(v1.opened);
  EXPECT_EQ(v1.groups_failed, 0u);
}

TEST(ScolGroupReaderTest, ScanOwnersMatchesDecodeOnDamagedImages) {
  const SnapshotTable table = make_table(1000, 12);
  const std::vector<std::uint8_t> clean = encode_scol(table, small_groups());
  std::size_t opened = 0, failed = 0;
  for (const FaultKind kind :
       {FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kTornTail}) {
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
      std::vector<std::uint8_t> image = clean;
      FaultInjector injector(seed * 3 + static_cast<std::uint64_t>(kind));
      const FaultEvent event = injector.inject(kind, &image);
      const ScanParity parity = expect_scan_matches_decode(
          image, small_groups(), event.describe());
      opened += parity.opened ? 1 : 0;
      failed += parity.groups_failed;
    }
  }
  // The sweep must reach the group decoders, not only fail at open.
  EXPECT_GT(opened, 60u);
  EXPECT_GT(failed, 60u);
}

TEST(ScolGroupReaderTest, ScanOwnersMatchesDecodeOnCutDirectories) {
  const SnapshotTable table = make_table(1000, 13);
  const std::vector<std::uint8_t> clean = encode_scol(table, small_groups());
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(clean, &layout).ok());

  // Cut inside the directory: neither reader opens.
  std::vector<std::uint8_t> image(
      clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(
                                         layout.payload_start - 5));
  EXPECT_FALSE(expect_scan_matches_decode(image, small_groups(), "mid-dir")
                   .opened);

  // Cut right after it: every group runs past the image.
  image.assign(clean.begin(),
               clean.begin() +
                   static_cast<std::ptrdiff_t>(layout.payload_start));
  ScanParity parity =
      expect_scan_matches_decode(image, small_groups(), "after dir");
  EXPECT_TRUE(parity.opened);
  EXPECT_EQ(parity.groups_failed, layout.group_rows.size());

  // A directory that moves one row from group 2 to group 3 still sums to
  // the header's total, so it opens, and every checksum passes. Group 2
  // then reads one row short (a decoder need not consume its payload);
  // group 3 runs out of paths in its decoder.
  image = clean;
  const std::size_t dir = layout.payload_start - 16 * layout.group_rows.size();
  image[dir + 2 * 16] -= 1;
  image[dir + 3 * 16] += 1;
  parity = expect_scan_matches_decode(image, small_groups(), "moved row");
  EXPECT_TRUE(parity.opened);
  EXPECT_EQ(parity.groups_failed, 1u);
}

TEST(ScolGroupReaderTest, ScanOwnersMatchesDecodeOnDamagedV1Images) {
  const SnapshotTable table = make_table(600, 14);
  const std::vector<std::uint8_t> clean = scol_v1_image(table);
  std::size_t failed = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::vector<std::uint8_t> image = clean;
    FaultInjector injector(seed);
    const FaultEvent event = injector.bit_flip(&image);
    failed += expect_scan_matches_decode(image, {}, "v1 " + event.describe())
                  .groups_failed;
  }
  EXPECT_GT(failed, 20u);

  // A v1 image's only row count is its header's, so a wrong count passes
  // every checksum. Too few rows read a prefix; too many fail in the
  // column decoders.
  for (const std::uint64_t rows :
       {std::uint64_t{1}, std::uint64_t{599}, std::uint64_t{601},
        std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> image = clean;
    for (int byte = 0; byte < 8; ++byte) {
      image[8 + static_cast<std::size_t>(byte)] =
          static_cast<std::uint8_t>(rows >> (8 * byte));
    }
    const ScanParity parity = expect_scan_matches_decode(
        image, {}, "v1 rows " + std::to_string(rows));
    EXPECT_TRUE(parity.opened);
    EXPECT_EQ(parity.groups_failed, rows > table.size() ? 1u : 0u) << rows;
  }
}

TEST(ScolStreamWriterTest, ByteIdenticalToBufferedEncoder) {
  const SnapshotTable table = make_table(1234, 10);
  const std::string streamed_path = temp_path("spider_scol_streamw.scol");
  const std::string eager_path = temp_path("spider_scol_eagerw.scol");

  ASSERT_TRUE(write_scol_file(table, eager_path, small_groups()).ok());

  ScolStreamWriter writer;
  ASSERT_TRUE(writer.open(streamed_path, small_groups()).ok());
  for (std::size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(writer.add(table.row(i)).ok()) << i;
  }
  ASSERT_TRUE(writer.finish().ok());
  EXPECT_EQ(writer.rows_added(), table.size());

  std::vector<std::uint8_t> streamed_bytes, eager_bytes;
  ASSERT_TRUE(read_file(streamed_path, &streamed_bytes).ok());
  ASSERT_TRUE(read_file(eager_path, &eager_bytes).ok());
  EXPECT_EQ(streamed_bytes, eager_bytes);

  std::remove(streamed_path.c_str());
  std::remove(eager_path.c_str());
}

TEST(ScolStreamWriterTest, ByteIdenticalAcrossEncodingKnobs) {
  const SnapshotTable table = make_table(350, 11);
  for (int knob = 0; knob < 4; ++knob) {
    ScolOptions options = small_groups();
    options.front_code_paths = knob != 0;
    options.delta_timestamps = knob != 1;
    options.rle_ids = knob != 2;
    options.delta_inodes = knob != 3;
    const auto eager = encode_scol(table, options);

    const std::string path = temp_path("spider_scol_knob.scol");
    ScolStreamWriter writer;
    ASSERT_TRUE(writer.open(path, options).ok());
    for (std::size_t i = 0; i < table.size(); ++i) {
      ASSERT_TRUE(writer.add(table.row(i)).ok());
    }
    ASSERT_TRUE(writer.finish().ok());
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(read_file(path, &got).ok());
    EXPECT_EQ(got, eager) << "knob " << knob;
    std::remove(path.c_str());
  }
}

TEST(ScolStreamWriterTest, EmptyTableWritesDecodableHeader) {
  const std::string path = temp_path("spider_scol_streamw_empty.scol");
  ScolStreamWriter writer;
  ASSERT_TRUE(writer.open(path, small_groups()).ok());
  ASSERT_TRUE(writer.finish().ok());
  SnapshotTable got;
  ASSERT_TRUE(read_scol_file(path, &got, small_groups()).ok());
  EXPECT_EQ(got.size(), 0u);
  std::remove(path.c_str());
}

TEST(ScolStreamWriterTest, AbortLeavesNoFiles) {
  const std::string dir = temp_path("spider_scol_streamw_abort");
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    ScolStreamWriter writer;
    ASSERT_TRUE(writer.open(dir + "/x.scol", small_groups()).ok());
    const SnapshotTable table = make_table(50, 12);
    for (std::size_t i = 0; i < table.size(); ++i) {
      ASSERT_TRUE(writer.add(table.row(i)).ok());
    }
    writer.abort();
  }
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
  fs::remove_all(dir);
}

TEST(ScolStreamWriterTest, LargeBatchRoundTripsThroughGroupReader) {
  const SnapshotTable table = make_table(5000, 13);
  const std::string path = temp_path("spider_scol_streamw_large.scol");
  ScolOptions options;
  options.group_size = 512;
  ScolStreamWriter writer;
  ASSERT_TRUE(writer.open(path, options).ok());
  for (std::size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(writer.add(table.row(i)).ok());
  }
  ASSERT_TRUE(writer.finish().ok());

  ScolGroupReader reader;
  ASSERT_TRUE(reader.open(path, options).ok());
  EXPECT_EQ(reader.group_count(), 10u);
  SnapshotTable streamed;
  for (std::size_t g = 0; g < reader.group_count(); ++g) {
    ASSERT_TRUE(reader.decode_group(g, &streamed).ok());
  }
  expect_tables_equal(table, streamed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spider
