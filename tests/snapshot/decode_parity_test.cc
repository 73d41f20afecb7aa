// Bulk .scol decode parity: decode_group and decode_scol against a table
// built row by row with SnapshotTable::add from the same records, at pool
// widths {1, 2, 7, hardware}. The decode rebuilds a group's paths in
// stretches on the pool (every 8,192 rows and every 256 KB of path bytes)
// and derives each front-coded row's depth from the previous row's, so
// the cases here put stretch cuts inside deep directory chains, cut shared
// prefixes mid-component and at runs of slashes, and push depth past its
// 16-bit cap. Every column is compared, with the path bytes, path_hash,
// depth and file_count, and both tables must hold hash_path of each
// row's path in path_hash.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "scol_v1_image.h"
#include "snapshot/record.h"
#include "snapshot/scol.h"
#include "snapshot/table.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

std::vector<unsigned> pool_widths() {
  return {1, 2, 7, std::max(1u, std::thread::hardware_concurrency())};
}

RawRecord record(std::string path, std::uint64_t i) {
  RawRecord rec;
  rec.path = std::move(path);
  rec.mtime = 1'500'000'000 + static_cast<std::int64_t>(i * 37 % 100'000);
  rec.atime = rec.mtime + static_cast<std::int64_t>(i % 5'000);
  rec.ctime = rec.mtime - static_cast<std::int64_t>(i % 3);
  rec.uid = static_cast<std::uint32_t>(1000 + i / 50 % 20);
  rec.gid = static_cast<std::uint32_t>(2000 + i / 200 % 7);
  rec.mode = i % 9 == 0 ? (kModeDirectory | 0755) : (kModeRegular | 0644);
  rec.inode = 5'000'000 + i * 3;
  for (std::uint64_t k = 0; k < i % 4; ++k) {
    rec.osts.push_back(static_cast<std::uint32_t>((i * 7 + k * 13) % 1008));
  }
  return rec;
}

/// Deep directory chains: each row one level below the last, so a chain
/// of 800 rows holds about 1 MB of path bytes and the 256 KB stretch cuts
/// fall inside it. Ordinary rows sit before, between and after the chains.
std::vector<RawRecord> deep_chains() {
  std::vector<RawRecord> out;
  std::uint64_t i = 0;
  for (int chain = 0; chain < 2; ++chain) {
    for (int f = 0; f < 300; ++f) {
      out.push_back(record("/lustre/atlas2/proj" + std::to_string(chain) +
                               "/u/f" + std::to_string(f) + ".dat",
                           i++));
    }
    std::string path = "/lustre/atlas2/proj" + std::to_string(chain) + "/deep";
    for (int level = 0; level < 800; ++level) {
      path += "/d" + std::to_string(level % 10);
      out.push_back(record(path, i++));
    }
  }
  out.push_back(record("/lustre/atlas2/tail", i++));
  return out;
}

/// Shared prefixes that end mid-component, on a slash and inside runs of
/// slashes; empty paths, the root, relative paths; and a path deeper than
/// the 16-bit depth cap followed by rows that share part of it.
std::vector<RawRecord> awkward_paths() {
  const std::vector<std::string> paths = {
      "",        "",        "/",        "//",       "///a",    "///a/b",
      "/p/abc",  "/p/abd",  "/p/ab/c",  "/p/ab//",  "/p/ab//x", "/p",
      "p/q",     "pq",      "",         "/a//b///c/", "/a//b///c/d", "/a/"};
  std::vector<RawRecord> out;
  std::uint64_t i = 0;
  for (const std::string& p : paths) out.push_back(record(p, i++));
  std::string deep;
  for (int k = 0; k < 70'000; ++k) deep += "/x";
  out.push_back(record(deep, i++));
  out.push_back(record(deep + "/y", i++));
  out.push_back(record(deep.substr(0, deep.size() - 1) + "zz/w", i++));
  out.push_back(record(deep.substr(0, 1'001), i++));
  out.push_back(record("", i++));
  return out;
}

/// Random paths over {'/', 'a', 'b'}, each sharing a random prefix of the
/// one before, so front coding cuts them everywhere.
std::vector<RawRecord> random_paths(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RawRecord> out;
  std::string path;
  for (std::size_t i = 0; i < rows; ++i) {
    path.resize(rng.uniform_u64(path.size() + 1));
    const std::size_t grow = rng.uniform_u64(12);
    for (std::size_t k = 0; k < grow; ++k) {
      path += "/ab"[rng.uniform_u64(3)];
    }
    out.push_back(record(path, i));
  }
  return out;
}

/// Many short rows: several 8,192-row stretches per group.
std::vector<RawRecord> many_rows(std::size_t rows) {
  std::vector<RawRecord> out;
  for (std::size_t i = 0; i < rows; ++i) {
    out.push_back(record("/lustre/atlas2/p" + std::to_string(i / 1000) +
                             "/u/f" + std::to_string(i),
                         i));
  }
  return out;
}

/// What decoding `records` under projection `columns` must produce, built
/// row by row: columns outside the projection read back as zero/empty.
void add_rows(const std::vector<RawRecord>& records, ColumnMask columns,
              SnapshotTable* t) {
  if (columns & (kColMaskAtime | kColMaskCtime)) columns |= kColMaskMtime;
  const auto keep = [columns](ColumnMask bit, auto v) {
    return (columns & bit) ? v : decltype(v){};
  };
  for (const RawRecord& r : records) {
    t->add(keep(kColMaskPaths, std::string_view(r.path)),
           keep(kColMaskAtime, r.atime), keep(kColMaskCtime, r.ctime),
           keep(kColMaskMtime, r.mtime), keep(kColMaskUid, r.uid),
           keep(kColMaskGid, r.gid), keep(kColMaskMode, r.mode),
           keep(kColMaskInode, r.inode),
           (columns & kColMaskOsts) ? std::span<const std::uint32_t>(r.osts)
                                    : std::span<const std::uint32_t>());
  }
}

SnapshotTable table_of(const std::vector<RawRecord>& records,
                       ColumnMask columns = kColMaskAll) {
  SnapshotTable t;
  add_rows(records, columns, &t);
  return t;
}

void expect_same_table(const SnapshotTable& want, const SnapshotTable& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(want.file_count(), got.file_count()) << what;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool same =
        want.path(i) == got.path(i) && want.path_hash(i) == got.path_hash(i) &&
        want.depth(i) == got.depth(i) && want.atime(i) == got.atime(i) &&
        want.ctime(i) == got.ctime(i) && want.mtime(i) == got.mtime(i) &&
        want.uid(i) == got.uid(i) && want.gid(i) == got.gid(i) &&
        want.mode(i) == got.mode(i) && want.inode(i) == got.inode(i) &&
        std::ranges::equal(want.osts(i), got.osts(i)) &&
        want.path_hash(i) == hash_path(want.path(i)) &&
        got.path_hash(i) == hash_path(got.path(i));
    if (!same && bad++ < 3) ADD_FAILURE() << what << ": row " << i;
  }
  EXPECT_EQ(bad, 0u) << what;
}

/// Decodes `image` with decode_scol and group by group with decode_group,
/// at every pool width, into a copy of `prefix`; each result must equal
/// `want`.
void expect_decodes_to(const std::vector<std::uint8_t>& image,
                       const ScolOptions& options,
                       const std::vector<RawRecord>& prefix,
                       const SnapshotTable& want, const std::string& what) {
  for (const unsigned width : pool_widths()) {
    ThreadPool pool(width);
    const std::string at = what + " @" + std::to_string(width);

    SnapshotTable eager = table_of(prefix);
    const Status s = decode_scol(image, &eager, options, nullptr, &pool);
    ASSERT_TRUE(s.ok()) << at << ": " << s.to_string();
    expect_same_table(want, eager, at + " decode_scol");

    ScolGroupReader reader;
    ASSERT_TRUE(reader.open_bytes(image, options).ok()) << at;
    SnapshotTable grouped = table_of(prefix);
    for (std::size_t g = 0; g < reader.group_count(); ++g) {
      ASSERT_TRUE(reader.decode_group(g, &grouped, &pool).ok()) << at << g;
    }
    expect_same_table(want, grouped, at + " decode_group");
  }
}

/// Round trip of `records` through a v2 image under `options`.
void expect_round_trip(const std::vector<RawRecord>& records,
                       const ScolOptions& options, const std::string& what) {
  expect_decodes_to(encode_scol(table_of(records), options), options, {},
                    table_of(records, options.columns), what);
}

ScolOptions grouped(std::size_t group_size) {
  ScolOptions options;
  options.group_size = group_size;
  return options;
}

TEST(DecodeParityTest, DeepChainsCutInsideStretches) {
  const std::vector<RawRecord> records = deep_chains();
  expect_round_trip(records, ScolOptions{}, "one group");
  expect_round_trip(records, grouped(1000), "1000-row groups");
}

TEST(DecodeParityTest, AwkwardPathsAndTheDepthCap) {
  const std::vector<RawRecord> records = awkward_paths();
  expect_round_trip(records, ScolOptions{}, "one group");
  expect_round_trip(records, grouped(5), "5-row groups");
}

TEST(DecodeParityTest, RandomPrefixSharing) {
  expect_round_trip(random_paths(20'000, 3), ScolOptions{}, "one group");
  expect_round_trip(random_paths(3'000, 4), grouped(700), "700-row groups");
}

TEST(DecodeParityTest, ManyRowStretches) {
  expect_round_trip(many_rows(30'000), ScolOptions{}, "one group");
}

TEST(DecodeParityTest, EmptyPathsOnly) {
  std::vector<RawRecord> records;
  for (std::uint64_t i = 0; i < 500; ++i) records.push_back(record("", i));
  expect_round_trip(records, ScolOptions{}, "all empty");
}

TEST(DecodeParityTest, ZeroRowGroups) {
  // An image with no group at all.
  expect_round_trip({}, ScolOptions{}, "empty table");

  // A 0-row group (nine empty blocks) in front of an ordinary one.
  const std::vector<RawRecord> records = many_rows(300);
  const std::vector<std::uint8_t> one = encode_scol(table_of(records));
  ScolV2Layout layout;
  ASSERT_TRUE(parse_scol_v2_layout(one, &layout).ok());
  ASSERT_EQ(layout.group_rows.size(), 1u);
  // (column id, encoding) as the encoder writes them.
  const std::uint8_t blocks[9][2] = {{1, 1}, {4, 3}, {2, 4}, {3, 4}, {5, 6},
                                     {6, 6}, {7, 6}, {8, 3}, {9, 7}};
  std::vector<std::uint8_t> empty_group = {9};
  const std::uint64_t empty_sum = hash_bytes(std::string_view());
  for (const auto& [id, enc] : blocks) {
    empty_group.push_back(id);
    empty_group.push_back(enc);
    for (int b = 0; b < 8; ++b) empty_group.push_back(0);  // size 0
    for (int b = 0; b < 8; ++b) {
      empty_group.push_back(static_cast<std::uint8_t>(empty_sum >> (8 * b)));
    }
  }
  std::vector<std::uint8_t> image(one.begin(), one.begin() + 8);
  const auto put = [&image](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      image.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  put(records.size());
  put(layout.group_size);
  put(2);
  put(0);
  put(empty_group.size());
  put(layout.group_rows[0]);
  put(layout.group_len[0]);
  image.insert(image.end(), empty_group.begin(), empty_group.end());
  image.insert(image.end(),
               one.begin() + static_cast<std::ptrdiff_t>(layout.group_begin[0]),
               one.end());
  expect_decodes_to(image, ScolOptions{}, {}, table_of(records),
                    "0-row group first");
}

TEST(DecodeParityTest, PlainPathsAndV1Images) {
  ScolOptions plain;
  plain.front_code_paths = false;
  expect_round_trip(deep_chains(), plain, "front coding off");
  expect_round_trip(awkward_paths(), plain, "front coding off, awkward");

  const std::vector<RawRecord> records = deep_chains();
  expect_decodes_to(scol_v1_image(table_of(records)), ScolOptions{}, {},
                    table_of(records), "v1");
  expect_decodes_to(scol_v1_image(table_of(records), plain), ScolOptions{},
                    {}, table_of(records), "v1, front coding off");
}

TEST(DecodeParityTest, Projections) {
  const std::vector<RawRecord> records = deep_chains();
  for (const ColumnMask columns :
       {kColMaskMtime | kColMaskUid | kColMaskOsts,  // no paths
        kColMaskAtime,                               // mtime implied
        kColMaskPaths | kColMaskGid, kColMaskNone}) {
    ScolOptions options;
    options.columns = columns;
    expect_round_trip(records, options,
                      "columns " + std::to_string(columns));
  }
}

TEST(DecodeParityTest, NonEmptyDestination) {
  const std::vector<RawRecord> prefix = awkward_paths();
  const std::vector<RawRecord> records = deep_chains();
  SnapshotTable want = table_of(prefix);
  add_rows(records, kColMaskAll, &want);
  expect_decodes_to(encode_scol(table_of(records), grouped(1000)),
                    grouped(1000), prefix, want, "after awkward rows");
}

TEST(DecodeParityTest, AddsAfterADecodeLeaveDecodedPathsAlone) {
  const std::vector<RawRecord> records = deep_chains();
  const std::vector<RawRecord> more = random_paths(5'000, 9);
  SnapshotTable want = table_of(records);
  add_rows(more, kColMaskAll, &want);
  for (const unsigned width : pool_widths()) {
    ThreadPool pool(width);
    SnapshotTable t;
    ASSERT_TRUE(
        decode_scol(encode_scol(table_of(records)), &t, {}, nullptr, &pool)
            .ok());
    // Nothing may land in the decoded group's exact-size path block.
    add_rows(more, kColMaskAll, &t);
    expect_same_table(want, t, "adds @" + std::to_string(width));
  }
}

TEST(DecodeParityTest, FailingGroupLeavesDestinationUntouched) {
  // The last two rows share a uid, so a v1 header one row short passes the
  // path walk and the timestamp columns, then fails in the uid decoder on
  // a run that overflows the row count.
  std::vector<RawRecord> records = deep_chains();
  records[records.size() - 2].uid = records.back().uid;
  std::vector<std::uint8_t> image = scol_v1_image(table_of(records));
  const std::uint64_t short_rows = records.size() - 1;
  for (int b = 0; b < 8; ++b) {
    image[8 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(short_rows >> (8 * b));
  }
  const std::vector<RawRecord> prefix = awkward_paths();
  const SnapshotTable want = table_of(prefix);
  for (const unsigned width : pool_widths()) {
    ThreadPool pool(width);
    SnapshotTable eager = table_of(prefix);
    const Status s = decode_scol(image, &eager, {}, nullptr, &pool);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message(), "rle run overflows row count");
    expect_same_table(want, eager, "decode_scol @" + std::to_string(width));

    ScolGroupReader reader;
    ASSERT_TRUE(reader.open_bytes(image).ok());
    SnapshotTable grouped = table_of(prefix);
    EXPECT_EQ(reader.decode_group(0, &grouped, &pool).message(),
              "rle run overflows row count");
    expect_same_table(want, grouped, "decode_group @" + std::to_string(width));
    // The table still takes rows afterwards.
    add_rows(prefix, kColMaskAll, &grouped);
    EXPECT_EQ(grouped.size(), 2 * prefix.size());
    EXPECT_EQ(grouped.path(grouped.size() - 1), prefix.back().path);
  }
}

TEST(DecodeParityTest, RecycledStagingTableStaysWithinItsCapacity) {
  // The streaming reader clears one staging table per group and decodes
  // the next group into it: the refill must reuse the columns' capacity.
  const std::vector<std::uint8_t> image =
      encode_scol(table_of(deep_chains()), grouped(1000));
  ScolGroupReader reader;
  ASSERT_TRUE(reader.open_bytes(image).ok());
  SnapshotTable staging;
  ASSERT_TRUE(reader.decode_group(1, &staging).ok());
  const std::size_t first = staging.memory_bytes();
  for (int round = 0; round < 3; ++round) {
    staging.clear();
    ASSERT_TRUE(reader.decode_group(1, &staging).ok());
    EXPECT_EQ(staging.memory_bytes(), first) << round;
  }
}

}  // namespace
}  // namespace spider
