// Tests for arena, hashing, tables, time, and CLI utilities.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "util/arena.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/table.h"
#include "util/timeutil.h"

namespace spider {
namespace {

TEST(StringArenaTest, InternReturnsStableEqualCopies) {
  StringArena arena(64);  // tiny blocks to force growth
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 100; ++i) {
    originals.push_back("/lustre/atlas2/proj" + std::to_string(i) +
                        "/user/file." + std::to_string(i));
  }
  for (const auto& s : originals) views.push_back(arena.intern(s));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
  EXPECT_GT(arena.bytes_used(), 0u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(StringArenaTest, OversizedStringsGetDedicatedBlocks) {
  StringArena arena(16);
  const std::string big(1000, 'x');
  const std::string_view v = arena.intern(big);
  EXPECT_EQ(v, big);
  // The current small block must survive an oversized allocation.
  const std::string_view a = arena.intern("aa");
  const std::string_view b = arena.intern(std::string(500, 'y'));
  const std::string_view c = arena.intern("cc");
  EXPECT_EQ(a, "aa");
  EXPECT_EQ(b, std::string(500, 'y'));
  EXPECT_EQ(c, "cc");
  // The first string opened the arena with a dedicated block; later
  // interns must not have landed in it.
  EXPECT_EQ(v, big);
}

TEST(StringArenaTest, AdoptedBlocksTakeNoInterns) {
  StringArena arena(64);
  auto block = std::make_unique_for_overwrite<char[]>(8);
  std::memcpy(block.get(), "adopted!", 8);
  const std::string_view adopted(block.get(), 8);
  arena.adopt(std::move(block), 8);
  EXPECT_EQ(arena.bytes_used(), 8u);
  for (int i = 0; i < 20; ++i) arena.intern("0123456789");
  EXPECT_EQ(adopted, "adopted!");

  StringArena other(64);
  const std::string_view kept = other.intern("kept");
  arena.absorb(std::move(other));
  for (int i = 0; i < 20; ++i) arena.intern("0123456789");
  EXPECT_EQ(kept, "kept");
  EXPECT_EQ(adopted, "adopted!");
  EXPECT_EQ(other.bytes_used(), 0u);
}

TEST(StringArenaTest, EmptyAndConcat) {
  StringArena arena;
  EXPECT_EQ(arena.intern(""), std::string_view{});
  EXPECT_EQ(arena.intern_concat("/a/b", "/c.txt"), "/a/b/c.txt");
  EXPECT_EQ(arena.intern_concat("", "x"), "x");
  EXPECT_EQ(arena.intern_concat("x", ""), "x");
}

TEST(HashTest, DeterministicAndSpread) {
  const std::uint64_t h1 = hash_bytes("/lustre/atlas2/cli101/u1/run/out.nc");
  EXPECT_EQ(h1, hash_bytes("/lustre/atlas2/cli101/u1/run/out.nc"));
  // One-character difference must change the hash.
  EXPECT_NE(h1, hash_bytes("/lustre/atlas2/cli101/u1/run/out.nd"));
  // Same content, different seed -> different hash.
  EXPECT_NE(h1, hash_bytes("/lustre/atlas2/cli101/u1/run/out.nc", 12345));
}

/// `n` bytes of printable text that never repeats a short period, so each
/// of hash_path's read patterns sees distinct words.
std::string hash_probe(std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<char>('!' + (i * 7 + i / 3) % 94);
  }
  return s;
}

// Known answers pin both functions. hash_bytes is part of the .scol,
// .sckpt and spill formats, so a change to it makes files on disk read as
// corrupt. hash_path keys every in-memory path table; a change to it must
// move checkpoint_hash_probe (checkpoint_test holds that side). The lengths
// cover each of hash_path's branches and their edges: empty, under 4,
// 4-16 bytes, the 16-byte steps and the 48-byte stripes.
TEST(HashTest, KnownAnswers) {
  struct Answer {
    std::size_t length;
    std::uint64_t path;
    std::uint64_t bytes;
  };
  const Answer answers[] = {
      {0, 0x93228a4de0eec5a2ULL, 0x48218226ff3cd4bfULL},
      {1, 0xe869f72d45e8bde9ULL, 0x8e406b17a56d46d9ULL},
      {3, 0x9b85d5e6d0787476ULL, 0xffdde292d0a24f3dULL},
      {4, 0xcf1201b50af81a1dULL, 0x7b6f41d3d31b0a55ULL},
      {8, 0x4f7b8beaf5e9af10ULL, 0x0035142b021b97f4ULL},
      {15, 0xe84ec61a70ca1f99ULL, 0xc3d6737da73a53d1ULL},
      {16, 0x3c5817b579c5e765ULL, 0x78bb5cf284b380f1ULL},
      {17, 0x15a19c1c222c6df2ULL, 0xef0408e3359b9d1eULL},
      {47, 0xef56e11b896a35e3ULL, 0xd60056e98d1aa83aULL},
      {48, 0xfccce9e668bfa9adULL, 0x797675252e92070cULL},
      {49, 0x11f48672c4751f99ULL, 0xb2692ef9f3fad3d2ULL},
      {96, 0x04484e5623e3f904ULL, 0x7c941477e127bab2ULL},
      {97, 0x5b5a9f75c1a70aa4ULL, 0x3e6b257797afd7d4ULL},
      {200, 0x13cc29ffae3b3850ULL, 0x51ef9c256427ce0dULL},
  };
  for (const Answer& a : answers) {
    const std::string s = hash_probe(a.length);
    EXPECT_EQ(hash_path(s), a.path) << "hash_path, length " << a.length;
    EXPECT_EQ(hash_bytes(s), a.bytes) << "hash_bytes, length " << a.length;
  }
}

// hash_path reads unaligned words at every offset: it must depend on the
// bytes alone, and every byte of the string must reach the result. Each
// copy ends its allocation, so a read past the string's last byte is an
// overflow that the ASan build reports.
TEST(HashTest, PathHashReadsEveryByteAtAnyAlignment) {
  const std::string base = hash_probe(200);
  for (std::size_t n = 0; n <= base.size(); ++n) {
    const std::string s = base.substr(0, n);
    const std::uint64_t h = hash_path(s);
    for (std::size_t shift = 0; shift < 8; ++shift) {
      const auto copy = std::make_unique<char[]>(shift + n);
      std::memcpy(copy.get() + shift, s.data(), n);
      ASSERT_EQ(hash_path(std::string_view(copy.get() + shift, n)), h) << n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::string flipped = s;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
      ASSERT_NE(hash_path(flipped), h) << "length " << n << ", byte " << i;
    }
  }
}

TEST(HashTest, NoTrivialCollisionsOnPathFamily) {
  std::set<std::uint64_t> seen;
  // hash_path's slot bits (low 16, as IdentityKeyMix uses them) and
  // partition bits (top 16, as radix and spill partitions use them) must
  // not collapse either.
  std::set<std::uint64_t> low, top;
  for (int p = 0; p < 100; ++p) {
    for (int f = 0; f < 100; ++f) {
      const std::string path = "/lustre/atlas2/p" + std::to_string(p) +
                               "/u/checkpoint." + std::to_string(f);
      const std::uint64_t h = hash_path(path);
      seen.insert(h);
      low.insert(h & 0xffff);
      top.insert(h >> 48);
    }
  }
  EXPECT_EQ(seen.size(), 10000u);
  // 10,000 keys over 65,536 values: about 9,300 distinct on average.
  EXPECT_GT(low.size(), 9000u);
  EXPECT_GT(top.size(), 9000u);
}

TEST(HashTest, ShardDistributionIsBalanced) {
  constexpr int kShards = 16;
  int low[kShards] = {};  // IdentityKeyMix's slot bits
  int top[kShards] = {};  // radix and spill partition bits
  for (int i = 0; i < 16000; ++i) {
    const std::string s = "/proj/file." + std::to_string(i);
    const std::uint64_t h = hash_path(s);
    ++low[h % kShards];
    ++top[h >> 60];
  }
  for (int k = 0; k < kShards; ++k) {
    EXPECT_GT(low[k], 800) << "low bits, shard " << k;
    EXPECT_LT(low[k], 1200) << "low bits, shard " << k;
    EXPECT_GT(top[k], 800) << "top bits, shard " << k;
    EXPECT_LT(top[k], 1200) << "top bits, shard " << k;
  }
}

TEST(AsciiTableTest, RendersAlignedCells) {
  AsciiTable t({"domain", "count"});
  t.add_row({"bip", "595564"});
  t.add_row({"cli", "211876"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| domain | "), std::string::npos);
  EXPECT_NE(out.find("| bip    | 595564 |"), std::string::npos);
  EXPECT_NE(out.find("| cli    | 211876 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTableTest, SeparatorAndShortRows) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"1"});  // short row padded
  t.add_separator();
  t.add_row({"2", "3", "4"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("+---"), std::string::npos);
}

TEST(FormattingTest, Numbers) {
  EXPECT_EQ(format_with_commas(0), "0");
  EXPECT_EQ(format_with_commas(999), "999");
  EXPECT_EQ(format_with_commas(1234567), "1,234,567");
  EXPECT_EQ(format_count(532), "532");
  EXPECT_EQ(format_count(1234), "1.23K");
  EXPECT_EQ(format_count(1234567), "1.23M");
  EXPECT_EQ(format_count(4069223934.0), "4.07B");
  EXPECT_EQ(format_percent(0.4215), "42.15%");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_cv(0.345), "0.345");
  EXPECT_EQ(format_cv(0.00234), "2.34e-03");
}

TEST(TimeTest, CivilRoundTrip) {
  // The study window endpoints and some awkward dates.
  for (const CivilDate d : {CivilDate{2015, 1, 5}, CivilDate{2016, 2, 29},
                            CivilDate{2016, 8, 29}, CivilDate{1970, 1, 1},
                            CivilDate{1999, 12, 31}, CivilDate{2000, 3, 1}}) {
    const std::int64_t epoch = epoch_from_civil(d);
    EXPECT_EQ(civil_from_epoch(epoch), d);
    EXPECT_EQ(civil_from_epoch(epoch + kSecondsPerDay - 1), d);
  }
}

TEST(TimeTest, KnownEpochValues) {
  EXPECT_EQ(epoch_from_civil({1970, 1, 1}), 0);
  EXPECT_EQ(epoch_from_civil({1970, 1, 2}), 86400);
  // 2015-01-05 00:00:00 UTC == 1420416000 (study start week).
  EXPECT_EQ(epoch_from_civil({2015, 1, 5}), 1420416000);
}

TEST(TimeTest, Formatting) {
  const std::int64_t t = epoch_from_civil({2015, 1, 26});
  EXPECT_EQ(date_tag(t), "20150126");
  EXPECT_EQ(date_iso(t), "2015-01-26");
  EXPECT_DOUBLE_EQ(seconds_to_days(kSecondsPerDay * 3), 3.0);
}

TEST(CliTest, ParsesAllFlagForms) {
  const char* argv[] = {"prog",      "pos1",   "--scale=0.01", "--weeks",
                        "72",        "--verbose", "--flag"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_double("scale", 1.0), 0.01);
  EXPECT_EQ(args.get_int("weeks", 0), 72);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_FALSE(args.get_bool("absent", false));
  EXPECT_EQ(args.get("absent", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.program(), "prog");
}

TEST(CliTest, BoolValueSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=0", "--c=on", "--d=false"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

}  // namespace
}  // namespace spider
