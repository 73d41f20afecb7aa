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

TEST(HashTest, NoTrivialCollisionsOnPathFamily) {
  std::set<std::uint64_t> seen;
  for (int p = 0; p < 100; ++p) {
    for (int f = 0; f < 100; ++f) {
      const std::string path = "/lustre/atlas2/p" + std::to_string(p) +
                               "/u/checkpoint." + std::to_string(f);
      seen.insert(hash_bytes(path));
    }
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashTest, ShardDistributionIsBalanced) {
  constexpr int kShards = 16;
  int counts[kShards] = {};
  for (int i = 0; i < 16000; ++i) {
    const std::string s = "/proj/file." + std::to_string(i);
    ++counts[hash_bytes(s) % kShards];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
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
