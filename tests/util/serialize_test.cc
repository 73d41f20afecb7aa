// Golden bytes for every StateWriter method: the checkpoint format
// (DESIGN.md §14) is whatever these methods append, so an encoding that
// drifts fails here before any checkpoint written by an older build stops
// resuming. Each case also reads its bytes back through StateReader.
#include "util/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace spider {
namespace {

using Bytes = std::vector<std::uint8_t>;

template <typename Write>
Bytes written(Write&& write) {
  Bytes out;
  StateWriter w(&out);
  write(w);
  return out;
}

TEST(StateWriterTest, U8) {
  EXPECT_EQ(written([](StateWriter& w) { w.u8(0xab); }), Bytes{0xab});
}

TEST(StateWriterTest, U32IsLittleEndian) {
  const Bytes b = written([](StateWriter& w) { w.u32(0x01020304u); });
  EXPECT_EQ(b, (Bytes{0x04, 0x03, 0x02, 0x01}));
  StateReader r(b);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, U64IsLittleEndian) {
  const Bytes b =
      written([](StateWriter& w) { w.u64(0x0102030405060708ull); });
  EXPECT_EQ(b, (Bytes{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  StateReader r(b);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, I64IsTwosComplement) {
  const Bytes b = written([](StateWriter& w) { w.i64(-2); });
  EXPECT_EQ(b, (Bytes{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  StateReader r(b);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, F64IsTheBitPattern) {
  // 1.5 = 0x3ff8000000000000.
  const Bytes b = written([](StateWriter& w) { w.f64(1.5); });
  EXPECT_EQ(b, (Bytes{0, 0, 0, 0, 0, 0, 0xf8, 0x3f}));
  StateReader r(b);
  EXPECT_EQ(r.f64(), 1.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, PodIsTheRawImage) {
  struct Pair {
    std::uint16_t a;
    std::uint16_t b;
  };
  const Pair v{0x0102, 0x0304};
  const Bytes b = written([&](StateWriter& w) { w.pod(v); });
  EXPECT_EQ(b, (Bytes{0x02, 0x01, 0x04, 0x03}));
  Pair back{};
  StateReader r(b);
  ASSERT_TRUE(r.pod(&back));
  EXPECT_EQ(back.a, v.a);
  EXPECT_EQ(back.b, v.b);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, VecIsCountThenElements) {
  const std::vector<std::uint16_t> v = {0x0102, 0x0304};
  const Bytes b = written([&](StateWriter& w) { w.vec(v); });
  EXPECT_EQ(b, (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x01, 0x04, 0x03}));
  std::vector<std::uint16_t> back;
  StateReader r(b);
  ASSERT_TRUE(r.vec(&back));
  EXPECT_EQ(back, v);
  EXPECT_TRUE(r.exhausted());

  const Bytes empty =
      written([](StateWriter& w) { w.vec(std::vector<std::uint64_t>{}); });
  EXPECT_EQ(empty, Bytes(8, 0));
}

TEST(StateWriterTest, Vec2IsCountThenEachVec) {
  const std::vector<std::vector<std::uint8_t>> v = {{7}, {}, {8, 9}};
  const Bytes b = written([&](StateWriter& w) { w.vec2(v); });
  EXPECT_EQ(b, (Bytes{3, 0, 0, 0, 0, 0, 0, 0,  //
                      1, 0, 0, 0, 0, 0, 0, 0, 7,  //
                      0, 0, 0, 0, 0, 0, 0, 0,  //
                      2, 0, 0, 0, 0, 0, 0, 0, 8, 9}));
  std::vector<std::vector<std::uint8_t>> back;
  StateReader r(b);
  ASSERT_TRUE(r.vec2(&back));
  EXPECT_EQ(back, v);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, BytesIsLengthThenBytes) {
  const Bytes payload = {0xde, 0xad};
  const Bytes b = written([&](StateWriter& w) { w.bytes(payload); });
  EXPECT_EQ(b, (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 0xde, 0xad}));
  Bytes back;
  StateReader r(b);
  ASSERT_TRUE(r.bytes(&back));
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(StateWriterTest, StrIsLengthThenCharacters) {
  const Bytes b = written([](StateWriter& w) { w.str("ab"); });
  EXPECT_EQ(b, (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}));
  std::string back;
  StateReader r(b);
  ASSERT_TRUE(r.str(&back));
  EXPECT_EQ(back, "ab");
  EXPECT_TRUE(r.exhausted());
}

// A checkpoint hands each analyzer a writer over an image that already
// holds earlier sections: every method appends behind them.
TEST(StateWriterTest, AppendsBehindExistingBytes) {
  Bytes out = {0xaa, 0xbb};
  StateWriter w(&out);
  w.u32(1);
  w.str("x");
  EXPECT_EQ(out, (Bytes{0xaa, 0xbb, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'x'}));
}

}  // namespace
}  // namespace spider
