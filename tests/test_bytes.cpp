#include "support/bytes.h"

#include <gtest/gtest.h>

namespace gb {
namespace {

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u8(0x11);
  w.u16(0x2233);
  w.u32(0x44556677);
  w.u64(0x8899aabbccddeeffull);
  const auto& buf = w.buffer();
  ASSERT_EQ(buf.size(), 15u);
  EXPECT_EQ(std::to_integer<int>(buf[0]), 0x11);
  EXPECT_EQ(std::to_integer<int>(buf[1]), 0x33);  // LE low byte first
  EXPECT_EQ(std::to_integer<int>(buf[2]), 0x22);
  EXPECT_EQ(std::to_integer<int>(buf[3]), 0x77);
  EXPECT_EQ(std::to_integer<int>(buf[7]), 0xff);
  EXPECT_EQ(std::to_integer<int>(buf[14]), 0x88);
}

TEST(ByteRoundTrip, AllWidths) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.str("hello\0world");  // string_view from literal stops at NUL
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(5), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteRoundTrip, EmbeddedNulsPreserved) {
  const std::string name("run\0hidden", 10);
  ByteWriter w;
  w.str(name);
  ByteReader r(w.view());
  EXPECT_EQ(r.str(10), name);
}

TEST(ByteWriter, AlignPadsToBoundary) {
  ByteWriter w;
  w.u8(1);
  w.align(8);
  EXPECT_EQ(w.size(), 8u);
  w.align(8);
  EXPECT_EQ(w.size(), 8u);  // already aligned: no-op
}

TEST(ByteWriter, PatchBackfillsEarlierBytes) {
  ByteWriter w;
  w.u32(0);
  w.u16(0);
  w.patch_u32(0, 0xcafebabe);
  w.patch_u16(4, 0x1234);
  ByteReader r(w.view());
  EXPECT_EQ(r.u32(), 0xcafebabeu);
  EXPECT_EQ(r.u16(), 0x1234);
}

TEST(ByteWriter, PatchOutOfRangeThrows) {
  ByteWriter w;
  w.u8(0);
  EXPECT_THROW(w.patch_u16(0, 1), ParseError);
  EXPECT_THROW(w.patch_u32(0, 1), ParseError);
}

TEST(ByteReader, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_THROW(r.u16(), ParseError);
  EXPECT_THROW(r.bytes(2), ParseError);
}

TEST(ByteReader, SeekAndSubspan) {
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(static_cast<std::uint8_t>(i));
  ByteReader r(w.view());
  r.seek(10);
  EXPECT_EQ(r.u8(), 10);
  const auto sub = r.subspan(4, 4);
  EXPECT_EQ(std::to_integer<int>(sub[0]), 4);
  EXPECT_THROW(r.seek(17), ParseError);
  EXPECT_THROW(r.subspan(14, 4), ParseError);
}

TEST(ByteReader, CountBoundedByRemaining) {
  ByteWriter w;
  w.u32(3);
  w.zeros(12);
  {
    ByteReader r(w.view());
    EXPECT_EQ(r.count(4), 3u);  // 3 x 4 == the 12 bytes left
    EXPECT_EQ(r.pos(), 4u);
  }
  {
    ByteReader r(w.view());
    EXPECT_THROW(r.count(5), ParseError);  // 3 x 5 > 12
  }

  ByteWriter huge;
  huge.u32(0xFFFFFFFFu);
  huge.zeros(8);
  ByteReader r(huge.view());
  // 0xFFFFFFFF x 8 must be compared without wrapping; so must a count
  // times an element size whose product exceeds 64 bits.
  EXPECT_THROW(r.count(8), ParseError);
  r.seek(0);
  EXPECT_THROW(r.count(std::size_t{1} << 62), ParseError);
}

TEST(ByteConversions, StringBytesRoundTrip) {
  const std::string s("a\0b\xff", 4);
  const auto b = to_bytes(s);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(to_string(b), s);
}

}  // namespace
}  // namespace gb
