#include "dnscore/wire.hpp"

#include <gtest/gtest.h>

namespace recwild::dns {
namespace {

TEST(WireWriter, IntegersAreBigEndian) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 7u);
  EXPECT_EQ(d[0], 0xab);
  EXPECT_EQ(d[1], 0x12);
  EXPECT_EQ(d[2], 0x34);
  EXPECT_EQ(d[3], 0xde);
  EXPECT_EQ(d[4], 0xad);
  EXPECT_EQ(d[5], 0xbe);
  EXPECT_EQ(d[6], 0xef);
}

TEST(WireReader, IntegersRoundTrip) {
  WireWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(123456789);
  WireReader r{w.data()};
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 123456789u);
  EXPECT_TRUE(r.at_end());
}

TEST(WireReader, TruncatedThrows) {
  WireWriter w;
  w.u8(1);
  WireReader r{w.data()};
  EXPECT_THROW(r.u16(), WireError);
}

TEST(WireReader, SeekAndOffset) {
  WireWriter w;
  w.u32(0x01020304);
  WireReader r{w.data()};
  r.skip(2);
  EXPECT_EQ(r.offset(), 2u);
  EXPECT_EQ(r.u8(), 3);
  r.seek(0);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW(r.seek(100), WireError);
}

TEST(WireName, SimpleRoundTrip) {
  WireWriter w;
  const Name n = Name::parse("www.example.nl");
  w.name(n);
  // 3www7example2nl0 = 4+8+3+1 = 16 bytes.
  EXPECT_EQ(w.size(), 16u);
  WireReader r{w.data()};
  EXPECT_EQ(r.name(), n);
  EXPECT_TRUE(r.at_end());
}

TEST(WireName, RootIsSingleZeroByte) {
  WireWriter w;
  w.name(Name{});
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.data()[0], 0);
  WireReader r{w.data()};
  EXPECT_TRUE(r.name().is_root());
}

TEST(WireName, CompressionReusesSuffix) {
  WireWriter w;
  w.name(Name::parse("www.example.nl"));
  const std::size_t first = w.size();
  w.name(Name::parse("mail.example.nl"));
  // Second name: 4mail + 2-byte pointer = 7 bytes.
  EXPECT_EQ(w.size() - first, 7u);

  WireReader r{w.data()};
  EXPECT_EQ(r.name(), Name::parse("www.example.nl"));
  EXPECT_EQ(r.name(), Name::parse("mail.example.nl"));
}

TEST(WireName, IdenticalNameBecomesPurePointer) {
  WireWriter w;
  w.name(Name::parse("example.nl"));
  const std::size_t first = w.size();
  w.name(Name::parse("example.nl"));
  EXPECT_EQ(w.size() - first, 2u);  // just a pointer
  WireReader r{w.data()};
  EXPECT_EQ(r.name(), r.name());
}

TEST(WireName, CompressionIsCaseInsensitive) {
  WireWriter w;
  w.name(Name::parse("Example.NL"));
  const std::size_t first = w.size();
  w.name(Name::parse("www.example.nl"));
  EXPECT_EQ(w.size() - first, 4 + 2u);  // len+www + 2-byte ptr
}

TEST(WireName, NoCompressFlagWritesFull) {
  WireWriter w;
  w.name(Name::parse("example.nl"));
  const std::size_t first = w.size();
  w.name(Name::parse("example.nl"), /*compress=*/false);
  EXPECT_EQ(w.size() - first, 12u);  // full encoding again
}

TEST(WireName, ManyLabelNameGrowsTableMidNameSafely) {
  // Regression: a single name with more than 32 labels makes the
  // compression table grow while that name is being written. Offsets for
  // the in-progress name must not be visible to the rehash (they point
  // at bytes that do not exist yet); publication is deferred until the
  // terminator is written.
  std::vector<std::string> labels;
  for (int i = 0; i < 60; ++i) labels.push_back("l" + std::to_string(i));
  const Name big = Name::from_labels(labels);

  WireWriter w;
  w.name(big);
  const std::size_t first = w.size();
  // The whole name was recorded: a repeat is a pure 2-byte pointer.
  w.name(big);
  EXPECT_EQ(w.size() - first, 2u);
  // So is any suffix of it.
  const Name tail = Name::from_labels(
      {labels.begin() + 30, labels.end()});
  const std::size_t second = w.size();
  w.name(tail);
  EXPECT_EQ(w.size() - second, 2u);

  WireReader r{w.data()};
  EXPECT_EQ(r.name(), big);
  EXPECT_EQ(r.name(), big);
  EXPECT_EQ(r.name(), tail);
  EXPECT_TRUE(r.at_end());
}

TEST(WireName, ConsecutiveEqualLabelsCompressCorrectly) {
  // Regression: equal adjacent labels give several suffixes of one name
  // identical leading bytes; a probe-chain collision during the name's own
  // encoding must not match a suffix of the name being written.
  const Name deep = Name::parse("a.a.a.a.a.nl");
  WireWriter w;
  w.name(deep);
  const std::size_t first = w.size();
  w.name(Name::parse("a.a.nl"));
  EXPECT_EQ(w.size() - first, 2u);  // suffix already on the wire: pointer
  WireReader r{w.data()};
  EXPECT_EQ(r.name(), deep);
  EXPECT_EQ(r.name(), Name::parse("a.a.nl"));
}

TEST(WireName, SuffixesPublishedWhenNameEndsInPointer) {
  // A name that terminates in a compression pointer still records its own
  // fresh labels, so later names can point at them.
  WireWriter w;
  w.name(Name::parse("example.nl"));
  w.name(Name::parse("www.example.nl"));  // ends in a pointer
  const std::size_t first = w.size();
  w.name(Name::parse("www.example.nl"));
  EXPECT_EQ(w.size() - first, 2u);  // "www" suffix was published
  WireReader r{w.data()};
  EXPECT_EQ(r.name(), Name::parse("example.nl"));
  EXPECT_EQ(r.name(), Name::parse("www.example.nl"));
  EXPECT_EQ(r.name(), Name::parse("www.example.nl"));
}

TEST(WireName, PointerLoopRejected) {
  // A pointer at offset 0 pointing to itself.
  const std::vector<std::uint8_t> evil{0xc0, 0x00};
  WireReader r{evil};
  EXPECT_THROW(r.name(), WireError);
}

TEST(WireName, MutualPointerLoopRejected) {
  // Offset 0 -> 2, offset 2 -> 0.
  const std::vector<std::uint8_t> evil{0xc0, 0x02, 0xc0, 0x00};
  WireReader r{evil};
  EXPECT_THROW(r.name(), WireError);
}

TEST(WireName, ForwardPointerRejected) {
  // Pointer to a later offset (only backwards references are legal here).
  const std::vector<std::uint8_t> evil{0xc0, 0x05, 0, 0, 0, 1, 'a', 0};
  WireReader r{evil};
  EXPECT_THROW(r.name(), WireError);
}

TEST(WireName, TruncatedLabelRejected) {
  const std::vector<std::uint8_t> evil{5, 'a', 'b'};
  WireReader r{evil};
  EXPECT_THROW(r.name(), WireError);
}

TEST(WireName, MissingTerminatorRejected) {
  const std::vector<std::uint8_t> evil{1, 'a'};
  WireReader r{evil};
  EXPECT_THROW(r.name(), WireError);
}

TEST(WireName, ReservedLabelTypeRejected) {
  const std::vector<std::uint8_t> evil{0x80, 'a', 0};
  WireReader r{evil};
  EXPECT_THROW(r.name(), WireError);
}

TEST(WireName, ReaderPositionAfterPointerIsAfterPointer) {
  WireWriter w;
  w.name(Name::parse("a.nl"));
  w.name(Name::parse("b.a.nl"));
  w.u16(0xbeef);
  WireReader r{w.data()};
  (void)r.name();
  (void)r.name();
  EXPECT_EQ(r.u16(), 0xbeef);
}

TEST(CharString, RoundTrip) {
  WireWriter w;
  w.char_string("hello");
  w.char_string("");
  WireReader r{w.data()};
  const auto read = [&r] {
    const std::span<const std::uint8_t> s = r.view(r.u8());
    return std::string(s.begin(), s.end());
  };
  EXPECT_EQ(read(), "hello");
  EXPECT_EQ(read(), "");
}

TEST(CharString, MaxLengthEnforced) {
  WireWriter w;
  EXPECT_NO_THROW(w.char_string(std::string(255, 'x')));
  EXPECT_THROW(w.char_string(std::string(256, 'x')), WireError);
}

TEST(PatchU16, OverwritesInPlace) {
  WireWriter w;
  w.u16(0);
  w.u8(9);
  w.patch_u16(0, 0x1234);
  WireReader r{w.data()};
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_THROW(w.patch_u16(2, 1), WireError);
}

TEST(WireReader, BytesAndRemaining) {
  WireWriter w;
  w.u32(0xa1b2c3d4);
  WireReader r{w.data()};
  EXPECT_EQ(r.remaining(), 4u);
  const auto b = r.bytes(4);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0xa1);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.bytes(1), WireError);
}

}  // namespace
}  // namespace recwild::dns
