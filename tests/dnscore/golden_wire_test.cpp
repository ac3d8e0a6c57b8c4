// Golden wire-format fixtures: byte-exact RFC 1035 messages assembled by
// hand (tests/dnscore/golden/generate_fixtures.py), independent of this
// repo's encoder. They pin the codec to the wire protocol itself — a codec
// bug cannot regenerate itself into these files.
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "dnscore/wire.hpp"

namespace recwild::dns {
namespace {

std::vector<std::uint8_t> load_fixture(const std::string& name) {
  const std::string path = std::string{RECWILD_GOLDEN_DIR} + "/" + name;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "missing golden fixture: " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(GoldenWire, CompressedNsReferralDecodes) {
  const auto wire = load_fixture("ns_referral_compressed.bin");
  ASSERT_EQ(wire.size(), 100u);
  const Message m = decode_message(wire);

  EXPECT_EQ(m.header.id, 0x1234);
  EXPECT_TRUE(m.header.qr);
  EXPECT_FALSE(m.header.aa);  // referral: parent is not authoritative
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.question().qname, Name::parse("www.example.nl"));
  EXPECT_EQ(m.question().qtype, RRType::A);

  EXPECT_TRUE(m.answers.empty());
  ASSERT_EQ(m.authorities.size(), 2u);
  const Name zone = Name::parse("example.nl");
  EXPECT_EQ(m.authorities[0].name, zone);
  EXPECT_EQ(m.authorities[1].name, zone);
  EXPECT_EQ(m.authorities[0].rdata().target(),
            Name::parse("ns1.example.nl"));
  EXPECT_EQ(m.authorities[1].rdata().target(),
            Name::parse("ns2.example.nl"));

  ASSERT_EQ(m.additionals.size(), 2u);
  EXPECT_EQ(m.additionals[0].name, Name::parse("ns1.example.nl"));
  EXPECT_EQ(m.additionals[0].rdata().a(),
            net::IpAddress::from_octets(10, 0, 0, 1));
  EXPECT_EQ(m.additionals[1].name, Name::parse("ns2.example.nl"));
  EXPECT_EQ(m.additionals[1].rdata().a(),
            net::IpAddress::from_octets(10, 0, 0, 2));
}

TEST(GoldenWire, CompressedNsReferralReencodesByteIdentical) {
  // The fixture uses textbook first-occurrence compression — exactly the
  // scheme the single-pass encoder implements. Re-encoding the decoded
  // message must reproduce the hand-assembled bytes bit for bit.
  const auto wire = load_fixture("ns_referral_compressed.bin");
  const Message m = decode_message(wire);
  const net::WireBuffer reencoded = encode_message(m);
  ASSERT_EQ(reencoded.size(), wire.size());
  EXPECT_TRUE(reencoded == wire);
}

TEST(GoldenWire, TruncatedUdpAnswer) {
  const auto wire = load_fixture("truncated_udp_answer.bin");
  const Message m = decode_message(wire);

  EXPECT_EQ(m.header.id, 0xBEEF);
  EXPECT_TRUE(m.header.qr);
  EXPECT_TRUE(m.header.tc);  // the TCP-retry trigger
  EXPECT_TRUE(m.header.rd);
  EXPECT_TRUE(m.header.ra);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.question().qname, Name::parse("big.example.nl"));
  EXPECT_EQ(m.question().qtype, RRType::TXT);
  EXPECT_TRUE(m.answers.empty());  // truncation elides the answer section
}

TEST(GoldenWire, NotifyMessage) {
  const auto wire = load_fixture("notify.bin");
  const Message m = decode_message(wire);

  EXPECT_EQ(m.header.id, 0x7A11);
  EXPECT_FALSE(m.header.qr);
  EXPECT_EQ(m.header.opcode, Opcode::Notify);
  EXPECT_TRUE(m.header.aa);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.question().qname, Name::parse("example.nl"));
  EXPECT_EQ(m.question().qtype, RRType::SOA);
}

TEST(GoldenWire, PointerLoopRejected) {
  // The question name is a compression pointer to itself. The decoder must
  // fail cleanly — no hang, no overread — like NSD rejecting garbage.
  const auto wire = load_fixture("pointer_loop.bin");
  EXPECT_THROW((void)decode_message(wire), WireError);
}

}  // namespace
}  // namespace recwild::dns
