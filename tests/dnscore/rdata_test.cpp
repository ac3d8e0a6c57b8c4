#include "dnscore/rdata.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace recwild::dns {
namespace {

/// Encodes rdata and decodes it back, checking equality.
Rdata round_trip(const Rdata& in) {
  WireWriter w;
  encode_rdata(w, in);
  WireReader r{w.data()};
  return decode_rdata(r, rdata_type(in), w.size());
}

TEST(Rdata, TypeMapping) {
  EXPECT_EQ(rdata_type(ARdata{}), RRType::A);
  EXPECT_EQ(rdata_type(AaaaRdata{}), RRType::AAAA);
  EXPECT_EQ(rdata_type(NsRdata{}), RRType::NS);
  EXPECT_EQ(rdata_type(CnameRdata{}), RRType::CNAME);
  EXPECT_EQ(rdata_type(SoaRdata{}), RRType::SOA);
  EXPECT_EQ(rdata_type(MxRdata{}), RRType::MX);
  EXPECT_EQ(rdata_type(TxtRdata{}), RRType::TXT);
  EXPECT_EQ(rdata_type(SrvRdata{}), RRType::SRV);
  EXPECT_EQ(rdata_type(OptRdata{}), RRType::OPT);
  EXPECT_EQ(rdata_type(CaaRdata{}), RRType::CAA);
  EXPECT_EQ(rdata_type(PtrRdata{}), RRType::PTR);
  EXPECT_EQ(rdata_type(RawRdata{999, {}}), static_cast<RRType>(999));
}

TEST(Rdata, ARoundTrip) {
  const Rdata in = ARdata{net::IpAddress::from_octets(192, 0, 2, 1)};
  EXPECT_EQ(round_trip(in), in);
}

TEST(Rdata, AWrongLengthRejected) {
  WireWriter w;
  w.u16(5);
  WireReader r{w.data()};
  EXPECT_THROW(decode_rdata(r, RRType::A, 2), WireError);
}

TEST(Rdata, AaaaRoundTrip) {
  AaaaRdata v;
  for (std::size_t i = 0; i < 16; ++i) {
    v.address[i] = static_cast<std::uint8_t>(i * 7);
  }
  EXPECT_EQ(round_trip(Rdata{v}), Rdata{v});
}

TEST(Rdata, NsCnamePtrRoundTrip) {
  EXPECT_EQ(round_trip(NsRdata{Name::parse("ns1.example.nl")}),
            Rdata{NsRdata{Name::parse("ns1.example.nl")}});
  EXPECT_EQ(round_trip(CnameRdata{Name::parse("www.example.nl")}),
            Rdata{CnameRdata{Name::parse("www.example.nl")}});
  EXPECT_EQ(round_trip(PtrRdata{Name::parse("host.example.nl")}),
            Rdata{PtrRdata{Name::parse("host.example.nl")}});
}

TEST(Rdata, SoaRoundTrip) {
  SoaRdata soa;
  soa.mname = Name::parse("ns1.dns.nl");
  soa.rname = Name::parse("hostmaster.dns.nl");
  soa.serial = 2017041201;
  soa.refresh = 14400;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = 300;
  EXPECT_EQ(round_trip(Rdata{soa}), Rdata{soa});
}

TEST(Rdata, MxRoundTrip) {
  const MxRdata mx{10, Name::parse("mail.example.nl")};
  EXPECT_EQ(round_trip(Rdata{mx}), Rdata{mx});
}

TEST(Rdata, TxtSingleString) {
  const TxtRdata txt{{"FRA"}};
  EXPECT_EQ(round_trip(Rdata{txt}), Rdata{txt});
}

TEST(Rdata, TxtMultipleStrings) {
  const TxtRdata txt{{"first", "second", ""}};
  EXPECT_EQ(round_trip(Rdata{txt}), Rdata{txt});
}

// Flat TXT RDATA must not grow the variant past SoaRdata's size.
static_assert(sizeof(Rdata) <= 128);

TEST(TxtRdata, StringsKeepOrderAndBytes) {
  const TxtRdata txt{{"first", "second", "", "third"}};
  EXPECT_EQ(txt.strings(),
            (std::vector<std::string>{"first", "second", "", "third"}));
  std::vector<std::string_view> seen(txt.begin(), txt.end());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[1], "second");
  EXPECT_TRUE(seen[2].empty());
  // Wire form: each string as a length octet and its bytes.
  EXPECT_EQ(txt.wire().size(), 6u + 7u + 1u + 6u);
  EXPECT_EQ(txt.wire()[0], 5u);
}

TEST(TxtRdata, EmptyAndMaximalStringsRoundTrip) {
  const std::string max(255, 'm');
  const TxtRdata txt{{"", max}};
  EXPECT_EQ(txt.strings(), (std::vector<std::string>{"", max}));
  EXPECT_EQ(round_trip(Rdata{txt}), Rdata{txt});
  TxtRdata too_long;
  EXPECT_THROW(too_long.append(std::string(256, 'x')), std::invalid_argument);
  EXPECT_EQ(too_long.strings().size(), 0u);
}

TEST(TxtRdata, NoStringsIsEmptyRdata) {
  const TxtRdata none;
  EXPECT_EQ(none.strings().size(), 0u);
  EXPECT_TRUE(none.wire().empty());
  EXPECT_EQ(rdata_to_string(none), "");
  EXPECT_EQ(round_trip(Rdata{none}), Rdata{none});
}

TEST(TxtRdata, PastInlineCapacitySpillsOnce) {
  const std::string a(100, 'a');
  const std::string b(40, 'b');
  const std::uint64_t s0 = TxtRdata::heap_spills();
  TxtRdata small{{a}};
  EXPECT_FALSE(small.spilled());
  EXPECT_EQ(TxtRdata::heap_spills(), s0);
  TxtRdata big = small;
  big.append(b);  // 101 + 41 octets > kInlineCapacity
  EXPECT_TRUE(big.spilled());
  EXPECT_GT(big.wire().size(), TxtRdata::kInlineCapacity);
  EXPECT_EQ(big.strings(), (std::vector<std::string>{a, b}));
  EXPECT_EQ(round_trip(Rdata{big}), Rdata{big});
  const std::uint64_t s1 = TxtRdata::heap_spills();
  TxtRdata copy = big;  // a copy allocates its own block
  EXPECT_EQ(TxtRdata::heap_spills(), s1 + 1);
  TxtRdata moved = std::move(copy);  // a move takes it over
  EXPECT_EQ(TxtRdata::heap_spills(), s1 + 1);
  EXPECT_EQ(moved, big);
  EXPECT_EQ(copy.strings().size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(TxtRdata, EqualityComparesBytesCaseSensitively) {
  EXPECT_EQ((TxtRdata{{"FRA"}}), (TxtRdata{{"FRA"}}));
  EXPECT_NE((TxtRdata{{"FRA"}}), (TxtRdata{{"fra"}}));
  EXPECT_NE((TxtRdata{{"ab"}}), (TxtRdata{{"a", "b"}}));
  EXPECT_NE((TxtRdata{{"a"}}), (TxtRdata{{"a", ""}}));
  const TxtRdata long_a{{std::string(200, 'x')}};
  TxtRdata long_b{{std::string(199, 'x')}};
  EXPECT_NE(long_a, long_b);
  long_b = long_a;
  EXPECT_EQ(long_a, long_b);
}

TEST(TxtRdata, MalformedWireThrows) {
  // A length octet that runs past the RDATA: 5 announced, 3 present.
  const std::vector<std::uint8_t> wire{5, 'a', 'b', 'c'};
  EXPECT_THROW(TxtRdata::from_wire(wire), WireError);
  WireReader r{wire};
  EXPECT_THROW(decode_rdata(r, RRType::TXT, wire.size()), WireError);
}

TEST(Rdata, SrvRoundTrip) {
  const SrvRdata srv{1, 2, 5353, Name::parse("svc.example.nl")};
  EXPECT_EQ(round_trip(Rdata{srv}), Rdata{srv});
}

TEST(Rdata, OptOptionsRoundTrip) {
  OptRdata opt;
  opt.options.push_back({10, {1, 2, 3, 4}});  // e.g. COOKIE
  opt.options.push_back({8, {0x00, 0x01, 0x18, 0x00}});  // ECS-ish
  EXPECT_EQ(round_trip(Rdata{opt}), Rdata{opt});
}

TEST(Rdata, CaaRoundTrip) {
  const CaaRdata caa{128, "issue", "letsencrypt.org"};
  EXPECT_EQ(round_trip(Rdata{caa}), Rdata{caa});
}

TEST(Rdata, UnknownTypeRoundTripsRaw) {
  const RawRdata raw{4242, {9, 8, 7}};
  WireWriter w;
  encode_rdata(w, Rdata{raw});
  WireReader r{w.data()};
  const Rdata back = decode_rdata(r, static_cast<RRType>(4242), 3);
  EXPECT_EQ(back, Rdata{raw});
}

TEST(Rdata, LengthMismatchDetected) {
  // NS rdata with trailing junk inside declared rdlength.
  WireWriter w;
  w.name(Name::parse("ns.example.nl"), false);
  w.u8(0xff);
  WireReader r{w.data()};
  EXPECT_THROW(decode_rdata(r, RRType::NS, w.size()), WireError);
}

TEST(Rdata, PresentationFormats) {
  EXPECT_EQ(rdata_to_string(ARdata{net::IpAddress::from_octets(10, 1, 2, 3)}),
            "10.1.2.3");
  EXPECT_EQ(rdata_to_string(MxRdata{5, Name::parse("mx.nl")}), "5 mx.nl.");
  EXPECT_EQ(rdata_to_string(TxtRdata{{"a", "b"}}), "\"a\" \"b\"");
  EXPECT_EQ(rdata_to_string(NsRdata{Name::parse("ns.nl")}), "ns.nl.");
  AaaaRdata v6;
  v6.address[15] = 1;
  EXPECT_EQ(rdata_to_string(v6), "0:0:0:0:0:0:0:1");
}

}  // namespace
}  // namespace recwild::dns
