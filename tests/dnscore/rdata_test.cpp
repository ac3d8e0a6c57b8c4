#include "dnscore/rdata.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dnscore/codec.hpp"

namespace recwild::dns {
namespace {

ResourceRecord record_of(const Rdata& rdata) {
  return ResourceRecord{Name::parse("x.example.nl"), RRClass::IN, 60, rdata};
}

/// A record of `rdata` sent through a message's encoder and decoder.
ResourceRecord round_trip(const Rdata& rdata) {
  Message m;
  m.answers.push_back(record_of(rdata));
  return decode_message(encode_message(m)).answers.at(0);
}

/// Decodes a message whose one answer has `type` and the RDATA octets
/// `rdata`, as they came off the wire.
Message decode_one(RRType type, const std::vector<std::uint8_t>& rdata) {
  std::vector<std::uint8_t> wire{0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0,
                                 0,  // owner: the root
                                 0, static_cast<std::uint8_t>(type), 0, 1,
                                 0, 0, 0, 60,
                                 0, static_cast<std::uint8_t>(rdata.size())};
  wire.insert(wire.end(), rdata.begin(), rdata.end());
  return decode_message(wire);
}

std::vector<std::uint8_t> bytes_of(RdataView rd) {
  return {rd.wire().begin(), rd.wire().end()};
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
  const ResourceRecord back = round_trip(in);
  EXPECT_EQ(back, record_of(in));
  EXPECT_EQ(back.rdata().a(), net::IpAddress::from_octets(192, 0, 2, 1));
}

TEST(Rdata, AWrongLengthRejected) {
  EXPECT_THROW(decode_one(RRType::A, {0, 5}), WireError);
}

TEST(Rdata, AaaaRoundTrip) {
  AaaaRdata v;
  for (std::size_t i = 0; i < 16; ++i) {
    v.address[i] = static_cast<std::uint8_t>(i * 7);
  }
  EXPECT_EQ(round_trip(v).rdata().aaaa(), v.address);
}

TEST(Rdata, NsCnamePtrRoundTrip) {
  EXPECT_EQ(round_trip(NsRdata{Name::parse("ns1.example.nl")}).rdata().target(),
            Name::parse("ns1.example.nl"));
  EXPECT_EQ(
      round_trip(CnameRdata{Name::parse("www.example.nl")}).rdata().target(),
      Name::parse("www.example.nl"));
  EXPECT_EQ(
      round_trip(PtrRdata{Name::parse("host.example.nl")}).rdata().target(),
      Name::parse("host.example.nl"));
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
  const ResourceRecord back = round_trip(soa);
  EXPECT_EQ(back, record_of(soa));
  EXPECT_EQ(rdata_to_string(back.rdata()),
            "ns1.dns.nl. hostmaster.dns.nl. 2017041201 14400 3600 1209600 "
            "300");
  EXPECT_EQ(back.rdata().soa_serial(), 2017041201u);
  EXPECT_EQ(back.rdata().soa_refresh(), 14400u);
  EXPECT_EQ(back.rdata().soa_retry(), 3600u);
  EXPECT_EQ(back.rdata().soa_minimum(), 300u);
}

TEST(Rdata, MxRoundTrip) {
  const MxRdata mx{10, Name::parse("mail.example.nl")};
  EXPECT_EQ(round_trip(mx), record_of(mx));
  EXPECT_EQ(rdata_to_string(round_trip(mx).rdata()), "10 mail.example.nl.");
}

TEST(Rdata, TxtSingleString) {
  const TxtRdata txt{{"FRA"}};
  EXPECT_EQ(round_trip(txt), record_of(txt));
  EXPECT_EQ(bytes_of(record_of(txt).rdata()),
            (std::vector<std::uint8_t>{3, 'F', 'R', 'A'}));
}

TEST(Rdata, TxtMultipleStrings) {
  const TxtRdata txt{{"first", "second", ""}};
  EXPECT_EQ(round_trip(txt), record_of(txt));
}

TEST(TxtRdata, StringsKeepOrderAndBytes) {
  const ResourceRecord rr = record_of(TxtRdata{{"first", "second", "", "third"}});
  const auto strings = rr.rdata().txt();
  std::vector<std::string_view> seen(strings.begin(), strings.end());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_EQ(seen[1], "second");
  EXPECT_TRUE(seen[2].empty());
  EXPECT_EQ(seen[3], "third");
  // Wire form: each string as a length octet and its bytes.
  EXPECT_EQ(rr.rdata().wire().size(), 6u + 7u + 1u + 6u);
  EXPECT_EQ(rr.rdata().wire()[0], 5u);
}

TEST(TxtRdata, EmptyAndMaximalStringsRoundTrip) {
  const std::string max(255, 'm');
  const TxtRdata txt{{"", max}};
  const ResourceRecord back = round_trip(txt);
  EXPECT_EQ(back, record_of(txt));
  const auto strings = back.rdata().txt();
  EXPECT_EQ(std::vector<std::string_view>(strings.begin(), strings.end()),
            (std::vector<std::string_view>{"", max}));
  EXPECT_THROW(record_of(TxtRdata{{std::string(256, 'x')}}), WireError);
}

TEST(TxtRdata, NoStringsIsEmptyRdata) {
  const ResourceRecord none = record_of(TxtRdata{});
  EXPECT_TRUE(none.rdata().wire().empty());
  EXPECT_EQ(none.rdata().txt().begin(), none.rdata().txt().end());
  EXPECT_EQ(rdata_to_string(none.rdata()), "");
  EXPECT_EQ(round_trip(TxtRdata{}), none);
}

TEST(TxtRdata, PastInlineCapacitySpillsOnce) {
  const std::string a(100, 'a');
  const std::string b(40, 'b');
  const std::uint64_t s0 = RecordRdata::heap_spills();
  const ResourceRecord small = record_of(TxtRdata{{a}});
  EXPECT_FALSE(small.spilled());
  EXPECT_EQ(RecordRdata::heap_spills(), s0);
  const ResourceRecord big = record_of(TxtRdata{{a, b}});  // 101 + 41 octets
  EXPECT_TRUE(big.spilled());
  EXPECT_GT(big.rdata().wire().size(), RecordRdata::kInlineCapacity);
  EXPECT_EQ(RecordRdata::heap_spills(), s0 + 1);
  EXPECT_EQ(round_trip(TxtRdata{{a, b}}), big);
  const std::uint64_t s1 = RecordRdata::heap_spills();
  ResourceRecord copy = big;  // a copy allocates its own block
  EXPECT_EQ(RecordRdata::heap_spills(), s1 + 1);
  const ResourceRecord moved = std::move(copy);  // a move takes it over
  EXPECT_EQ(RecordRdata::heap_spills(), s1 + 1);
  EXPECT_EQ(moved, big);
}

TEST(TxtRdata, EqualityComparesBytesCaseSensitively) {
  const auto txt = [](std::vector<std::string> strings) {
    return record_of(TxtRdata{std::move(strings)});
  };
  EXPECT_EQ(txt({"FRA"}), txt({"FRA"}));
  EXPECT_NE(txt({"FRA"}), txt({"fra"}));
  EXPECT_NE(txt({"ab"}), txt({"a", "b"}));
  EXPECT_NE(txt({"a"}), txt({"a", ""}));
  const ResourceRecord long_a = txt({std::string(200, 'x')});
  ResourceRecord long_b = txt({std::string(199, 'x')});
  EXPECT_NE(long_a, long_b);
  long_b = long_a;
  EXPECT_EQ(long_a, long_b);
}

TEST(TxtRdata, MalformedWireThrows) {
  // A length octet that runs past the RDATA: 5 announced, 3 present.
  EXPECT_THROW(decode_one(RRType::TXT, {5, 'a', 'b', 'c'}), WireError);
}

TEST(Rdata, NamesCompareCaseInsensitively) {
  EXPECT_EQ(record_of(NsRdata{Name::parse("NS1.Example.NL")}),
            record_of(NsRdata{Name::parse("ns1.example.nl")}));
  EXPECT_EQ(record_of(MxRdata{5, Name::parse("MX.nl")}),
            record_of(MxRdata{5, Name::parse("mx.nl")}));
  EXPECT_NE(record_of(MxRdata{5, Name::parse("mx.nl")}),
            record_of(MxRdata{6, Name::parse("mx.nl")}));
  // The presentation form keeps the case as written.
  EXPECT_EQ(rdata_to_string(
                record_of(NsRdata{Name::parse("NS1.Example.NL")}).rdata()),
            "NS1.Example.NL.");
}

TEST(Rdata, SrvRoundTrip) {
  const SrvRdata srv{1, 2, 5353, Name::parse("svc.example.nl")};
  EXPECT_EQ(round_trip(srv), record_of(srv));
  EXPECT_EQ(rdata_to_string(record_of(srv).rdata()), "1 2 5353 svc.example.nl.");
}

TEST(Rdata, OptOptionsRoundTrip) {
  OptRdata opt;
  opt.options.push_back({10, {1, 2, 3, 4}});  // e.g. COOKIE
  opt.options.push_back({8, {0x00, 0x01, 0x18, 0x00}});  // ECS-ish
  EXPECT_EQ(round_trip(opt), record_of(opt));
  EXPECT_EQ(rdata_to_string(record_of(opt).rdata()), "OPT(2 options)");
}

TEST(Rdata, CaaRoundTrip) {
  const CaaRdata caa{128, "issue", "letsencrypt.org"};
  EXPECT_EQ(round_trip(caa), record_of(caa));
  EXPECT_EQ(rdata_to_string(record_of(caa).rdata()),
            "128 issue \"letsencrypt.org\"");
}

TEST(Rdata, UnknownTypeRoundTripsRaw) {
  const RawRdata raw{4242, {9, 8, 7}};
  const ResourceRecord back = round_trip(raw);
  EXPECT_EQ(back.type(), static_cast<RRType>(4242));
  EXPECT_EQ(bytes_of(back.rdata()), raw.data);
  EXPECT_EQ(rdata_to_string(back.rdata()), "\\# 3");
  // Raw bytes never stand in for a type whose names the encoder compresses.
  EXPECT_THROW(record_of(RawRdata{2, {0}}), WireError);
}

TEST(Rdata, LengthMismatchDetected) {
  // NS rdata with trailing junk inside declared rdlength.
  std::vector<std::uint8_t> rdata{2, 'n', 's', 0};
  EXPECT_NO_THROW(decode_one(RRType::NS, rdata));
  rdata.push_back(0xff);
  EXPECT_THROW(decode_one(RRType::NS, rdata), WireError);
}

TEST(Rdata, PresentationFormats) {
  EXPECT_EQ(rdata_to_string(
                record_of(ARdata{net::IpAddress::from_octets(10, 1, 2, 3)})
                    .rdata()),
            "10.1.2.3");
  EXPECT_EQ(rdata_to_string(record_of(MxRdata{5, Name::parse("mx.nl")}).rdata()),
            "5 mx.nl.");
  EXPECT_EQ(rdata_to_string(record_of(TxtRdata{{"a", "b"}}).rdata()),
            "\"a\" \"b\"");
  EXPECT_EQ(rdata_to_string(record_of(NsRdata{Name::parse("ns.nl")}).rdata()),
            "ns.nl.");
  AaaaRdata v6;
  v6.address[15] = 1;
  EXPECT_EQ(rdata_to_string(record_of(v6).rdata()), "0:0:0:0:0:0:0:1");
}

}  // namespace
}  // namespace recwild::dns
