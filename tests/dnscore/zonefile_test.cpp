#include "dnscore/zonefile.hpp"

#include <gtest/gtest.h>

namespace recwild::dns {
namespace {

ZoneFileOptions opts(const char* origin = "example.nl",
                     Ttl default_ttl = 3600) {
  ZoneFileOptions o;
  o.origin = Name::parse(origin);
  o.default_ttl = default_ttl;
  return o;
}

TEST(ZoneFile, ParsesSimpleARecord) {
  const auto records =
      parse_zone_text("www 300 IN A 192.0.2.1\n", opts());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, Name::parse("www.example.nl"));
  EXPECT_EQ(records[0].ttl, 300u);
  EXPECT_EQ(records[0].type(), RRType::A);
  EXPECT_EQ(records[0].rdata().a().to_string(), "192.0.2.1");
}

TEST(ZoneFile, AbsoluteNamesNotQualified) {
  const auto records =
      parse_zone_text("host.other.org. IN A 192.0.2.1\n",
                      opts("example.nl"));
  // Owner outside origin is allowed at parser level (zone add rejects it).
  EXPECT_EQ(records[0].name, Name::parse("host.other.org"));
}

TEST(ZoneFile, AtSignMeansOrigin) {
  const auto records =
      parse_zone_text("@ IN NS ns1\n", opts("example.nl"));
  EXPECT_EQ(records[0].name, Name::parse("example.nl"));
  EXPECT_EQ(records[0].rdata().target(), Name::parse("ns1.example.nl"));
}

TEST(ZoneFile, OriginDirectiveChangesQualification) {
  const auto records = parse_zone_text(
      "$ORIGIN sub.example.nl.\nwww IN A 192.0.2.1\n", opts());
  EXPECT_EQ(records[0].name, Name::parse("www.sub.example.nl"));
}

TEST(ZoneFile, TtlDirectiveAndUnits) {
  const auto records = parse_zone_text(
      "$TTL 2h\nwww IN A 192.0.2.1\nmail 1d IN A 192.0.2.2\n", opts());
  EXPECT_EQ(records[0].ttl, 7200u);
  EXPECT_EQ(records[1].ttl, 86400u);
}

TEST(ZoneFile, DefaultTtlApplies) {
  const auto records =
      parse_zone_text("www IN A 192.0.2.1\n", opts("example.nl", 1234));
  EXPECT_EQ(records[0].ttl, 1234u);
}

TEST(ZoneFile, TtlAndClassInEitherOrder) {
  const auto a =
      parse_zone_text("www 300 IN A 192.0.2.1\n", opts());
  const auto b =
      parse_zone_text("www IN 300 A 192.0.2.1\n", opts());
  EXPECT_EQ(a[0], b[0]);
}

TEST(ZoneFile, OwnerInheritedFromPreviousLine) {
  const auto records = parse_zone_text(
      "www IN A 192.0.2.1\n"
      "    IN A 192.0.2.2\n",
      opts());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, records[1].name);
}

TEST(ZoneFile, CommentsIgnored) {
  const auto records = parse_zone_text(
      "; full line comment\n"
      "www IN A 192.0.2.1 ; trailing comment\n",
      opts());
  ASSERT_EQ(records.size(), 1u);
}

TEST(ZoneFile, ParenthesesJoinLines) {
  const auto records = parse_zone_text(
      "@ IN SOA ns1 hostmaster (\n"
      "    2017041201 ; serial\n"
      "    4h 1h ( 2w ) 300\n"
      ")\n",
      opts());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(rdata_to_string(records[0].rdata()),
            "ns1.example.nl. hostmaster.example.nl. 2017041201 14400 3600 "
            "1209600 300");
}

TEST(ZoneFile, QuotedTxtStrings) {
  const auto records = parse_zone_text(
      "info IN TXT \"hello world\" \"second; not a comment\"\n", opts());
  const auto txt = records[0].rdata().txt();
  const std::vector<std::string_view> strings(txt.begin(), txt.end());
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "hello world");
  EXPECT_EQ(strings[1], "second; not a comment");
}

TEST(ZoneFile, TxtRoundTripsThroughZoneText) {
  // Several strings, an empty one, a maximal one, and RDATA past a
  // record's inline capacity.
  const std::vector<ResourceRecord> records{
      {Name::parse("a.example.nl"), RRClass::IN, 300,
       TxtRdata{{"hello world", "", "x"}}},
      {Name::parse("b.example.nl"), RRClass::IN, 300,
       TxtRdata{{std::string(255, 'z'), "tail"}}},
  };
  ASSERT_TRUE(records[1].spilled());
  const auto parsed = parse_zone_text(to_zone_text(records), opts());
  EXPECT_EQ(parsed, records);
}

TEST(ZoneFile, TxtStringOver255OctetsRejected) {
  const std::string text = "t IN TXT \"" + std::string(256, 'x') + "\"\n";
  EXPECT_THROW(parse_zone_text(text, opts()), ZoneParseError);
}

TEST(ZoneFile, MxPreferenceParsed) {
  const auto records =
      parse_zone_text("@ IN MX 10 mail\n", opts());
  EXPECT_EQ(rdata_to_string(records[0].rdata()), "10 mail.example.nl.");
}

TEST(ZoneFile, SrvAndCaaAndAaaa) {
  const auto records = parse_zone_text(
      "_sip._tcp IN SRV 10 60 5060 sip\n"
      "@ IN CAA 0 issue \"ca.example.net\"\n"
      "v6 IN AAAA 2001:db8::1\n",
      opts());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(rdata_to_string(records[0].rdata()),
            "10 60 5060 sip.example.nl.");
  EXPECT_EQ(rdata_to_string(records[1].rdata()), "0 issue \"ca.example.net\"");
  const auto v6 = records[2].rdata().aaaa();
  EXPECT_EQ(v6[0], 0x20);
  EXPECT_EQ(v6[1], 0x01);
  EXPECT_EQ(v6[15], 0x01);
}

TEST(ZoneFile, WildcardOwnerAllowed) {
  const auto records =
      parse_zone_text("* 5 IN TXT \"FRA\"\n", opts("ourtestdomain.nl"));
  EXPECT_EQ(records[0].name, Name::parse("*.ourtestdomain.nl"));
  EXPECT_EQ(records[0].ttl, 5u);
}

TEST(ZoneFile, ErrorsCarryLineNumbers) {
  // Each bad second line: a field, RDATA past 65,535 octets (258 strings
  // of 255), a CAA tag past 255 octets, a malformed name.
  std::string txt = "t IN TXT";
  for (int i = 0; i < 258; ++i) txt += " \"" + std::string(255, 'x') + "\"";
  for (const std::string& bad :
       {std::string{"bad IN A not-an-ip"}, txt,
        "@ IN CAA 0 " + std::string(256, 't') + " \"v\"",
        std::string{"www IN CNAME a..b"}}) {
    try {
      parse_zone_text("www IN A 192.0.2.1\n" + bad + "\n", opts());
      ADD_FAILURE() << "expected ZoneParseError: " << bad.substr(0, 40);
    } catch (const ZoneParseError& e) {
      EXPECT_EQ(e.line(), 2u) << bad.substr(0, 40);
    }
  }
}

TEST(ZoneFile, RejectsMalformedInput) {
  EXPECT_THROW(parse_zone_text("www IN\n", opts()), ZoneParseError);
  EXPECT_THROW(parse_zone_text("www IN A\n", opts()), ZoneParseError);
  EXPECT_THROW(parse_zone_text("www IN A 1.2.3.4 extra\n", opts()),
               ZoneParseError);
  EXPECT_THROW(parse_zone_text("www IN MX abc mail\n", opts()),
               ZoneParseError);
  EXPECT_THROW(parse_zone_text("$BOGUS x\n", opts()), ZoneParseError);
  EXPECT_THROW(parse_zone_text("( www IN A 1.2.3.4\n", opts()),
               ZoneParseError);
  EXPECT_THROW(parse_zone_text(") \n", opts()), ZoneParseError);
  EXPECT_THROW(parse_zone_text("www IN TXT \"unterminated\n", opts()),
               ZoneParseError);
  EXPECT_THROW(parse_zone_text("    IN A 1.2.3.4\n", opts()),
               ZoneParseError);  // no previous owner
}

TEST(ZoneFile, BadIpv6Rejected) {
  EXPECT_THROW(parse_zone_text("v6 IN AAAA zz::1\n", opts()),
               ZoneParseError);
  EXPECT_THROW(parse_zone_text("v6 IN AAAA 1:2:3\n", opts()),
               ZoneParseError);
  EXPECT_THROW(parse_zone_text("v6 IN AAAA 1::2::3\n", opts()),
               ZoneParseError);
}

TEST(ZoneFile, Ipv6Forms) {
  const auto records = parse_zone_text(
      "a IN AAAA ::1\n"
      "b IN AAAA fe80::\n"
      "c IN AAAA 1:2:3:4:5:6:7:8\n",
      opts());
  EXPECT_EQ(records[0].rdata().aaaa()[15], 1);
  EXPECT_EQ(records[1].rdata().aaaa()[0], 0xfe);
  EXPECT_EQ(records[2].rdata().aaaa()[15], 8);
}

TEST(ZoneFile, ToZoneTextRoundTripsThroughParser) {
  const char* text =
      "@ 3600 IN SOA ns1.example.nl. hostmaster.example.nl. 1 7200 3600 "
      "1209600 300\n"
      "@ 3600 IN NS ns1\n"
      "ns1 3600 IN A 192.0.2.53\n"
      "www 60 IN A 192.0.2.80\n";
  const auto records = parse_zone_text(text, opts());
  const std::string rendered = to_zone_text(records);
  const auto reparsed = parse_zone_text(rendered, opts());
  EXPECT_EQ(records, reparsed);
}

TEST(ZoneFile, EmptyInputGivesNoRecords) {
  EXPECT_TRUE(parse_zone_text("", opts()).empty());
  EXPECT_TRUE(parse_zone_text("\n\n; nothing\n", opts()).empty());
}

}  // namespace
}  // namespace recwild::dns
