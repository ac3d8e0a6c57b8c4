#include "dnscore/types.hpp"

#include <gtest/gtest.h>

namespace recwild::dns {
namespace {

TEST(Types, RRTypeToString) {
  EXPECT_EQ(to_string(RRType::A), "A");
  EXPECT_EQ(to_string(RRType::NS), "NS");
  EXPECT_EQ(to_string(RRType::TXT), "TXT");
  EXPECT_EQ(to_string(RRType::AAAA), "AAAA");
  EXPECT_EQ(to_string(RRType::SOA), "SOA");
  EXPECT_EQ(to_string(static_cast<RRType>(9999)), "TYPE?");
}

TEST(Types, RRTypeFromStringRoundTrip) {
  for (const RRType t : {RRType::A, RRType::NS, RRType::CNAME, RRType::SOA,
                         RRType::PTR, RRType::MX, RRType::TXT, RRType::AAAA,
                         RRType::SRV, RRType::OPT, RRType::CAA,
                         RRType::ANY}) {
    const auto back = rrtype_from_string(to_string(t));
    ASSERT_TRUE(back.has_value()) << to_string(t);
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(rrtype_from_string("BOGUS").has_value());
  EXPECT_FALSE(rrtype_from_string("a").has_value());  // case-sensitive
}

TEST(Types, RRClassConversions) {
  EXPECT_EQ(to_string(RRClass::IN), "IN");
  EXPECT_EQ(to_string(RRClass::CH), "CH");
  EXPECT_EQ(rrclass_from_string("IN"), RRClass::IN);
  EXPECT_EQ(rrclass_from_string("CH"), RRClass::CH);
  EXPECT_EQ(rrclass_from_string("ANY"), RRClass::ANY);
  EXPECT_FALSE(rrclass_from_string("XX").has_value());
}

TEST(Types, OpcodeAndRcodeNames) {
  EXPECT_EQ(to_string(Opcode::Query), "QUERY");
  EXPECT_EQ(to_string(Opcode::Update), "UPDATE");
  EXPECT_EQ(to_string(Rcode::NoError), "NOERROR");
  EXPECT_EQ(to_string(Rcode::NxDomain), "NXDOMAIN");
  EXPECT_EQ(to_string(Rcode::ServFail), "SERVFAIL");
  EXPECT_EQ(to_string(Rcode::Refused), "REFUSED");
}

}  // namespace
}  // namespace recwild::dns
