#include "experiment/zones.hpp"

#include <gtest/gtest.h>

#include "authns/query_engine.hpp"

namespace recwild::experiment {
namespace {

ZoneSpec nl_spec() {
  ZoneSpec spec;
  spec.origin = dns::Name::parse("nl");
  spec.apex_ns = {
      {dns::Name::parse("ns1.dns.nl"), net::IpAddress{11}},
      {dns::Name::parse("ns2.dns.nl"), net::IpAddress{12}},
  };
  spec.delegations.push_back(Delegation{
      dns::Name::parse("ourtestdomain.nl"),
      {{dns::Name::parse("ns-fra.ourtestdomain.nl"), net::IpAddress{21}},
       {dns::Name::parse("ns-syd.ourtestdomain.nl"), net::IpAddress{22}}}});
  return spec;
}

TEST(BuildZone, ProducesValidZone) {
  const auto zone = build_zone(nl_spec());
  EXPECT_TRUE(zone.validate().empty());
  EXPECT_TRUE(zone.soa().has_value());
}

TEST(BuildZone, ApexNsAndGlue) {
  const auto zone = build_zone(nl_spec());
  const auto* ns = zone.apex_ns();
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->size(), 2u);
  const auto glue = zone.glue_for(dns::Name::parse("ns1.dns.nl"));
  ASSERT_EQ(glue.size(), 1u);
  EXPECT_EQ(glue[0].rdata().a(), net::IpAddress{11});
}

TEST(BuildZone, DelegationsReferWithGlue) {
  const auto zone = build_zone(nl_spec());
  const authns::QueryEngine engine{zone};
  const auto result = engine.lookup(
      dns::Question{dns::Name::parse("xyz.ourtestdomain.nl"),
                    dns::RRType::TXT, dns::RRClass::IN});
  EXPECT_EQ(result.disposition, authns::Disposition::Referral);
  EXPECT_EQ(result.authorities.size(), 2u);
  EXPECT_EQ(result.additionals.size(), 2u);
}

TEST(BuildZone, WildcardTxtAnswersAnyLabel) {
  ZoneSpec spec;
  spec.origin = dns::Name::parse("ourtestdomain.nl");
  spec.apex_ns = {
      {dns::Name::parse("ns-fra.ourtestdomain.nl"), net::IpAddress{21}}};
  spec.wildcard_txt = "FRA";
  spec.txt_ttl = 5;
  const auto zone = build_zone(spec);
  const authns::QueryEngine engine{zone};
  const auto result = engine.lookup(
      dns::Question{dns::Name::parse("q123x7.ourtestdomain.nl"),
                    dns::RRType::TXT, dns::RRClass::IN});
  EXPECT_EQ(result.disposition, authns::Disposition::Wildcard);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].ttl, 5u);  // the paper's cache-defeating TTL
  EXPECT_EQ(*result.answers[0].rdata().txt().begin(),
            "FRA");
}

TEST(BuildZone, OutOfZoneNsGetsNoGlue) {
  ZoneSpec spec;
  spec.origin = dns::Name::parse("example.nl");
  spec.apex_ns = {
      {dns::Name::parse("ns.other.org"), net::IpAddress{31}}};
  const auto zone = build_zone(spec);
  EXPECT_TRUE(zone.glue_for(dns::Name::parse("ns.other.org")).empty());
}

TEST(BuildZone, NegativeTtlConfigurable) {
  ZoneSpec spec = nl_spec();
  spec.negative_ttl = 42;
  const auto zone = build_zone(spec);
  EXPECT_EQ(zone.negative_ttl(), 42u);
}

TEST(BuildZone, RootZoneSpec) {
  ZoneSpec spec;
  spec.origin = dns::Name{};
  spec.apex_ns = {
      {dns::Name::parse("a.root-servers.net"), net::IpAddress{1}}};
  spec.delegations.push_back(Delegation{
      dns::Name::parse("nl"),
      {{dns::Name::parse("ns1.dns.nl"), net::IpAddress{11}}}});
  const auto zone = build_zone(spec);
  EXPECT_TRUE(zone.validate().empty());
  const authns::QueryEngine engine{zone};
  const auto result = engine.lookup(dns::Question{
      dns::Name::parse("anything.nl"), dns::RRType::A, dns::RRClass::IN});
  EXPECT_EQ(result.disposition, authns::Disposition::Referral);
}

}  // namespace
}  // namespace recwild::experiment
