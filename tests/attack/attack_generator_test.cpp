#include "attack/generator.hpp"

#include <gtest/gtest.h>

namespace recwild::attack {
namespace {

NxnsZoneConfig sample_config() {
  NxnsZoneConfig cfg;
  cfg.attacker_domain = "atk.nl";
  cfg.victim_domain = "ourtestdomain.nl";
  cfg.chains = 3;
  cfg.fanout = 5;
  cfg.depth = 2;
  return cfg;
}

TEST(MakeNxnsZones, OneApexPlusOneZonePerIntermediateStep) {
  const NxnsZoneConfig cfg = sample_config();
  const auto zones = make_nxns_zones(
      cfg, dns::Name::parse("ns.atk.nl"), net::IpAddress{0x0a000001});
  // depth 2: the apex delegates step 1 of each chain, and each chain's
  // step-1 zone carries the final (glueless) delegation.
  ASSERT_EQ(zones.size(), 1u + 3u);
  EXPECT_EQ(zones[0].origin(), dns::Name::parse("atk.nl"));
  for (const auto& zone : zones) EXPECT_TRUE(zone.validate().empty());
}

TEST(MakeNxnsZones, ApexHasGlueAndInternalDelegationsStayGlued) {
  const NxnsZoneConfig cfg = sample_config();
  const auto zones = make_nxns_zones(
      cfg, dns::Name::parse("ns.atk.nl"), net::IpAddress{0x0a000001});
  const authns::Zone& apex = zones[0];
  // The apex nameserver is glued (in-bailiwick A record)...
  EXPECT_NE(apex.find(dns::Name::parse("ns.atk.nl"), dns::RRType::A),
            nullptr);
  // ...and every chain's first step delegates back to that same glued host,
  // keeping the walk inside attacker infrastructure until the last step.
  const auto* step1 = apex.find(dns::Name::parse("c0.atk.nl"),
                                dns::RRType::NS);
  ASSERT_NE(step1, nullptr);
  ASSERT_EQ(step1->size(), 1u);
  EXPECT_EQ(step1->front().target(), dns::Name::parse("ns.atk.nl"));
}

TEST(MakeNxnsZones, FinalDelegationNamesFanoutGluelessVictimHosts) {
  const NxnsZoneConfig cfg = sample_config();
  const auto zones = make_nxns_zones(
      cfg, dns::Name::parse("ns.atk.nl"), net::IpAddress{0x0a000001});
  // Chain 1's intermediate zone owns the attack delegation.
  const authns::Zone* chain1 = nullptr;
  for (const auto& z : zones) {
    if (z.origin() == dns::Name::parse("c1.atk.nl")) chain1 = &z;
  }
  ASSERT_NE(chain1, nullptr);
  const auto* final_ns = chain1->find(dns::Name::parse("g.c1.atk.nl"),
                                      dns::RRType::NS);
  ASSERT_NE(final_ns, nullptr);
  ASSERT_EQ(final_ns->size(), 5u);
  for (const dns::RdataView ns : *final_ns) {
    const dns::Name target = ns.target();
    // Glueless by construction: the target lives in the victim's domain...
    EXPECT_TRUE(target.is_subdomain_of(
        dns::Name::parse("ourtestdomain.nl")));
    // ...and no zone in the attacker forest carries an address for it.
    for (const auto& z : zones) {
      EXPECT_EQ(z.find(target, dns::RRType::A), nullptr);
    }
    EXPECT_TRUE(is_attack_query_name(target));
  }
  // Chain 1's slice starts at v5 (chain * fanout).
  EXPECT_EQ(final_ns->front().target(),
            dns::Name::parse("v5.ourtestdomain.nl"));
}

TEST(QueryNames, DeterministicInTheRngStream) {
  const NxnsZoneConfig cfg = sample_config();
  stats::Rng a{1234};
  stats::Rng b{1234};
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(nxns_query_name(cfg, a), nxns_query_name(cfg, b));
  }
  stats::Rng c{1234};
  stats::Rng d{5678};
  EXPECT_NE(nxns_query_name(cfg, c), nxns_query_name(cfg, d));
}

TEST(QueryNames, NxnsTriggerSitsBelowTheFinalDelegation) {
  const NxnsZoneConfig cfg = sample_config();
  stats::Rng rng{7};
  const dns::Name q = nxns_query_name(cfg, rng);
  EXPECT_TRUE(q.is_subdomain_of(dns::Name::parse("atk.nl")));
  // x<16 hex> cache-buster below g.c<chain>.atk.nl (depth 2).
  EXPECT_EQ(q.label_count(), 5u);
  EXPECT_EQ(q.label(0)[0], 'x');
  EXPECT_EQ(q.label(0).size(), 17u);
  EXPECT_EQ(q.label(1), "g");
}

TEST(QueryNames, WaterTortureLandsOnTheVictim) {
  stats::Rng rng{7};
  const dns::Name victim = dns::Name::parse("ourtestdomain.nl");
  const dns::Name q = water_torture_query_name(victim, rng);
  EXPECT_TRUE(q.is_subdomain_of(victim));
  EXPECT_EQ(q.label_count(), 3u);
  EXPECT_EQ(q.label(0)[0], 'w');
  EXPECT_EQ(q.label(0).size(), 17u);
  EXPECT_TRUE(is_attack_query_name(q));
}

TEST(IsAttackQueryName, SeparatesAttackFromCampaignTraffic) {
  EXPECT_TRUE(is_attack_query_name(dns::Name::parse("v12.ourtestdomain.nl")));
  EXPECT_TRUE(is_attack_query_name(
      dns::Name::parse("w0123456789abcdef.ourtestdomain.nl")));
  // The campaign's cache-busting TXT labels and infrastructure names.
  EXPECT_FALSE(is_attack_query_name(
      dns::Name::parse("q512x3.ourtestdomain.nl")));
  EXPECT_FALSE(is_attack_query_name(
      dns::Name::parse("ns-fra.ourtestdomain.nl")));
  EXPECT_FALSE(is_attack_query_name(dns::Name::parse("www.example.com")));
  // Near-misses: wrong digit set or wrong length.
  EXPECT_FALSE(is_attack_query_name(dns::Name::parse("v12a.x.nl")));
  EXPECT_FALSE(is_attack_query_name(dns::Name::parse("wxyz.x.nl")));
  EXPECT_FALSE(is_attack_query_name(dns::Name{}));
}

}  // namespace
}  // namespace recwild::attack
