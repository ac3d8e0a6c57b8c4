// IPv6 support: the paper re-ran a subset of its measurements over IPv6
// and confirmed recursives follow the same selection strategy (§3.1).
// These tests exercise the dual-stack testbed: AAAA glue, v6-plane
// addresses, v6-only and dual-stack resolvers.
#include <gtest/gtest.h>

#include "experiment/analysis.hpp"
#include "experiment/campaign.hpp"
#include "experiment/testbed.hpp"

namespace recwild::experiment {
namespace {

TestbedConfig dual_cfg(std::size_t probes = 80) {
  TestbedConfig cfg;
  cfg.seed = 404;
  cfg.dual_stack = true;
  cfg.population.probes = probes;
  cfg.test_sites = {"DUB", "FRA"};
  return cfg;
}

TEST(Ipv6, DualStackTestbedPublishesAaaaGlue) {
  Testbed tb{dual_cfg()};
  // Ask a root letter for the .nl referral and check AAAA glue shows up.
  // (EDNS: a referral with 8 NSes and dual-stack glue tops 512 bytes.)
  const auto& letter = tb.roots().front();
  dns::Message query = dns::Message::make_query(
      1, dns::Name::parse("anything.nl"), dns::RRType::A);
  query.edns = dns::EdnsInfo{};
  query.edns->udp_payload_size = 4096;
  const auto resp = letter.sites().front().server->answer(query);
  EXPECT_FALSE(resp.header.tc);
  bool saw_aaaa = false;
  for (const auto& rr : resp.additionals) {
    if (rr.type() == dns::RRType::AAAA) {
      saw_aaaa = true;
      const auto mapped = net::IpAddress::from_mapped_ipv6(
          rr.rdata().aaaa());
      ASSERT_TRUE(mapped.has_value());
      // v6-plane pool is 253.0.0.0/8.
      EXPECT_EQ(mapped->bits() >> 24, 253u);
    }
  }
  EXPECT_TRUE(saw_aaaa);
}

TEST(Ipv6, MappedAddressRoundTrip) {
  const net::IpAddress addr{0xfd0010ff};
  const auto v6 = addr.to_mapped_ipv6();
  const auto back = net::IpAddress::from_mapped_ipv6(v6);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, addr);
  // Non-mapped 16-byte addresses are rejected.
  std::array<std::uint8_t, 16> native{};
  native[0] = 0x20;
  native[1] = 0x01;
  EXPECT_FALSE(net::IpAddress::from_mapped_ipv6(native).has_value());
}

TEST(Ipv6, V6OnlyResolverResolvesEndToEnd) {
  TestbedConfig cfg = dual_cfg();
  cfg.build_population = false;
  Testbed tb{cfg};

  resolver::ResolverConfig rc;
  rc.name = "v6-resolver";
  rc.family = resolver::AddressFamily::V6Only;
  resolver::RecursiveResolver res{
      tb.network(),
      tb.network().add_node("v6res", net::find_location("AMS")->point),
      tb.network().allocate_address6(), rc, tb.hints6(), stats::Rng{5}};
  res.start();

  resolver::ResolveOutcome out;
  res.resolve(dns::Question{dns::Name::parse("v6probe.ourtestdomain.nl"),
                            dns::RRType::TXT, dns::RRClass::IN},
              [&](const resolver::ResolveOutcome& o) { out = o; });
  tb.sim().run();
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  ASSERT_FALSE(out.answers.empty());

  // Everything it learned latency about lives in the v6 plane.
  for (const auto& h : tb.hints6()) {
    EXPECT_EQ(h.address.bits() >> 24, 253u);
  }
  std::size_t v6_entries = 0;
  for (const auto& svc : tb.test_services()) {
    ASSERT_TRUE(svc.address6().has_value());
    if (res.infra().get(*svc.address6(), tb.sim().now()) != nullptr) {
      ++v6_entries;
    }
    // And it never touched the v4 addresses.
    EXPECT_EQ(res.infra().get(svc.address(), tb.sim().now()), nullptr);
  }
  EXPECT_GE(v6_entries, 1u);
}

TEST(Ipv6, DualResolverSeesBothFamiliesAsServers) {
  TestbedConfig cfg = dual_cfg();
  cfg.build_population = false;
  Testbed tb{cfg};

  resolver::ResolverConfig rc;
  rc.name = "dual-resolver";
  rc.family = resolver::AddressFamily::Dual;
  rc.policy = resolver::PolicyKind::RoundRobin;  // visits every candidate
  resolver::RecursiveResolver res{
      tb.network(),
      tb.network().add_node("dualres", net::find_location("AMS")->point),
      tb.network().allocate_address(), rc, tb.hints(), stats::Rng{6}};
  res.start();

  // Warm up then issue enough queries to rotate through all candidates:
  // 2 NSes x 2 families = 4 server identities.
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    res.resolve(dns::Question{dns::Name::parse("d" + std::to_string(i) +
                                               ".ourtestdomain.nl"),
                              dns::RRType::TXT, dns::RRClass::IN},
                [&](const resolver::ResolveOutcome&) { ++done; });
    tb.sim().run();
  }
  EXPECT_EQ(done, 12);
  std::size_t planes_seen = 0;
  for (const auto& svc : tb.test_services()) {
    if (res.infra().get(svc.address(), tb.sim().now())) ++planes_seen;
    if (res.infra().get(*svc.address6(), tb.sim().now())) ++planes_seen;
  }
  EXPECT_GE(planes_seen, 3u);  // round robin reached both planes
}

TEST(Ipv6, SelectionStrategyUnchangedOverV6) {
  // The paper's §3.1 verification: same campaign, v4-only vs dual-stack
  // population — aggregate preference statistics agree.
  TestbedConfig v4 = dual_cfg(150);
  const auto r4 = [&] {
    Testbed tb{v4};
    CampaignConfig cc;
    cc.queries_per_vp = 20;
    return analyze_preferences(run_campaign(tb, cc));
  }();

  TestbedConfig v6 = dual_cfg(150);
  v6.population.ipv6_fraction = 1.0;
  const auto r6 = [&] {
    Testbed tb{v6};
    CampaignConfig cc;
    cc.queries_per_vp = 20;
    return analyze_preferences(run_campaign(tb, cc));
  }();

  EXPECT_NEAR(r4.weak_fraction, r6.weak_fraction, 0.15);
  EXPECT_NEAR(r4.strong_fraction, r6.strong_fraction, 0.15);
}

}  // namespace
}  // namespace recwild::experiment
