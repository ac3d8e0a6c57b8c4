// DNS-over-TCP fallback: a response that does not fit in the client's UDP
// budget comes back truncated (TC=1) and is retried over the reliable
// stream transport. (The paper notes UDP carries >97% of DNS; TCP is the
// rare but required fallback.)
#include <gtest/gtest.h>

#include "authns/server.hpp"
#include "resolver/resolver.hpp"

namespace recwild::resolver {
namespace {

/// One authoritative serving a TXT RRset too big for 512-byte UDP.
struct World {
  net::Simulation sim{808};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<authns::AuthServer> auth;
  std::unique_ptr<RecursiveResolver> resolver;
  net::IpAddress auth_addr;

  explicit World(bool resolver_edns, double loss = 0.0) {
    params.loss_rate = loss;
    net_ = std::make_unique<net::Network>(sim, params);
    auth_addr = net_->allocate_address();

    authns::Zone zone{dns::Name{}};
    dns::SoaRdata soa;
    soa.minimum = 60;
    zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
    zone.add({dns::Name{}, dns::RRClass::IN, 86400,
              dns::NsRdata{dns::Name::parse("ns.test")}});
    zone.add({dns::Name::parse("ns.test"), dns::RRClass::IN, 86400,
              dns::ARdata{auth_addr}});
    // ~1.5 KiB of TXT data: over plain-UDP 512 and over EDNS 1232.
    dns::TxtRdata big;
    for (int i = 0; i < 6; ++i) big.strings.push_back(std::string(250, 'x'));
    zone.add({dns::Name::parse("big.test"), dns::RRClass::IN, 300,
              std::move(big)});
    zone.add({dns::Name::parse("small.test"), dns::RRClass::IN, 300,
              dns::TxtRdata{{"ok"}}});

    authns::AuthServerConfig acfg;
    acfg.identity = "auth";
    auth = std::make_unique<authns::AuthServer>(
        *net_, net_->add_node("auth", net::find_location("FRA")->point),
        net::Endpoint{auth_addr, net::kDnsPort}, acfg);
    auth->add_zone(std::move(zone));
    auth->start();

    ResolverConfig rcfg;
    rcfg.name = "r";
    rcfg.use_edns = resolver_edns;
    resolver = std::make_unique<RecursiveResolver>(
        *net_, net_->add_node("res", net::find_location("AMS")->point),
        net_->allocate_address(), rcfg,
        std::vector<RootHint>{{dns::Name::parse("ns.test"), auth_addr}},
        stats::Rng{3});
    resolver->start();
  }

  ResolveOutcome resolve(const char* name) {
    ResolveOutcome out;
    resolver->resolve(dns::Question{dns::Name::parse(name),
                                    dns::RRType::TXT, dns::RRClass::IN},
                      [&](const ResolveOutcome& o) { out = o; });
    sim.run();
    return out;
  }
};

TEST(TcpFallback, TruncatedAnswerRetriedOverTcp) {
  World w{/*resolver_edns=*/true};
  const auto out = w.resolve("big.test");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  ASSERT_EQ(out.answers.size(), 1u);
  const auto txt = out.answers[0].rdata().txt();
  EXPECT_EQ(std::distance(txt.begin(), txt.end()), 6);
  EXPECT_EQ(w.resolver->tcp_retries(), 1u);
  // UDP try + TCP retry.
  EXPECT_EQ(out.upstream_queries, 2);
}

TEST(TcpFallback, WithoutEdnsStillRecoversViaTcp) {
  World w{/*resolver_edns=*/false};
  const auto out = w.resolve("big.test");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  ASSERT_EQ(out.answers.size(), 1u);
  EXPECT_EQ(w.resolver->tcp_retries(), 1u);
}

TEST(TcpFallback, SmallAnswersStayOnUdp) {
  World w{true};
  const auto out = w.resolve("small.test");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  EXPECT_EQ(w.resolver->tcp_retries(), 0u);
  EXPECT_EQ(out.upstream_queries, 1);
}

TEST(TcpFallback, TcpCostsMoreTime) {
  World w{true};
  const auto small = w.resolve("small-warm.test");  // NXDOMAIN warmup
  (void)small;
  const auto udp = w.resolve("small.test");
  const auto tcp = w.resolve("big.test");
  // TCP path: UDP attempt + handshake + transfer > 2x the UDP-only time.
  EXPECT_GT(tcp.elapsed.ms(), udp.elapsed.ms() * 2);
}

TEST(TcpFallback, SurvivesLossyNetwork) {
  // With 15% packet loss the UDP attempts may time out and retry, but the
  // stream leg is reliable — the oversize answer still arrives.
  World w{true, /*loss=*/0.15};
  const auto out = w.resolve("big.test");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  ASSERT_EQ(out.answers.size(), 1u);
}

}  // namespace
}  // namespace recwild::resolver
