// End-to-end property sweep: every selection policy must resolve correctly
// under increasing packet loss — failing over, retrying, and eventually
// answering (or SERVFAILing gracefully, never hanging or crashing).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "authns/server.hpp"
#include "resolver/resolver.hpp"

namespace recwild::resolver {
namespace {

// gtest names each case with a byte dump of its parameter, and ctest
// registers that dump as part of the test name. Implicit padding would leak
// uninitialised stack bytes (ASLR-randomised pointers) into the name, so the
// padding is spelled out and zeroed to keep names identical across builds.
struct SweepParam {
  SweepParam(PolicyKind p, double l) : policy{p}, loss{l} {}
  PolicyKind policy;
  std::array<std::uint8_t, sizeof(double) - sizeof(PolicyKind)> zero_pad{};
  double loss;
};
static_assert(sizeof(SweepParam) == 2 * sizeof(double),
              "SweepParam must keep no implicit padding");

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name{to_string(info.param.policy)};
  name += "_loss";
  name += std::to_string(static_cast<int>(info.param.loss * 100));
  return name;
}

class PolicyLossSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicyLossSweep, ResolvesUnderLoss) {
  const auto param = GetParam();
  net::Simulation sim{1000 + static_cast<std::uint64_t>(param.loss * 100)};
  net::LatencyParams lp;
  lp.loss_rate = param.loss;
  net::Network network{sim, lp};
  const auto loc = [](const char* c) {
    return net::find_location(c)->point;
  };

  // Two authoritatives for the root zone itself (simplest full chain).
  const net::IpAddress a1 = network.allocate_address();
  const net::IpAddress a2 = network.allocate_address();
  auto make_zone = [&](const char* payload) {
    authns::Zone z{dns::Name{}};
    dns::SoaRdata soa;
    soa.minimum = 30;
    z.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
    for (const char* ns : {"ns1.test", "ns2.test"}) {
      z.add({dns::Name{}, dns::RRClass::IN, 86400,
             dns::NsRdata{dns::Name::parse(ns)}});
    }
    z.add({dns::Name::parse("ns1.test"), dns::RRClass::IN, 86400,
           dns::ARdata{a1}});
    z.add({dns::Name::parse("ns2.test"), dns::RRClass::IN, 86400,
           dns::ARdata{a2}});
    z.add({dns::Name::parse("*.q"), dns::RRClass::IN, 1,
           dns::TxtRdata{{payload}}});
    return z;
  };
  authns::AuthServerConfig c1;
  c1.identity = "s1";
  authns::AuthServer s1{network, network.add_node("s1", loc("FRA")),
                        net::Endpoint{a1, net::kDnsPort}, c1};
  s1.add_zone(make_zone("S1"));
  s1.start();
  authns::AuthServerConfig c2;
  c2.identity = "s2";
  authns::AuthServer s2{network, network.add_node("s2", loc("IAD")),
                        net::Endpoint{a2, net::kDnsPort}, c2};
  s2.add_zone(make_zone("S2"));
  s2.start();

  ResolverConfig rc;
  rc.name = "sweep";
  rc.policy = param.policy;
  RecursiveResolver res{network, network.add_node("res", loc("AMS")),
                        network.allocate_address(), rc,
                        {{dns::Name::parse("ns1.test"), a1},
                         {dns::Name::parse("ns2.test"), a2}},
                        stats::Rng{99}};
  res.start();

  int answered = 0;
  int servfail = 0;
  const int total = 40;
  for (int i = 0; i < total; ++i) {
    res.resolve(dns::Question{dns::Name::parse("x" + std::to_string(i) +
                                               ".q"),
                              dns::RRType::TXT, dns::RRClass::IN},
                [&](const ResolveOutcome& out) {
                  if (out.rcode == dns::Rcode::NoError &&
                      !out.answers.empty()) {
                    ++answered;
                  } else {
                    ++servfail;
                  }
                });
    sim.run();  // every resolution must terminate
  }
  EXPECT_EQ(answered + servfail, total);
  if (param.loss <= 0.10) {
    // Moderate loss: retries must save essentially everything.
    EXPECT_GE(answered, total - 2) << "policy " << to_string(param.policy);
  } else {
    // Heavy loss (30%): the majority must still get through.
    EXPECT_GE(answered, total * 6 / 10)
        << "policy " << to_string(param.policy);
  }
  // No outstanding state leaks once the sim drains.
  EXPECT_EQ(sim.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicyLossSweep,
    ::testing::Values(
        SweepParam{PolicyKind::BindSrtt, 0.0},
        SweepParam{PolicyKind::BindSrtt, 0.1},
        SweepParam{PolicyKind::BindSrtt, 0.3},
        SweepParam{PolicyKind::UnboundBand, 0.0},
        SweepParam{PolicyKind::UnboundBand, 0.1},
        SweepParam{PolicyKind::UnboundBand, 0.3},
        SweepParam{PolicyKind::PowerDnsFactor, 0.1},
        SweepParam{PolicyKind::UniformRandom, 0.1},
        SweepParam{PolicyKind::UniformRandom, 0.3},
        SweepParam{PolicyKind::RoundRobin, 0.1},
        SweepParam{PolicyKind::StickyFirst, 0.0},
        SweepParam{PolicyKind::StickyFirst, 0.1},
        SweepParam{PolicyKind::StickyFirst, 0.3}),
    param_name);

}  // namespace
}  // namespace recwild::resolver
