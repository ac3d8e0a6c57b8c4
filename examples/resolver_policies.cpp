// Resolver policies: watch the six server-selection algorithms (Yu et
// al.'s catalogue, paper §2/§6) choose between a near and a far
// authoritative in a live resolver, side by side.
//
//   ./build/examples/resolver_policies
#include <cstdio>
#include <map>

#include "authns/server.hpp"
#include "experiment/report.hpp"
#include "resolver/resolver.hpp"

using namespace recwild;

namespace {

/// Builds a 2-authoritative world for one policy and counts which
/// authoritative receives each of `n` cache-defeating queries.
std::map<std::string, int> run_policy(resolver::PolicyKind kind, int n) {
  net::Simulation sim{321};
  net::LatencyParams params;
  params.loss_rate = 0.0;
  net::Network network{sim, params};
  const auto loc = [](const char* c) { return net::find_location(c)->point; };

  const net::IpAddress near_addr = network.allocate_address();
  const net::IpAddress far_addr = network.allocate_address();

  auto zone_for = [&](const char* payload) {
    authns::Zone z{dns::Name::parse("test.nl")};
    dns::SoaRdata soa;
    soa.minimum = 30;
    z.add({z.origin(), dns::RRClass::IN, 86400, soa});
    for (const char* ns : {"ns1.test.nl", "ns2.test.nl"}) {
      z.add({z.origin(), dns::RRClass::IN, 86400,
             dns::NsRdata{dns::Name::parse(ns)}});
    }
    z.add({dns::Name::parse("ns1.test.nl"), dns::RRClass::IN, 86400,
           dns::ARdata{near_addr}});
    z.add({dns::Name::parse("ns2.test.nl"), dns::RRClass::IN, 86400,
           dns::ARdata{far_addr}});
    z.add({dns::Name::parse("*.test.nl"), dns::RRClass::IN, 1,
           dns::TxtRdata{{payload}}});
    return z;
  };

  authns::AuthServerConfig near_cfg;
  near_cfg.identity = "near";
  authns::AuthServer near_server{network, network.add_node("near", loc("FRA")),
                                 net::Endpoint{near_addr, net::kDnsPort},
                                 near_cfg};
  near_server.add_zone(zone_for("NEAR-FRA"));
  near_server.start();

  authns::AuthServerConfig far_cfg;
  far_cfg.identity = "far";
  authns::AuthServer far_server{network, network.add_node("far", loc("SYD")),
                                net::Endpoint{far_addr, net::kDnsPort},
                                far_cfg};
  far_server.add_zone(zone_for("FAR-SYD"));
  far_server.start();

  resolver::ResolverConfig rcfg;
  rcfg.name = "demo";
  rcfg.policy = kind;
  // Hints point directly at the test zone's servers: this resolver only
  // ever talks to the two authoritatives.
  resolver::RecursiveResolver res{
      network, network.add_node("resolver", loc("AMS")),
      network.allocate_address(), rcfg,
      {{dns::Name::parse("ns1.test.nl"), near_addr},
       {dns::Name::parse("ns2.test.nl"), far_addr}},
      stats::Rng{kind == resolver::PolicyKind::StickyFirst ? 11u : 7u}};
  res.start();

  std::map<std::string, int> counts;
  for (int i = 0; i < n; ++i) {
    res.resolve(dns::Question{dns::Name::parse("q" + std::to_string(i) +
                                               ".test.nl"),
                              dns::RRType::TXT, dns::RRClass::IN},
                [&counts](const resolver::ResolveOutcome& out) {
                  for (const auto& rr : out.answers) {
                    if (rr.type() == dns::RRType::TXT) {
                      counts[std::string{*rr.rdata().txt().begin()}]++;
                    }
                  }
                });
    sim.run();  // finish this query before the next (steady probing)
  }
  return counts;
}

}  // namespace

int main() {
  experiment::report::header(
      "Server selection policies: FRA (near) vs SYD (far), seen from AMS");
  std::printf("%-16s %10s %10s   share to the nearer authoritative\n",
              "policy", "near", "far");
  const int n = 200;
  for (const auto kind :
       {resolver::PolicyKind::BindSrtt, resolver::PolicyKind::UnboundBand,
        resolver::PolicyKind::PowerDnsFactor,
        resolver::PolicyKind::UniformRandom, resolver::PolicyKind::RoundRobin,
        resolver::PolicyKind::StickyFirst}) {
    auto counts = run_policy(kind, n);
    const int near = counts["NEAR-FRA"];
    const int far = counts["FAR-SYD"];
    const double share = near + far > 0
                             ? double(near) / double(near + far)
                             : 0.0;
    std::printf("%-16s %10d %10d   %s %s\n",
                std::string{to_string(kind)}.c_str(), near, far,
                experiment::report::pct(share).c_str(),
                experiment::report::bar(share, 30).c_str());
  }
  std::printf("\nYu et al. [33] found half the implementations are "
              "latency-driven; the paper measures how this mixture plays "
              "out in the wild.\n");
  return 0;
}
