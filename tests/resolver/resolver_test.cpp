// End-to-end iterative resolution tests against a hand-built mini-Internet:
// one root server, one TLD server for .nl, and two authoritatives for
// test.nl that serve different TXT payloads ("A1" / "A2"), as in the paper.
#include "resolver/resolver.hpp"

#include <gtest/gtest.h>

#include "authns/server.hpp"

namespace recwild::resolver {
namespace {

struct MiniInternet {
  net::Simulation sim{2024};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<authns::AuthServer> root;
  std::unique_ptr<authns::AuthServer> tld;
  std::unique_ptr<authns::AuthServer> auth1;
  std::unique_ptr<authns::AuthServer> auth2;
  net::IpAddress root_addr, tld_addr, a1_addr, a2_addr;
  std::unique_ptr<RecursiveResolver> resolver;

  explicit MiniInternet(ResolverConfig rcfg = {}) {
    params.loss_rate = 0.0;
    net_ = std::make_unique<net::Network>(sim, params);

    const auto loc = [](const char* code) {
      return net::find_location(code)->point;
    };
    root_addr = net_->allocate_address();
    tld_addr = net_->allocate_address();
    a1_addr = net_->allocate_address();
    a2_addr = net_->allocate_address();

    // Root zone: delegate nl.
    authns::Zone root_zone{dns::Name{}};
    dns::SoaRdata soa;
    soa.minimum = 60;
    root_zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
    root_zone.add({dns::Name{}, dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
    root_zone.add({dns::Name::parse("a.root-servers.net"), dns::RRClass::IN,
                   86400, dns::ARdata{root_addr}});
    root_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
    root_zone.add({dns::Name::parse("ns1.dns.nl"), dns::RRClass::IN, 86400,
                   dns::ARdata{tld_addr}});

    // nl zone: delegate test.nl to both authoritatives.
    authns::Zone nl_zone{dns::Name::parse("nl")};
    nl_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400, soa});
    nl_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400,
                 dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
    nl_zone.add({dns::Name::parse("ns1.dns.nl"), dns::RRClass::IN, 86400,
                 dns::ARdata{tld_addr}});
    for (const char* ns : {"ns1.test.nl", "ns2.test.nl"}) {
      nl_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse(ns)}});
    }
    nl_zone.add({dns::Name::parse("ns1.test.nl"), dns::RRClass::IN, 86400,
                 dns::ARdata{a1_addr}});
    nl_zone.add({dns::Name::parse("ns2.test.nl"), dns::RRClass::IN, 86400,
                 dns::ARdata{a2_addr}});

    auto test_zone = [&](const char* payload) {
      authns::Zone z{dns::Name::parse("test.nl")};
      dns::SoaRdata s;
      s.minimum = 30;
      z.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400, s});
      for (const char* ns : {"ns1.test.nl", "ns2.test.nl"}) {
        z.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
               dns::NsRdata{dns::Name::parse(ns)}});
      }
      z.add({dns::Name::parse("ns1.test.nl"), dns::RRClass::IN, 86400,
             dns::ARdata{a1_addr}});
      z.add({dns::Name::parse("ns2.test.nl"), dns::RRClass::IN, 86400,
             dns::ARdata{a2_addr}});
      z.add({dns::Name::parse("*.test.nl"), dns::RRClass::IN, 5,
             dns::TxtRdata{{payload}}});
      z.add({dns::Name::parse("fixed.test.nl"), dns::RRClass::IN, 300,
             dns::ARdata{net::IpAddress::from_octets(192, 0, 2, 80)}});
      return z;
    };

    auto server = [&](const char* name, const char* city,
                      net::IpAddress addr) {
      const net::NodeId node = net_->add_node(name, loc(city));
      authns::AuthServerConfig cfg;
      cfg.identity = name;
      return std::make_unique<authns::AuthServer>(
          *net_, node, net::Endpoint{addr, net::kDnsPort}, cfg);
    };
    root = server("root", "IAD", root_addr);
    root->add_zone(std::move(root_zone));
    root->start();
    tld = server("nl-tld", "AMS", tld_addr);
    tld->add_zone(std::move(nl_zone));
    tld->start();
    auth1 = server("auth1", "FRA", a1_addr);
    auth1->add_zone(test_zone("A1"));
    auth1->start();
    auth2 = server("auth2", "SYD", a2_addr);
    auth2->add_zone(test_zone("A2"));
    auth2->start();

    const net::NodeId rnode = net_->add_node("recursive", loc("AMS"));
    rcfg.name = "test-recursive";
    resolver = std::make_unique<RecursiveResolver>(
        *net_, rnode, net_->allocate_address(), rcfg,
        std::vector<RootHint>{
            {dns::Name::parse("a.root-servers.net"), root_addr}},
        stats::Rng{555});
    resolver->start();
  }

  ResolveOutcome resolve(const char* name,
                         dns::RRType type = dns::RRType::TXT) {
    ResolveOutcome out;
    bool done = false;
    resolver->resolve(
        dns::Question{dns::Name::parse(name), type, dns::RRClass::IN},
        [&](const ResolveOutcome& o) {
          out = o;
          done = true;
        });
    sim.run();
    EXPECT_TRUE(done);
    return out;
  }
};

std::string txt_of(const ResolveOutcome& out) {
  for (const auto& rr : out.answers) {
    if (rr.type() == dns::RRType::TXT) {
      return std::string{*rr.rdata().txt().begin()};
    }
  }
  return "";
}

TEST(Resolver, IterativeResolutionFromRootHints) {
  MiniInternet world;
  const auto out = world.resolve("abc.test.nl");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  ASSERT_FALSE(out.answers.empty());
  const std::string payload = txt_of(out);
  EXPECT_TRUE(payload == "A1" || payload == "A2");
  // Cold cache: root -> tld -> authoritative = 3 upstream queries.
  EXPECT_EQ(out.upstream_queries, 3);
  EXPECT_EQ(world.root->queries_received(), 1u);
  EXPECT_EQ(world.tld->queries_received(), 1u);
}

TEST(Resolver, SecondQuerySkipsRootAndTld) {
  MiniInternet world;
  (void)world.resolve("first.test.nl");
  const auto out = world.resolve("second.test.nl");
  // NS set and glue are cached; only the authoritative is contacted.
  EXPECT_EQ(out.upstream_queries, 1);
  EXPECT_EQ(world.root->queries_received(), 1u);
  EXPECT_EQ(world.tld->queries_received(), 1u);
}

TEST(Resolver, InternedQnameTableStaysBounded) {
  // Regression: a cache-busting workload (every query a fresh subdomain)
  // must not grow the interned-qname table without bound; it is compacted
  // down to the outstanding set once it crosses the floor. Between
  // sequential resolutions nothing is in flight, so the table never holds
  // more than the floor.
  MiniInternet world;
  constexpr int kQueries = 5000;
  for (int i = 0; i < kQueries; ++i) {
    const std::string qname = "r" + std::to_string(i) + ".test.nl";
    const auto out = world.resolve(qname.c_str());
    ASSERT_EQ(out.rcode, dns::Rcode::NoError);
    ASSERT_LE(world.resolver->interned_qnames(),
              RecursiveResolver::kQnameCompactMin)
        << "after resolution " << i;
  }
  // flush_caches (restart simulation) also compacts: with nothing
  // outstanding the table empties entirely.
  world.resolver->flush_caches();
  EXPECT_EQ(world.resolver->interned_qnames(), 0u);
}

/// Starts one resolution per name at once and runs the simulation; returns
/// how many finished with NOERROR and a TXT answer.
int resolve_together(MiniInternet& world,
                     const std::vector<std::string>& qnames) {
  int ok = 0;
  for (const auto& q : qnames) {
    world.resolver->resolve(
        dns::Question{dns::Name::parse(q), dns::RRType::TXT,
                      dns::RRClass::IN},
        [&](const ResolveOutcome& o) {
          if (o.rcode == dns::Rcode::NoError && !txt_of(o).empty()) ++ok;
        });
  }
  world.sim.run();
  return ok;
}

TEST(Resolver, MatchesResponsesWhenInflightQueriesShareAQname) {
  // With QNAME minimisation every cold job asks the root and the TLD the
  // same minimised question, so several transmissions share one qname id
  // and each response must still find its own query (a miss would show as
  // a timeout and a retransmission).
  ResolverConfig cfg;
  cfg.qname_minimization = true;
  MiniInternet world{cfg};
  std::vector<std::string> qnames;
  for (int i = 0; i < 8; ++i) {
    qnames.push_back("m" + std::to_string(i) + ".test.nl");
  }
  EXPECT_EQ(resolve_together(world, qnames), 8);
  EXPECT_EQ(world.resolver->upstream_timeouts(), 0u);
  EXPECT_EQ(world.root->queries_received(), 8u);
}

TEST(Resolver, MatchesResponsesAcrossQnameTableCompaction) {
  // Three fresh names in flight per round: the interned-qname table
  // reaches its compaction floor every ~21 rounds, at a send that moves
  // through the round (64 is not a multiple of 3), so it is also compacted
  // and renumbered while earlier queries of the round are outstanding, and
  // their responses must still match.
  MiniInternet world;
  int ok = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string n = std::to_string(i);
    ok += resolve_together(world, {"a" + n + ".test.nl", "b" + n + ".test.nl",
                                   "c" + n + ".test.nl"});
  }
  EXPECT_EQ(ok, 4500);
  EXPECT_EQ(world.resolver->upstream_timeouts(), 0u);
  // Within max(floor, 4 x in flight + 4) names: it was compacted.
  EXPECT_LE(world.resolver->interned_qnames(),
            RecursiveResolver::kQnameCompactMin);
}

TEST(Resolver, AnswersFromCacheWithoutUpstream) {
  MiniInternet world;
  (void)world.resolve("fixed.test.nl", dns::RRType::A);
  const auto out = world.resolve("fixed.test.nl", dns::RRType::A);
  EXPECT_EQ(out.upstream_queries, 0);
  EXPECT_EQ(out.elapsed, net::Duration::zero());
  ASSERT_EQ(out.answers.size(), 1u);
}

TEST(Resolver, ShortTtlExpiresAndRefetches) {
  MiniInternet world;
  (void)world.resolve("wild.test.nl");  // TXT TTL 5s
  world.sim.run_until(world.sim.now() + net::Duration::seconds(10));
  const auto out = world.resolve("wild.test.nl");
  EXPECT_EQ(out.upstream_queries, 1);
}

TEST(Resolver, NxDomainIsNegativelyCached) {
  MiniInternet world;
  // "nomatch.nl" does not exist in the nl zone (and matches no wildcard).
  const auto first = world.resolve("nomatch.nl", dns::RRType::A);
  EXPECT_EQ(first.rcode, dns::Rcode::NxDomain);
  const auto second = world.resolve("nomatch.nl", dns::RRType::A);
  EXPECT_EQ(second.rcode, dns::Rcode::NxDomain);
  EXPECT_EQ(second.upstream_queries, 0);
}

TEST(Resolver, NodataNegativeCached) {
  MiniInternet world;
  const auto first = world.resolve("fixed.test.nl", dns::RRType::MX);
  EXPECT_EQ(first.rcode, dns::Rcode::NoError);
  EXPECT_TRUE(first.answers.empty());
  const auto second = world.resolve("fixed.test.nl", dns::RRType::MX);
  EXPECT_EQ(second.upstream_queries, 0);
}

TEST(Resolver, FailsOverWhenChosenServerIsDown) {
  MiniInternet world;
  (void)world.resolve("warmup.test.nl");  // cache NS + addresses
  world.auth1->set_down(true);
  world.auth2->set_down(false);
  const auto out = world.resolve("after-failure.test.nl");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  EXPECT_EQ(txt_of(out), "A2");
  EXPECT_GT(world.resolver->upstream_timeouts() +
                world.resolver->servfails(),
            0u);
}

TEST(Resolver, AllServersDownGivesServfail) {
  MiniInternet world;
  (void)world.resolve("warmup.test.nl");
  world.auth1->set_down(true);
  world.auth2->set_down(true);
  const auto out = world.resolve("doomed.test.nl");
  EXPECT_EQ(out.rcode, dns::Rcode::ServFail);
}

TEST(Resolver, TimeoutsFeedInfraCache) {
  MiniInternet world;
  (void)world.resolve("warmup.test.nl");
  world.auth1->set_down(true);
  world.auth2->set_down(true);
  (void)world.resolve("doomed.test.nl");
  const auto* s1 =
      world.resolver->infra().get(world.a1_addr, world.sim.now());
  const auto* s2 =
      world.resolver->infra().get(world.a2_addr, world.sim.now());
  ASSERT_TRUE(s1 != nullptr && s2 != nullptr);
  EXPECT_GT(s1->consecutive_timeouts + s2->consecutive_timeouts, 0);
}

TEST(Resolver, SuccessfulQueriesPopulateInfraCache) {
  MiniInternet world;
  (void)world.resolve("x.test.nl");
  const auto* root_stats =
      world.resolver->infra().get(world.root_addr, world.sim.now());
  ASSERT_NE(root_stats, nullptr);
  EXPECT_GT(root_stats->srtt_ms, 1.0);
}

TEST(Resolver, CoalescesIdenticalInflightQueries) {
  MiniInternet world;
  int callbacks = 0;
  const dns::Question q{dns::Name::parse("co.test.nl"), dns::RRType::TXT,
                        dns::RRClass::IN};
  world.resolver->resolve(q, [&](const ResolveOutcome&) { ++callbacks; });
  world.resolver->resolve(q, [&](const ResolveOutcome&) { ++callbacks; });
  world.sim.run();
  EXPECT_EQ(callbacks, 2);
  // Both answered by ONE resolution: 3 upstream queries total, not 6.
  EXPECT_EQ(world.resolver->upstream_sent(), 3u);
}

TEST(Resolver, FlushCachesForcesFullWalkAgain) {
  MiniInternet world;
  (void)world.resolve("one.test.nl");
  world.resolver->flush_caches();
  const auto out = world.resolve("two.test.nl");
  EXPECT_EQ(out.upstream_queries, 3);
  EXPECT_EQ(world.root->queries_received(), 2u);
}

TEST(Resolver, ResolutionLatencyReflectsNetworkRtt) {
  MiniInternet world;
  (void)world.resolve("warm.test.nl");
  const auto out = world.resolve("timed.test.nl");
  // One round trip to FRA or SYD from AMS: at least a few ms.
  EXPECT_GT(out.elapsed.ms(), 2.0);
  EXPECT_LT(out.elapsed.ms(), 1000.0);
}

TEST(Resolver, AnswersClientsOverTheNetwork) {
  MiniInternet world;
  const net::NodeId cnode = world.net_->add_node(
      "client", net::find_location("AMS")->point);
  const net::Endpoint cep{world.net_->allocate_address(), 7777};
  std::vector<dns::Message> answers;
  world.net_->listen(cnode, cep, [&](const net::Datagram& d, net::NodeId) {
    answers.push_back(dns::decode_message(d.payload));
  });
  dns::Message q = dns::Message::make_query(
      99, dns::Name::parse("net.test.nl"), dns::RRType::TXT);
  q.header.rd = true;
  world.net_->send(cnode, cep,
                   net::Endpoint{world.resolver->address(), net::kDnsPort},
                   dns::encode_message(q));
  world.sim.run();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].header.id, 99);
  EXPECT_TRUE(answers[0].header.qr);
  EXPECT_TRUE(answers[0].header.ra);
  EXPECT_FALSE(answers[0].answers.empty());
  EXPECT_EQ(world.resolver->client_queries(), 1u);
}

TEST(Resolver, ChaosIdentityAnsweredLocally) {
  MiniInternet world;
  const net::NodeId cnode = world.net_->add_node(
      "client2", net::find_location("AMS")->point);
  const net::Endpoint cep{world.net_->allocate_address(), 7778};
  std::vector<dns::Message> answers;
  world.net_->listen(cnode, cep, [&](const net::Datagram& d, net::NodeId) {
    answers.push_back(dns::decode_message(d.payload));
  });
  dns::Message q = dns::Message::make_query(
      5, dns::Name::parse("hostname.bind"), dns::RRType::TXT);
  q.questions[0].qclass = dns::RRClass::CH;
  world.net_->send(cnode, cep,
                   net::Endpoint{world.resolver->address(), net::kDnsPort},
                   dns::encode_message(q));
  world.sim.run();
  ASSERT_EQ(answers.size(), 1u);
  // The RECURSIVE's identity, not any authoritative's — the paper's reason
  // for using IN-class TXT payloads instead of CHAOS queries (§3.1).
  EXPECT_EQ(
      *answers[0].answers.at(0).rdata().txt().begin(),
      "test-recursive");
  // No upstream traffic resulted.
  EXPECT_EQ(world.resolver->upstream_sent(), 0u);
}

TEST(Resolver, PolicySweepAllResolve) {
  for (const PolicyKind kind :
       {PolicyKind::BindSrtt, PolicyKind::UnboundBand,
        PolicyKind::PowerDnsFactor, PolicyKind::UniformRandom,
        PolicyKind::RoundRobin, PolicyKind::StickyFirst}) {
    ResolverConfig cfg;
    cfg.policy = kind;
    MiniInternet world{cfg};
    const auto out = world.resolve("sweep.test.nl");
    EXPECT_EQ(out.rcode, dns::Rcode::NoError) << to_string(kind);
    EXPECT_FALSE(txt_of(out).empty()) << to_string(kind);
  }
}

}  // namespace
}  // namespace recwild::resolver
