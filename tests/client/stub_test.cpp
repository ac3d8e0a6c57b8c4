#include "client/stub.hpp"

#include <gtest/gtest.h>

#include "authns/server.hpp"
#include "resolver/resolver.hpp"

namespace recwild::client {
namespace {

/// World: one authoritative + one recursive + one stub.
struct World {
  net::Simulation sim{31};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<authns::AuthServer> auth;
  std::unique_ptr<resolver::RecursiveResolver> recursive;
  std::unique_ptr<resolver::RecursiveResolver> recursive2;
  std::unique_ptr<StubResolver> stub;

  explicit World(bool two_recursives = false, StubConfig scfg = {}) {
    params.loss_rate = 0.0;
    net_ = std::make_unique<net::Network>(sim, params);
    const auto loc = [](const char* c) {
      return net::find_location(c)->point;
    };
    const net::IpAddress auth_addr = net_->allocate_address();

    authns::Zone zone{dns::Name{}};
    dns::SoaRdata soa;
    soa.minimum = 60;
    zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
    zone.add({dns::Name{}, dns::RRClass::IN, 86400,
              dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
    zone.add({dns::Name::parse("a.root-servers.net"), dns::RRClass::IN,
              86400, dns::ARdata{auth_addr}});
    zone.add({dns::Name::parse("*.test"), dns::RRClass::IN, 5,
              dns::TxtRdata{{"ROOT"}}});

    const net::NodeId anode = net_->add_node("auth", loc("FRA"));
    authns::AuthServerConfig acfg;
    acfg.identity = "auth";
    auth = std::make_unique<authns::AuthServer>(
        *net_, anode, net::Endpoint{auth_addr, net::kDnsPort}, acfg);
    auth->add_zone(std::move(zone));
    auth->start();

    const std::vector<resolver::RootHint> hints{
        {dns::Name::parse("a.root-servers.net"), auth_addr}};

    auto make_recursive = [&](const char* name, const char* city) {
      resolver::ResolverConfig rcfg;
      rcfg.name = name;
      auto r = std::make_unique<resolver::RecursiveResolver>(
          *net_, net_->add_node(name, loc(city)), net_->allocate_address(),
          rcfg, hints, stats::Rng{42});
      r->start();
      return r;
    };
    recursive = make_recursive("rec1", "AMS");
    std::vector<net::IpAddress> upstreams{recursive->address()};
    if (two_recursives) {
      recursive2 = make_recursive("rec2", "LHR");
      upstreams.push_back(recursive2->address());
    }
    stub = std::make_unique<StubResolver>(
        *net_, net_->add_node("probe", loc("AMS")),
        net_->allocate_address(), upstreams, scfg, stats::Rng{7});
    stub->start();
  }
};

TEST(Stub, ResolvesThroughRecursive) {
  World w;
  std::vector<StubResult> results;
  w.stub->query(dns::Name::parse("hello.test"), dns::RRType::TXT,
                [&](const StubResult& r) { results.push_back(r); });
  w.sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].timed_out);
  EXPECT_EQ(results[0].rcode, dns::Rcode::NoError);
  ASSERT_EQ(results[0].txt.size(), 1u);
  EXPECT_EQ(results[0].txt[0], "ROOT");
  EXPECT_EQ(results[0].recursive_index, 0u);
  EXPECT_GT(results[0].elapsed.ms(), 1.0);
}

TEST(Stub, CollectsNonTxtAnswers) {
  World w;
  std::vector<StubResult> results;
  w.stub->query(dns::Name::parse("a.root-servers.net"), dns::RRType::A,
                [&](const StubResult& r) { results.push_back(r); });
  w.sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].txt.empty());
  ASSERT_EQ(results[0].answers.size(), 1u);
  EXPECT_EQ(results[0].answers[0].type(), dns::RRType::A);
}

TEST(Stub, FailsOverToSecondRecursive) {
  StubConfig scfg;
  scfg.attempt_timeout = net::Duration::seconds(2);
  World w{/*two_recursives=*/true, scfg};
  w.recursive->stop();  // first recursive unreachable
  std::vector<StubResult> results;
  w.stub->query(dns::Name::parse("x.test"), dns::RRType::TXT,
                [&](const StubResult& r) { results.push_back(r); });
  w.sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].timed_out);
  EXPECT_EQ(results[0].recursive_index, 1u);
  // The failover cost at least one attempt timeout.
  EXPECT_GT(results[0].elapsed.sec(), 2.0);
}

TEST(Stub, TimesOutWhenAllRecursivesDead) {
  StubConfig scfg;
  scfg.attempt_timeout = net::Duration::seconds(1);
  scfg.max_rounds = 2;
  World w{false, scfg};
  w.recursive->stop();
  std::vector<StubResult> results;
  w.stub->query(dns::Name::parse("x.test"), dns::RRType::TXT,
                [&](const StubResult& r) { results.push_back(r); });
  w.sim.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].timed_out);
  // 2 rounds x 1 recursive x 1 s.
  EXPECT_NEAR(results[0].elapsed.sec(), 2.0, 0.1);
}

TEST(Stub, ConcurrentQueriesKeptApart) {
  World w;
  std::vector<std::string> names;
  for (const char* n : {"one.test", "two.test", "three.test"}) {
    w.stub->query(dns::Name::parse(n), dns::RRType::TXT,
                  [&names](const StubResult& r) {
                    names.push_back(r.question.qname.to_string());
                  });
  }
  w.sim.run();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_NE(std::find(names.begin(), names.end(), "one.test."),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "three.test."),
            names.end());
}

// A reply counts only when it comes from a configured recursive's port 53.
// An off-path host that learned the txid and qname (here: it is told them)
// races the real answer with forged ones — from its own address, and from
// the recursive's address but another port. The stub ignores both and
// still delivers the real answer.
TEST(Stub, IgnoresForgedRepliesFromOffPath) {
  net::Simulation sim{5};
  net::LatencyParams params;
  params.loss_rate = 0.0;
  net::Network net{sim, params};
  const auto loc = [](const char* c) { return net::find_location(c)->point; };
  const net::IpAddress rec_addr = net.allocate_address();
  const net::IpAddress evil_addr = net.allocate_address();
  const net::NodeId rec_node = net.add_node("rec", loc("AMS"));
  const net::NodeId evil_node = net.add_node("evil", loc("AMS"));

  const auto reply = [](const dns::Message& query, const char* payload) {
    dns::Message resp = dns::Message::make_response(query);
    resp.header.ra = true;
    resp.answers.push_back({query.question().qname, dns::RRClass::IN, 5,
                            dns::TxtRdata{{payload}}});
    return dns::encode_message(resp);
  };
  int queries_seen = 0;
  net.listen(rec_node, net::Endpoint{rec_addr, net::kDnsPort},
             [&](const net::Datagram& d, net::NodeId) {
               ++queries_seen;
               const dns::Message query = dns::decode_message(d.payload);
               // The forgeries leave at once and arrive first.
               net.send(evil_node, net::Endpoint{evil_addr, net::kDnsPort},
                        d.src, reply(query, "forged"));
               net.send(evil_node, net::Endpoint{rec_addr, 5353}, d.src,
                        reply(query, "forged-port"));
               const net::Endpoint to = d.src;
               sim.after(net::Duration::millis(50),
                         [&net, rec_node, rec_addr, to, query, reply] {
                           net.send(rec_node,
                                    net::Endpoint{rec_addr, net::kDnsPort},
                                    to, reply(query, "real"));
                         });
             });

  StubResolver stub{net,     net.add_node("probe", loc("AMS")),
                    net.allocate_address(), {rec_addr},
                    StubConfig{}, stats::Rng{7}};
  stub.start();
  std::vector<StubResult> results;
  stub.query(dns::Name::parse("probe.test"), dns::RRType::TXT,
             [&](const StubResult& r) { results.push_back(r); });
  sim.run();
  EXPECT_EQ(queries_seen, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].timed_out);
  ASSERT_EQ(results[0].txt.size(), 1u);
  EXPECT_EQ(results[0].txt[0], "real");
}

}  // namespace
}  // namespace recwild::client
