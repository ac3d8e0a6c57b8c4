#include "authns/server.hpp"

#include <gtest/gtest.h>

#include "obs/names.hpp"

namespace recwild::authns {
namespace {

constexpr const char* kZoneText = R"(
$TTL 3600
@    IN SOA ns1 hostmaster 1 14400 3600 1209600 300
@    IN NS  ns1
ns1  IN A   192.0.2.1
*    5 IN TXT "FRA"
big  IN TXT "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
big  IN TXT "yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy"
big  IN TXT "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"
huge IN TXT "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
huge IN TXT "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
huge IN TXT "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
huge IN TXT "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
huge IN TXT "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
huge IN TXT "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
huge IN TXT "gggggggggggggggggggggggggggggggggggggggggggggggggggggggggggg"
huge IN TXT "hhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhh"
huge IN TXT "iiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiii"
huge IN TXT "jjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjj"
huge IN TXT "kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk"
huge IN TXT "llllllllllllllllllllllllllllllllllllllllllllllllllllllllllll"
huge IN TXT "mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm"
huge IN TXT "nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn"
huge IN TXT "oooooooooooooooooooooooooooooooooooooooooooooooooooooooooooo"
huge IN TXT "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"
huge IN TXT "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq"
huge IN TXT "rrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrr"
huge IN TXT "ssssssssssssssssssssssssssssssssssssssssssssssssssssssssssss"
huge IN TXT "tttttttttttttttttttttttttttttttttttttttttttttttttttttttttttt"
huge IN TXT "uuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuuu"
)";

struct Fixture {
  net::Simulation sim{77};
  net::LatencyParams params{};
  Fixture() { params.loss_rate = 0.0; }
};

struct World {
  Fixture f;
  net::Network net{f.sim, f.params};
  net::NodeId server_node;
  net::NodeId client_node;
  net::Endpoint server_ep;
  net::Endpoint client_ep;
  std::unique_ptr<AuthServer> server;
  std::vector<dns::Message> received;

  World() {
    server_node = net.add_node("auth", net::find_location("FRA")->point);
    client_node = net.add_node("client", net::find_location("AMS")->point);
    server_ep = net::Endpoint{net.allocate_address(), net::kDnsPort};
    client_ep = net::Endpoint{net.allocate_address(), 5555};
    AuthServerConfig cfg;
    cfg.identity = "testsrv.fra";
    server = std::make_unique<AuthServer>(net, server_node, server_ep, cfg);
    server->add_zone(
        Zone::from_text(dns::Name::parse("ourtestdomain.nl"), kZoneText));
    server->start();
    net.listen(client_node, client_ep,
               [this](const net::Datagram& d, net::NodeId) {
                 received.push_back(dns::decode_message(d.payload));
               });
  }

  void send(dns::Message query) {
    net.send(client_node, client_ep, server_ep,
             dns::encode_message(query));
    f.sim.run();
  }
};

TEST(AuthServer, AnswersOverTheNetwork) {
  World w;
  w.send(dns::Message::make_query(1, dns::Name::parse("abc.ourtestdomain.nl"),
                                  dns::RRType::TXT));
  ASSERT_EQ(w.received.size(), 1u);
  const auto& resp = w.received[0];
  EXPECT_TRUE(resp.header.qr);
  EXPECT_TRUE(resp.header.aa);
  EXPECT_EQ(resp.header.id, 1);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(*resp.answers[0].rdata().txt().begin(),
            "FRA");
  EXPECT_EQ(w.server->queries_received(), 1u);
  EXPECT_EQ(w.server->responses_sent(), 1u);
}

TEST(AuthServer, ResponseTakesNetworkAndProcessingTime) {
  World w;
  w.send(dns::Message::make_query(2, dns::Name::parse("x.ourtestdomain.nl"),
                                  dns::RRType::TXT));
  // AMS<->FRA RTT is ~15-60 ms in the model; response cannot be instant.
  EXPECT_GT(w.f.sim.now().ms(), 5.0);
}

TEST(AuthServer, LogsEveryQuery) {
  World w;
  w.send(dns::Message::make_query(3, dns::Name::parse("a.ourtestdomain.nl"),
                                  dns::RRType::TXT));
  w.send(dns::Message::make_query(4, dns::Name::parse("b.ourtestdomain.nl"),
                                  dns::RRType::TXT));
  EXPECT_EQ(w.server->log().total(), 2u);
  EXPECT_EQ(w.server->log().per_client().at(w.client_ep.addr), 2u);
  const auto& entry = w.server->log().entries()[0];
  EXPECT_EQ(entry.qname, dns::Name::parse("a.ourtestdomain.nl"));
}

TEST(AuthServer, DownServerLogsButDoesNotAnswer) {
  World w;
  w.server->set_down(true);
  w.send(dns::Message::make_query(5, dns::Name::parse("c.ourtestdomain.nl"),
                                  dns::RRType::TXT));
  EXPECT_TRUE(w.received.empty());
  EXPECT_EQ(w.server->queries_received(), 1u);
  EXPECT_EQ(w.server->log().total(), 1u);
  w.server->set_down(false);
  w.send(dns::Message::make_query(6, dns::Name::parse("d.ourtestdomain.nl"),
                                  dns::RRType::TXT));
  EXPECT_EQ(w.received.size(), 1u);
}

TEST(AuthServer, ChaosIdentityQueries) {
  World w;
  dns::Message q = dns::Message::make_query(
      7, dns::Name::parse("hostname.bind"), dns::RRType::TXT);
  q.questions[0].qclass = dns::RRClass::CH;
  w.send(q);
  ASSERT_EQ(w.received.size(), 1u);
  ASSERT_EQ(w.received[0].answers.size(), 1u);
  EXPECT_EQ(
      *w.received[0].answers[0].rdata().txt().begin(),
      "testsrv.fra");
}

TEST(AuthServer, ChaosUnknownNameRefused) {
  World w;
  dns::Message q = dns::Message::make_query(
      8, dns::Name::parse("version.weird"), dns::RRType::TXT);
  q.questions[0].qclass = dns::RRClass::CH;
  w.send(q);
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_EQ(w.received[0].header.rcode, dns::Rcode::Refused);
}

TEST(AuthServer, RefusesForeignZone) {
  World w;
  w.send(dns::Message::make_query(9, dns::Name::parse("www.other.org"),
                                  dns::RRType::A));
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_EQ(w.received[0].header.rcode, dns::Rcode::Refused);
}

TEST(AuthServer, IgnoresResponsesAndGarbage) {
  World w;
  dns::Message not_a_query = dns::Message::make_query(
      10, dns::Name::parse("x.ourtestdomain.nl"), dns::RRType::TXT);
  not_a_query.header.qr = true;
  w.send(not_a_query);
  EXPECT_TRUE(w.received.empty());

  w.net.send(w.client_node, w.client_ep, w.server_ep, {0xde, 0xad});
  w.f.sim.run();
  EXPECT_TRUE(w.received.empty());
}

TEST(AuthServer, TruncatesOversizePlainUdp) {
  World w;
  // Shrink the plain-UDP limit so the 3-string TXT response overflows.
  AuthServerConfig cfg;
  cfg.identity = "small";
  cfg.plain_udp_limit = 100;
  auto small = std::make_unique<AuthServer>(
      w.net, w.server_node, net::Endpoint{w.net.allocate_address(), 53},
      cfg);
  small->add_zone(
      Zone::from_text(dns::Name::parse("ourtestdomain.nl"), kZoneText));
  small->start();
  w.net.send(w.client_node, w.client_ep, small->endpoint(),
             dns::encode_message(dns::Message::make_query(
                 11, dns::Name::parse("big.ourtestdomain.nl"),
                 dns::RRType::TXT)));
  w.f.sim.run();
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_TRUE(w.received[0].header.tc);
  EXPECT_TRUE(w.received[0].answers.empty());
}

TEST(AuthServer, EdnsRaisesTheLimit) {
  World w;
  dns::Message q = dns::Message::make_query(
      12, dns::Name::parse("big.ourtestdomain.nl"), dns::RRType::TXT);
  q.edns = dns::EdnsInfo{};
  q.edns->udp_payload_size = 4096;
  w.send(q);
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_FALSE(w.received[0].header.tc);
  EXPECT_EQ(w.received[0].answers.size(), 3u);
  EXPECT_TRUE(w.received[0].edns.has_value());
}

TEST(AuthServer, AnswerUnitApi) {
  World w;
  const auto resp = w.server->answer(dns::Message::make_query(
      13, dns::Name::parse("unit.ourtestdomain.nl"), dns::RRType::TXT));
  EXPECT_TRUE(resp.header.aa);
  ASSERT_EQ(resp.answers.size(), 1u);
}

TEST(AuthServer, EmptyQuestionIsFormErr) {
  World w;
  dns::Message q;
  q.header.id = 14;
  const auto resp = w.server->answer(q);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::FormErr);
}

TEST(AuthServer, StopUnbindsFromNetwork) {
  World w;
  w.server->stop();
  EXPECT_FALSE(w.net.send(
      w.client_node, w.client_ep, w.server_ep,
      dns::encode_message(dns::Message::make_query(
          15, dns::Name::parse("x.ourtestdomain.nl"), dns::RRType::TXT))));
}

TEST(AuthServer, MostSpecificZoneWins) {
  World w;
  // Add a parent zone; the child zone must still answer for its names.
  const char* parent = R"(
@    IN SOA ns1 hostmaster 1 14400 3600 1209600 300
@    IN NS  ns1
ns1  IN A 192.0.2.99
ourtestdomain IN NS ns1.ourtestdomain
ns1.ourtestdomain IN A 192.0.2.1
)";
  w.server->add_zone(Zone::from_text(dns::Name::parse("nl"), parent));
  w.send(dns::Message::make_query(
      16, dns::Name::parse("pick.ourtestdomain.nl"), dns::RRType::TXT));
  ASSERT_EQ(w.received.size(), 1u);
  // Served from the child zone's wildcard, not the parent's delegation.
  ASSERT_EQ(w.received[0].answers.size(), 1u);
  EXPECT_TRUE(w.received[0].header.aa);
}


TEST(AuthServer, TinyEdnsAdvertisementClampedUpTo512) {
  World w;
  // RFC 6891 Â§6.2.3: an advertised payload size below 512 is treated as
  // 512. The ~300-byte TXT answer must NOT truncate for a client that
  // advertises 100 octets (before the clamp it would have).
  dns::Message q = dns::Message::make_query(
      20, dns::Name::parse("big.ourtestdomain.nl"), dns::RRType::TXT);
  q.edns = dns::EdnsInfo{};
  q.edns->udp_payload_size = 100;
  w.send(q);
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_FALSE(w.received[0].header.tc);
  EXPECT_EQ(w.received[0].answers.size(), 3u);
}

TEST(AuthServer, HugeEdnsAdvertisementCappedAt1232) {
  World w;
  // The other side of the clamp: advertising 65535 does not talk us into
  // sending past our 1232-octet fragmentation-safe ceiling.
  dns::Message q = dns::Message::make_query(
      21, dns::Name::parse("huge.ourtestdomain.nl"), dns::RRType::TXT);
  q.edns = dns::EdnsInfo{};
  q.edns->udp_payload_size = 65535;
  w.send(q);
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_TRUE(w.received[0].header.tc);
  EXPECT_TRUE(w.received[0].answers.empty());
  ASSERT_TRUE(w.received[0].edns.has_value());
  EXPECT_EQ(w.received[0].edns->udp_payload_size, 1232);
}

TEST(AuthServer, MalformedQueryAnsweredWithFormErr) {
  World w;
  // A full header claiming one question, then a label that overruns the
  // datagram: decode fails, but there is enough to address a reply.
  w.net.send(w.client_node, w.client_ep, w.server_ep,
             net::WireBuffer{{0x12, 0x34, 0x00, 0x00, 0x00, 0x01, 0x00,
                              0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, 0x41}});
  w.f.sim.run();
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_TRUE(w.received[0].header.qr);
  EXPECT_EQ(w.received[0].header.id, 0x1234);
  EXPECT_EQ(w.received[0].header.rcode, dns::Rcode::FormErr);
  EXPECT_TRUE(w.received[0].questions.empty());
  EXPECT_EQ(w.f.sim.metrics().snapshot().counter_value(
                obs::names::kAuthnsFormerr),
            1u);
}

TEST(AuthServer, MalformedResponseNeverAnswered) {
  World w;
  // Same overrun, but QR=1: answering would let two broken servers (or a
  // spoofed victim) bounce FORMERRs at each other forever.
  w.net.send(w.client_node, w.client_ep, w.server_ep,
             net::WireBuffer{{0x12, 0x34, 0x80, 0x00, 0x00, 0x01, 0x00,
                              0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, 0x41}});
  w.f.sim.run();
  EXPECT_TRUE(w.received.empty());
  // And the lazy formerr counter was never even registered.
  EXPECT_EQ(w.f.sim.metrics().snapshot().counter_value(
                obs::names::kAuthnsFormerr),
            0u);
}

}  // namespace
}  // namespace recwild::authns
