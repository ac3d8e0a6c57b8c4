// Each netio worker decodes into and answers from its own pair of reused
// messages. Several clients at once — UDP and TCP, answers, referrals,
// NXDOMAIN, truncation and garbage — spread over a multi-worker server
// must each get exactly the bytes the in-process Responder produces for
// their query. The TSan job runs this file: two workers sharing a message
// would race here.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "authns/responder.hpp"
#include "dnscore/codec.hpp"
#include "netio/client.hpp"
#include "netio/server.hpp"

namespace recwild::netio {
namespace {

constexpr const char* kZoneText = R"(
$TTL 3600
@     IN SOA ns1 hostmaster 1 14400 3600 1209600 300
@     IN NS  ns1
ns1   IN A   192.0.2.1
www   IN A   192.0.2.10
www   IN A   192.0.2.11
*.w   IN TXT "FRA"
big   IN TXT "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
big   IN TXT "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
big   IN TXT "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
big   IN TXT "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
big   IN TXT "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
big   IN TXT "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
big   IN TXT "gggggggggggggggggggggggggggggggggggggggggggggggggggggggggggg"
big   IN TXT "hhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhh"
child IN NS  ns1.child
ns1.child IN A 192.0.2.53
)";

struct Case {
  std::vector<std::uint8_t> query;
  bool tcp = false;
  std::vector<std::uint8_t> expected;
};

std::vector<std::uint8_t> bytes(const net::WireBuffer& w) {
  return {w.data(), w.data() + w.size()};
}

/// The reply the server must send: what Responder::answer gives for the
/// query on that transport (the FORMERR reply for garbage).
std::vector<std::uint8_t> expected_reply(const authns::Responder& r,
                                         const std::vector<std::uint8_t>& q,
                                         bool tcp) {
  dns::Message query;
  try {
    query = dns::decode_message(q);
  } catch (const dns::WireError&) {
    return bytes(*authns::Responder::formerr_reply(q));
  }
  net::WireBuffer wire;
  const dns::Message resp = r.answer(query, tcp, &wire);
  return wire.empty() ? bytes(dns::encode_message(resp)) : bytes(wire);
}

TEST(NetioWorkerMessages, ConcurrentClientsGetTheirOwnAnswers) {
  authns::ResponderConfig rcfg;
  rcfg.identity = "workers";
  authns::Responder responder{rcfg};
  responder.add_zone(
      authns::Zone::from_text(dns::Name::parse("wk.test"), kZoneText));
  ServerConfig scfg;
  scfg.port = 0;  // ephemeral
  scfg.workers = 3;
  Server server{responder, scfg};
  server.start();

  std::vector<Case> cases;
  const auto add = [&](const char* qname, dns::RRType type, bool tcp,
                       bool edns) {
    dns::Message q = dns::Message::make_query(
        static_cast<std::uint16_t>(cases.size() + 1), dns::Name::parse(qname),
        type);
    if (edns) q.edns = dns::EdnsInfo{};
    Case c;
    c.query = bytes(dns::encode_message(q));
    c.tcp = tcp;
    cases.push_back(std::move(c));
  };
  for (const bool tcp : {false, true}) {
    add("www.wk.test", dns::RRType::A, tcp, true);
    add("probe1.w.wk.test", dns::RRType::TXT, tcp, false);
    add("x.child.wk.test", dns::RRType::A, tcp, false);
    add("nothing.wk.test", dns::RRType::A, tcp, true);
    add("big.wk.test", dns::RRType::TXT, tcp, false);  // truncates on UDP
    add("www.elsewhere.org", dns::RRType::A, tcp, false);  // REFUSED
  }
  Case garbage;
  garbage.query = {0xab, 0xcd, 0x00, 0x00, 0x00, 0x01, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x3f, 0x41};
  cases.push_back(garbage);
  for (auto& c : cases) c.expected = expected_reply(responder, c.query, c.tcp);

  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::vector<int> mismatches(kClients, 0);
  std::vector<int> answered(kClients, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
          // Each client walks the cases from a different start, so workers
          // see different queries back to back.
          const Case& c = cases[(i + static_cast<std::size_t>(t) * 3) %
                                cases.size()];
          ExchangeOptions opts;
          opts.tcp = c.tcp;
          const auto got = exchange("127.0.0.1", server.port(), c.query, opts);
          if (!got) continue;  // a lost loopback datagram: not a mismatch
          const auto slot = static_cast<std::size_t>(t);
          ++answered[slot];
          if (got->wire != c.expected) ++mismatches[slot];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  server.stop();

  int total = 0;
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "client " << t;
    total += answered[static_cast<std::size_t>(t)];
  }
  EXPECT_GT(total, kClients * kRounds * static_cast<int>(cases.size()) / 2);
}

}  // namespace
}  // namespace recwild::netio
