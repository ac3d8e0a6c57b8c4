// Primary/secondary zone propagation: SOA refresh, AXFR over the stream
// transport, NOTIFY fan-out, serial gating and failure retry.
#include "authns/secondary.hpp"

#include <gtest/gtest.h>

namespace recwild::authns {
namespace {

Zone make_zone(std::uint32_t serial, const char* payload) {
  Zone z{dns::Name::parse("example.nl")};
  dns::SoaRdata soa;
  soa.mname = dns::Name::parse("ns1.example.nl");
  soa.rname = dns::Name::parse("hostmaster.example.nl");
  soa.serial = serial;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 1209600;
  soa.minimum = 300;
  z.add({z.origin(), dns::RRClass::IN, 3600, soa});
  z.add({z.origin(), dns::RRClass::IN, 3600,
         dns::NsRdata{dns::Name::parse("ns1.example.nl")}});
  z.add({dns::Name::parse("ns1.example.nl"), dns::RRClass::IN, 3600,
         dns::ARdata{net::IpAddress{0x01020304}}});
  z.add({dns::Name::parse("www.example.nl"), dns::RRClass::IN, 300,
         dns::TxtRdata{{payload}}});
  return z;
}

struct World {
  net::Simulation sim{606};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<AuthServer> primary;
  std::unique_ptr<AuthServer> secondary_server;
  std::unique_ptr<SecondaryZone> secondary;

  World() {
    params.loss_rate = 0;
    net_ = std::make_unique<net::Network>(sim, params);
    const auto loc = [](const char* c) {
      return net::find_location(c)->point;
    };
    AuthServerConfig pcfg;
    pcfg.identity = "primary";
    primary = std::make_unique<AuthServer>(
        *net_, net_->add_node("primary", loc("AMS")),
        net::Endpoint{net_->allocate_address(), net::kDnsPort}, pcfg);
    primary->add_zone(make_zone(1, "v1"));
    primary->start();

    AuthServerConfig scfg;
    scfg.identity = "secondary";
    secondary_server = std::make_unique<AuthServer>(
        *net_, net_->add_node("secondary", loc("FRA")),
        net::Endpoint{net_->allocate_address(), net::kDnsPort}, scfg);
    secondary_server->start();

    SecondaryConfig xcfg;
    xcfg.refresh_override = net::Duration::minutes(10);
    secondary = std::make_unique<SecondaryZone>(
        *net_, *secondary_server, dns::Name::parse("example.nl"),
        primary->endpoint(), xcfg, stats::Rng{12});
  }

  /// What the secondary currently answers for www TXT.
  std::string serve_www() {
    const auto resp = secondary_server->answer(dns::Message::make_query(
        1, dns::Name::parse("www.example.nl"), dns::RRType::TXT));
    if (resp.answers.empty()) return "";
    return std::string{*resp.answers[0].rdata().txt().begin()};
  }
};

TEST(Secondary, InitialTransferPopulatesZone) {
  World w;
  EXPECT_FALSE(w.secondary->has_zone());
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));
  EXPECT_TRUE(w.secondary->has_zone());
  EXPECT_EQ(w.secondary->serial(), 1u);
  EXPECT_EQ(w.secondary->transfers(), 1u);
  EXPECT_EQ(w.serve_www(), "v1");
}

TEST(Secondary, RefreshWithoutChangeSkipsTransfer) {
  World w;
  w.secondary->start();
  // Run past several refresh intervals.
  w.sim.run_until(w.sim.now() + net::Duration::minutes(35));
  EXPECT_GE(w.secondary->soa_checks(), 3u);
  EXPECT_EQ(w.secondary->transfers(), 1u);  // serial never moved
}

TEST(Secondary, SerialBumpTriggersTransferOnRefresh) {
  World w;
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));
  // Update the primary quietly (no NOTIFY targets registered).
  w.primary->replace_zone(make_zone(2, "v2"));
  EXPECT_EQ(w.serve_www(), "v1");  // not yet propagated
  w.sim.run_until(w.sim.now() + net::Duration::minutes(11));
  EXPECT_EQ(w.secondary->serial(), 2u);
  EXPECT_EQ(w.serve_www(), "v2");
}

TEST(Secondary, NotifyPropagatesAlmostImmediately) {
  World w;
  // NOTIFY goes to the secondary's port 53, like real primaries do.
  w.primary->add_notify_target(dns::Name::parse("example.nl"),
                               w.secondary_server->endpoint());
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));

  w.primary->replace_zone(make_zone(5, "v5"));  // sends NOTIFY
  w.sim.run_until(w.sim.now() + net::Duration::seconds(10));
  EXPECT_EQ(w.secondary->serial(), 5u);
  EXPECT_EQ(w.serve_www(), "v5");
  EXPECT_EQ(w.secondary->transfers(), 2u);
}

TEST(Secondary, SerialArithmeticWrapsCorrectly) {
  World w;
  w.primary->replace_zone(make_zone(0xfffffff0u, "old"));
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));
  EXPECT_EQ(w.secondary->serial(), 0xfffffff0u);
  // Wrap past zero: 0x10 is "newer" than 0xfffffff0 in RFC 1982 terms.
  w.primary->replace_zone(make_zone(0x10, "new"));
  w.sim.run_until(w.sim.now() + net::Duration::minutes(11));
  EXPECT_EQ(w.secondary->serial(), 0x10u);
  EXPECT_EQ(w.serve_www(), "new");
}

TEST(Secondary, PrimaryDownRetriesAndRecovers) {
  World w;
  SecondaryConfig xcfg;
  xcfg.refresh_override = net::Duration::minutes(10);
  xcfg.retry_override = net::Duration::seconds(30);
  xcfg.query_timeout = net::Duration::seconds(2);
  w.secondary = std::make_unique<SecondaryZone>(
      *w.net_, *w.secondary_server, dns::Name::parse("example.nl"),
      w.primary->endpoint(), xcfg, stats::Rng{13});
  w.primary->set_down(true);
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::minutes(2));
  EXPECT_FALSE(w.secondary->has_zone());
  EXPECT_GE(w.secondary->failures(), 2u);

  w.primary->set_down(false);
  w.sim.run_until(w.sim.now() + net::Duration::minutes(2));
  EXPECT_TRUE(w.secondary->has_zone());
  EXPECT_EQ(w.serve_www(), "v1");
}

TEST(Secondary, OnTransferredCallbackFires) {
  World w;
  std::vector<std::uint32_t> serials;
  w.secondary->on_transferred = [&](std::uint32_t s) {
    serials.push_back(s);
  };
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));
  ASSERT_EQ(serials.size(), 1u);
  EXPECT_EQ(serials[0], 1u);
}

TEST(Secondary, TeardownWithInflightSoaCheckIsClean) {
  World w;
  // start() sends the initial SOA check synchronously and arms its
  // query-timeout event. Destroy the SecondaryZone while both are live:
  // the destructor must cancel the timeout (it used to leak, firing into
  // a dead object) and the world must still drain.
  w.secondary->start();
  w.secondary.reset();
  w.sim.run();
  EXPECT_EQ(w.sim.pending(), 0u);
}

TEST(Secondary, StopCancelsARunningRefreshLoop) {
  World w;
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));
  ASSERT_TRUE(w.secondary->has_zone());
  w.secondary->stop();
  // Neither the refresh timer nor a query timeout survives stop().
  w.sim.run();
  EXPECT_EQ(w.sim.pending(), 0u);
}

TEST(Secondary, NotifyAfterStopDoesNotRearmTheLoop) {
  World w;
  w.primary->add_notify_target(dns::Name::parse("example.nl"),
                               w.secondary_server->endpoint());
  w.secondary->start();
  w.sim.run_until(w.sim.now() + net::Duration::seconds(30));
  ASSERT_EQ(w.secondary->serial(), 1u);
  w.secondary->stop();
  const auto checks = w.secondary->soa_checks();

  w.primary->replace_zone(make_zone(9, "v9"));  // sends NOTIFY
  w.sim.run();
  EXPECT_EQ(w.secondary->soa_checks(), checks);  // nothing re-armed
  EXPECT_EQ(w.secondary->serial(), 1u);
  EXPECT_EQ(w.sim.pending(), 0u);
}

TEST(Axfr, OverUdpIsTruncated) {
  World w;
  const auto resp = w.primary->answer(
      dns::Message::make_query(9, dns::Name::parse("example.nl"),
                               dns::RRType::AXFR),
      /*via_stream=*/false);
  EXPECT_TRUE(resp.header.tc);
  EXPECT_TRUE(resp.answers.empty());
}

TEST(Axfr, OverStreamReturnsFullZoneSoaBracketed) {
  World w;
  const auto resp = w.primary->answer(
      dns::Message::make_query(9, dns::Name::parse("example.nl"),
                               dns::RRType::AXFR),
      /*via_stream=*/true);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::NoError);
  ASSERT_GE(resp.answers.size(), 4u);
  EXPECT_EQ(resp.answers.front().type(), dns::RRType::SOA);
  EXPECT_EQ(resp.answers.back().type(), dns::RRType::SOA);
}

TEST(Axfr, UnknownZoneRefused) {
  World w;
  const auto resp = w.primary->answer(
      dns::Message::make_query(9, dns::Name::parse("other.org"),
                               dns::RRType::AXFR),
      /*via_stream=*/true);
  EXPECT_EQ(resp.header.rcode, dns::Rcode::Refused);
}

}  // namespace
}  // namespace recwild::authns
