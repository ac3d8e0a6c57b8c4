#include "authns/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "authns/server.hpp"

namespace recwild::authns {
namespace {

QueryLog sample_log() {
  QueryLog log;
  log.record({net::SimTime::from_micros(1'000),
              net::IpAddress::from_octets(10, 0, 0, 1),
              dns::Name::parse("a.example.nl"), dns::RRType::TXT});
  log.record({net::SimTime::from_micros(2'500),
              net::IpAddress::from_octets(10, 0, 0, 2),
              dns::Name::parse("b.example.nl"), dns::RRType::A});
  return log;
}

TEST(Trace, WriteReadRoundTrip) {
  std::ostringstream out;
  write_trace(out, sample_log(), "fra-site-1");
  std::istringstream in{out.str()};
  const auto records = read_trace(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at.count_micros(), 1'000);
  EXPECT_EQ(records[0].client.to_string(), "10.0.0.1");
  EXPECT_EQ(records[0].server, "fra-site-1");
  EXPECT_EQ(records[0].qname, dns::Name::parse("a.example.nl"));
  EXPECT_EQ(records[0].qtype, dns::RRType::TXT);
  EXPECT_EQ(records[1].qname, dns::Name::parse("b.example.nl"));
  EXPECT_EQ(records[1].qtype, dns::RRType::A);
  // A query log records queries, so its traces carry NOERROR.
  EXPECT_EQ(records[1].rcode, dns::Rcode::NoError);
}

TEST(Trace, ReadsTheRcodeColumn) {
  std::istringstream in{"42\t10.0.0.1\tsrv\tx.nl.\tA\tNXDOMAIN\n"};
  const auto records = read_trace(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rcode, dns::Rcode::NxDomain);
}

TEST(Trace, SkipsCommentsAndBlankLines) {
  std::istringstream in{
      "# DITL-style trace\n"
      "\n"
      "42\t10.0.0.1\tsrv\tx.nl.\tA\tNOERROR\n"};
  const auto records = read_trace(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at.count_micros(), 42);
}

TEST(Trace, RejectsMalformedLines) {
  auto reject = [](const char* text) {
    std::istringstream in{text};
    EXPECT_THROW((void)read_trace(in), std::runtime_error) << text;
  };
  reject("notanumber\t10.0.0.1\tsrv\tx.nl.\tA\tNOERROR\n");
  reject("42\t999.0.0.1\tsrv\tx.nl.\tA\tNOERROR\n");
  reject("42\t10.0.0.1\tsrv\tx.nl.\tBOGUS\tNOERROR\n");
  reject("42\t10.0.0.1\tsrv\tx.nl.\tA\tWEIRD\n");
  reject("42\t10.0.0.1\tsrv\n");
}

TEST(Trace, MergeSortsByTime) {
  std::vector<TraceRecord> t1;
  std::vector<TraceRecord> t2;
  TraceRecord r;
  r.qname = dns::Name::parse("x.nl");
  r.at = net::SimTime::from_micros(30);
  r.server = "b";
  t1.push_back(r);
  r.at = net::SimTime::from_micros(10);
  r.server = "a";
  t2.push_back(r);
  r.at = net::SimTime::from_micros(20);
  r.server = "a";
  t2.push_back(r);
  const auto merged = merge_traces({t1, t2});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].at.count_micros(), 10);
  EXPECT_EQ(merged[1].at.count_micros(), 20);
  EXPECT_EQ(merged[2].at.count_micros(), 30);
}

TEST(Trace, SummarizeCountsPerServerAndClient) {
  std::ostringstream out;
  write_trace(out, sample_log(), "site-a");
  write_trace(out, sample_log(), "site-b");
  std::istringstream in{out.str()};
  const auto stats = summarize_trace(read_trace(in));
  EXPECT_EQ(stats.total, 4u);
  ASSERT_EQ(stats.per_server.size(), 2u);
  EXPECT_EQ(stats.per_server[0].second, 2u);
  ASSERT_EQ(stats.per_client.size(), 2u);
  EXPECT_EQ(stats.per_client[0].second, 2u);
}

TEST(Trace, EndToEndFromSimulatedServer) {
  // Write an actual simulated server's log and re-read it.
  net::Simulation sim{3};
  net::LatencyParams lp;
  lp.loss_rate = 0;
  net::Network network{sim, lp};
  const net::IpAddress addr = network.allocate_address();
  Zone zone{dns::Name::parse("t.nl")};
  dns::SoaRdata soa;
  zone.add({zone.origin(), dns::RRClass::IN, 60, soa});
  zone.add({zone.origin(), dns::RRClass::IN, 60,
            dns::NsRdata{dns::Name::parse("ns.t.nl")}});
  zone.add({dns::Name::parse("*.t.nl"), dns::RRClass::IN, 5,
            dns::TxtRdata{{"x"}}});
  AuthServerConfig cfg;
  cfg.identity = "trace-test";
  AuthServer server{network,
                    network.add_node("s", net::find_location("FRA")->point),
                    net::Endpoint{addr, net::kDnsPort}, cfg};
  server.add_zone(std::move(zone));
  server.start();

  const net::NodeId client =
      network.add_node("c", net::find_location("AMS")->point);
  const net::Endpoint cep{network.allocate_address(), 999};
  network.listen(client, cep, [](const net::Datagram&, net::NodeId) {});
  for (int i = 0; i < 5; ++i) {
    network.send(client, cep, net::Endpoint{addr, net::kDnsPort},
                 dns::encode_message(dns::Message::make_query(
                     static_cast<std::uint16_t>(i),
                     dns::Name::parse("q" + std::to_string(i) + ".t.nl"),
                     dns::RRType::TXT)));
  }
  sim.run();

  std::ostringstream out;
  write_trace(out, server.log(), server.identity());
  std::istringstream in{out.str()};
  const auto records = read_trace(in);
  ASSERT_EQ(records.size(), 5u);
  for (const auto& r : records) {
    EXPECT_EQ(r.server, "trace-test");
    EXPECT_EQ(r.client, cep.addr);
    EXPECT_GT(r.at.count_micros(), 0);
  }
}

}  // namespace
}  // namespace recwild::authns
