// Microbenchmarks (google-benchmark): the substrate hot paths — wire codec,
// zone lookup, caches, selection, and the event loop. Not a paper figure;
// documents the cost profile of the library.
#include <benchmark/benchmark.h>

#include "authns/query_engine.hpp"
#include "dnscore/codec.hpp"
#include "net/network.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/record_cache.hpp"
#include "resolver/selection.hpp"

namespace {

using namespace recwild;

dns::Message sample_response() {
  dns::Message m = dns::Message::make_query(
      1234, dns::Name::parse("q1234x7.ourtestdomain.nl"), dns::RRType::TXT);
  m.header.qr = true;
  m.header.aa = true;
  m.edns = dns::EdnsInfo{};
  m.answers.push_back(
      dns::ResourceRecord{dns::Name::parse("q1234x7.ourtestdomain.nl"),
                          dns::RRClass::IN, 5, dns::TxtRdata{{"FRA"}}});
  m.authorities.push_back(dns::ResourceRecord{
      dns::Name::parse("ourtestdomain.nl"), dns::RRClass::IN, 172800,
      dns::NsRdata{dns::Name::parse("ns-fra.ourtestdomain.nl")}});
  m.additionals.push_back(dns::ResourceRecord{
      dns::Name::parse("ns-fra.ourtestdomain.nl"), dns::RRClass::IN, 172800,
      dns::ARdata{net::IpAddress::from_octets(10, 0, 0, 1)}});
  return m;
}

void BM_EncodeMessage(benchmark::State& state) {
  const dns::Message m = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode_message(m));
  }
}
BENCHMARK(BM_EncodeMessage);

void BM_DecodeMessage(benchmark::State& state) {
  const auto wire = dns::encode_message(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode_message(wire));
  }
}
BENCHMARK(BM_DecodeMessage);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Name::parse("www.some.deep.example.nl"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCompare(benchmark::State& state) {
  const auto a = dns::Name::parse("aaa.example.nl");
  const auto b = dns::Name::parse("aab.example.nl");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_NameCompare);

void BM_ZoneLookup(benchmark::State& state) {
  authns::Zone zone{dns::Name::parse("nl")};
  dns::SoaRdata soa;
  zone.add({zone.origin(), dns::RRClass::IN, 3600, soa});
  zone.add({zone.origin(), dns::RRClass::IN, 3600,
            dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    zone.add({dns::Name::parse("host" + std::to_string(i) + ".nl"),
              dns::RRClass::IN, 3600,
              dns::ARdata{net::IpAddress{static_cast<std::uint32_t>(i)}}});
  }
  const authns::QueryEngine engine{zone};
  const dns::Question q{dns::Name::parse("host7.nl"), dns::RRType::A,
                        dns::RRClass::IN};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.lookup(q));
  }
}
BENCHMARK(BM_ZoneLookup)->Arg(100)->Arg(10'000);

void BM_RecordCachePutGet(benchmark::State& state) {
  resolver::RecordCache cache;
  dns::RRset set;
  set.name = dns::Name::parse("x.nl");
  set.type = dns::RRType::A;
  set.ttl = 300;
  set.add(dns::ResourceRecord{set.name, dns::RRClass::IN, 300,
                              dns::ARdata{net::IpAddress{1}}}
              .rdata()
              .wire());
  const net::SimTime now;
  for (auto _ : state) {
    cache.put(set, now);
    benchmark::DoNotOptimize(cache.get(set.name, set.type, now));
  }
}
BENCHMARK(BM_RecordCachePutGet);

void BM_InfraCacheUpdate(benchmark::State& state) {
  resolver::InfraCache cache;
  const net::SimTime now;
  std::uint32_t i = 0;
  for (auto _ : state) {
    cache.report_rtt(net::IpAddress{i++ % 16}, net::Duration::millis(40),
                     now);
  }
}
BENCHMARK(BM_InfraCacheUpdate);

void BM_Selection(benchmark::State& state) {
  const auto kind = static_cast<resolver::PolicyKind>(state.range(0));
  auto sel = resolver::make_selector(kind);
  resolver::InfraCache infra;
  stats::Rng rng{1};
  const dns::Name zone = dns::Name::parse("nl");
  std::vector<net::IpAddress> servers;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    servers.push_back(net::IpAddress{i});
    infra.report_rtt(net::IpAddress{i},
                     net::Duration::millis(20.0 + 30.0 * i), {});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sel->select(zone, servers, infra, {}, rng));
  }
}
BENCHMARK(BM_Selection)
    ->Arg(static_cast<int>(resolver::PolicyKind::BindSrtt))
    ->Arg(static_cast<int>(resolver::PolicyKind::UnboundBand))
    ->Arg(static_cast<int>(resolver::PolicyKind::UniformRandom));

void BM_EventLoop(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulation sim{1};
    for (int i = 0; i < 1'000; ++i) {
      sim.after(net::Duration::micros(i), [] {});
    }
    sim.run();
  }
}
BENCHMARK(BM_EventLoop);

void BM_NetworkDatagram(benchmark::State& state) {
  net::Simulation sim{1};
  net::LatencyParams params;
  params.loss_rate = 0;
  net::Network network{sim, params};
  const auto a = network.add_node("a", net::find_location("FRA")->point);
  const auto b = network.add_node("b", net::find_location("AMS")->point);
  const net::Endpoint ep{network.allocate_address(), 53};
  network.listen(b, ep, [](const net::Datagram&, net::NodeId) {});
  for (auto _ : state) {
    network.send(a, net::Endpoint{}, ep, {1, 2, 3});
    sim.run();
  }
}
BENCHMARK(BM_NetworkDatagram);

}  // namespace

BENCHMARK_MAIN();
