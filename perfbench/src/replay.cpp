#include "replay.hpp"

#include <stdexcept>

#include "dnscore/codec.hpp"
#include "experiment/testbed.hpp"
#include "host.hpp"
#include "stats/summary.hpp"

namespace perfbench {

using namespace recwild;

std::vector<std::uint8_t> query_wire(const dns::Name& qname,
                                     dns::RRType qtype, std::uint16_t id) {
  dns::Message q = dns::Message::make_query(id, qname, qtype);
  q.edns = dns::EdnsInfo{};
  const net::WireBuffer w = dns::encode_message(q);
  return {w.data(), w.data() + w.size()};
}

std::vector<BoundaryQuery> logged_queries(experiment::Testbed& tb,
                                          std::size_t limit) {
  std::vector<const authns::AuthServer*> servers;
  std::size_t total = 0;
  for (auto* group : {&tb.roots(), &tb.nl_services(), &tb.test_services()}) {
    for (const auto& svc : *group) {
      for (const auto& site : svc.sites()) {
        servers.push_back(site.server.get());
        total += site.server->log().entries().size();
      }
    }
  }
  const std::size_t stride = limit == 0 ? 1 : (total + limit - 1) / limit;
  std::vector<BoundaryQuery> out;
  out.reserve(total / std::max<std::size_t>(stride, 1) + 1);
  std::size_t i = 0;
  for (const auto* server : servers) {
    for (const auto& e : server->log().entries()) {
      if (i++ % stride != 0) continue;
      out.push_back(BoundaryQuery{
          &server->responder(),
          query_wire(e.qname, e.qtype, static_cast<std::uint16_t>(i))});
    }
  }
  return out;
}

ReplayCost replay(const std::vector<BoundaryQuery>& queries, int passes,
                  Tracer& tracer) {
  if (queries.empty()) throw std::invalid_argument{"nothing to replay"};
  const Tracer::Scope whole{tracer, "replay"};
  const auto n = static_cast<double>(queries.size());
  std::vector<dns::Message> decoded(queries.size());
  std::vector<dns::Message> answers(queries.size());
  std::vector<double> dec, ans, enc;
  std::size_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    std::int64_t t0 = host::now_ns();
    {
      const Tracer::Scope s{tracer, "dnscore.decode"};
      for (std::size_t i = 0; i < queries.size(); ++i) {
        decoded[i] = dns::decode_message(queries[i].wire);
      }
    }
    std::int64_t t1 = host::now_ns();
    dec.push_back(static_cast<double>(t1 - t0) / n);
    {
      const Tracer::Scope s{tracer, "authns.answer"};
      for (std::size_t i = 0; i < queries.size(); ++i) {
        net::WireBuffer wire;
        answers[i] = queries[i].responder->answer(decoded[i], false, &wire);
        sink += wire.size();
      }
    }
    t0 = host::now_ns();
    ans.push_back(static_cast<double>(t0 - t1) / n);
    {
      const Tracer::Scope s{tracer, "dnscore.encode"};
      for (std::size_t i = 0; i < queries.size(); ++i) {
        sink += dns::encode_message(answers[i]).size();
      }
    }
    t1 = host::now_ns();
    enc.push_back(static_cast<double>(t1 - t0) / n);
  }
  if (sink == 0) throw std::runtime_error{"replay produced no bytes"};
  return ReplayCost{stats::median(dec), stats::median(ans), stats::median(enc),
                    queries.size()};
}

}  // namespace perfbench
