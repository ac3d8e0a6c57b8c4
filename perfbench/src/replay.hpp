// Replay of the authoritative boundary: the queries a run's authoritatives
// logged, decoded, answered and re-encoded outside the run, so the codec
// and responder cost per message can be timed on the workload's own
// traffic without instrumenting the program.
#pragma once

#include <cstdint>
#include <vector>

#include "authns/responder.hpp"
#include "bench.hpp"

namespace recwild::experiment {
class Testbed;
}

namespace perfbench {

/// One query as it reached an authoritative, with the responder that
/// answered it.
struct BoundaryQuery {
  const recwild::authns::Responder* responder = nullptr;
  std::vector<std::uint8_t> wire;
};

/// Per-message cost, each the median over the replay passes.
struct ReplayCost {
  double decode_ns = 0.0;
  double answer_ns = 0.0;  ///< Responder::answer on the UDP path, which
                           ///< includes the size-check encode.
  double encode_ns = 0.0;
  std::size_t messages = 0;
};

/// The wire form of a query as the simulated resolvers send it (EDNS0 on).
std::vector<std::uint8_t> query_wire(const recwild::dns::Name& qname,
                                     recwild::dns::RRType qtype,
                                     std::uint16_t id);

/// Up to `limit` of the queries every authoritative site of `tb` logged,
/// taken at an even stride over the logs.
std::vector<BoundaryQuery> logged_queries(recwild::experiment::Testbed& tb,
                                          std::size_t limit);

/// Times decode, answer and encode over `queries`, `passes` times, inside
/// spans dnscore.decode, authns.answer and dnscore.encode under `replay`.
ReplayCost replay(const std::vector<BoundaryQuery>& queries, int passes,
                  Tracer& tracer);

}  // namespace perfbench
