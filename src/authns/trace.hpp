// Query-trace serialization — the repo's stand-in for DITL pcaps and the
// ENTRADA warehouse (paper §3.2): authoritative query logs can be written
// to a compact text format, merged across servers/sites, and read back for
// offline analysis, so experiment runs can be archived and re-analyzed
// without re-simulating.
//
// Format (one record per line, tab-separated):
//   <t_us>\t<client>\t<server>\t<qname>\t<qtype>\t<rcode>
// write_trace() fills <rcode> with NOERROR: a QueryLog records queries,
// not answers. read_trace() accepts any rcode, for traces made elsewhere.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "authns/query_log.hpp"

namespace recwild::authns {

/// One trace record: a QueryLogEntry plus which server saw it.
struct TraceRecord {
  net::SimTime at;
  net::IpAddress client;
  std::string server;  // service/site identity
  dns::Name qname;
  dns::RRType qtype = dns::RRType::A;
  dns::Rcode rcode = dns::Rcode::NoError;

  bool operator==(const TraceRecord&) const = default;
};

/// Appends a server's log to `out` under the given server identity.
void write_trace(std::ostream& out, const QueryLog& log,
                 const std::string& server_identity);

/// Parses a trace; throws std::runtime_error on malformed lines.
std::vector<TraceRecord> read_trace(std::istream& in);

/// Merges (time-sorts) multiple traces into one.
std::vector<TraceRecord> merge_traces(
    std::vector<std::vector<TraceRecord>> traces);

/// Per-client query counts per server — the Figure-7 aggregation, but from
/// an offline trace instead of live logs.
struct TraceStats {
  /// server identity -> total queries
  std::vector<std::pair<std::string, std::uint64_t>> per_server;
  /// client -> total queries
  std::vector<std::pair<net::IpAddress, std::uint64_t>> per_client;
  std::uint64_t total = 0;
};
TraceStats summarize_trace(const std::vector<TraceRecord>& records);

}  // namespace recwild::authns
