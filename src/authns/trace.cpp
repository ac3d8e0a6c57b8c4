#include "authns/trace.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>
#include <stdexcept>

namespace recwild::authns {

void write_trace(std::ostream& out, const QueryLog& log,
                 const std::string& server_identity) {
  for (const auto& e : log.entries()) {
    out << e.at.count_micros() << '\t' << e.client.to_string() << '\t'
        << server_identity << '\t' << e.qname.to_string() << '\t'
        << dns::to_string(e.qtype) << '\t'
        << dns::to_string(dns::Rcode::NoError) << '\n';
  }
}

namespace {

net::IpAddress parse_addr(const std::string& text, std::size_t line_no) {
  unsigned a = 256, b = 256, c = 256, d = 256;
  char extra = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) !=
          4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    throw std::runtime_error{"trace line " + std::to_string(line_no) +
                             ": bad address '" + text + "'"};
  }
  return net::IpAddress::from_octets(
      static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
      static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

}  // namespace

std::vector<TraceRecord> read_trace(std::istream& in) {
  std::vector<TraceRecord> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string t_us, client, server, qname, qtype, rcode;
    if (!std::getline(fields, t_us, '\t') ||
        !std::getline(fields, client, '\t') ||
        !std::getline(fields, server, '\t') ||
        !std::getline(fields, qname, '\t') ||
        !std::getline(fields, qtype, '\t') ||
        !std::getline(fields, rcode, '\t')) {
      throw std::runtime_error{"trace line " + std::to_string(line_no) +
                               ": expected 6 tab-separated fields"};
    }
    TraceRecord rec;
    std::int64_t us = 0;
    const auto [ptr, ec] =
        std::from_chars(t_us.data(), t_us.data() + t_us.size(), us);
    if (ec != std::errc{} || ptr != t_us.data() + t_us.size()) {
      throw std::runtime_error{"trace line " + std::to_string(line_no) +
                               ": bad timestamp"};
    }
    rec.at = net::SimTime::from_micros(us);
    rec.client = parse_addr(client, line_no);
    rec.server = server;
    rec.qname = dns::Name::parse(qname);
    const auto qt = dns::rrtype_from_string(qtype);
    if (!qt) {
      throw std::runtime_error{"trace line " + std::to_string(line_no) +
                               ": bad qtype '" + qtype + "'"};
    }
    rec.qtype = *qt;
    // Rcode: match by name over the small known set.
    bool rcode_ok = false;
    for (const auto rc :
         {dns::Rcode::NoError, dns::Rcode::FormErr, dns::Rcode::ServFail,
          dns::Rcode::NxDomain, dns::Rcode::NotImp, dns::Rcode::Refused}) {
      if (dns::to_string(rc) == rcode) {
        rec.rcode = rc;
        rcode_ok = true;
      }
    }
    if (!rcode_ok) {
      throw std::runtime_error{"trace line " + std::to_string(line_no) +
                               ": bad rcode '" + rcode + "'"};
    }
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<TraceRecord> merge_traces(
    std::vector<std::vector<TraceRecord>> traces) {
  std::vector<TraceRecord> merged;
  std::size_t total = 0;
  for (const auto& t : traces) total += t.size();
  merged.reserve(total);
  for (auto& t : traces) {
    merged.insert(merged.end(), std::make_move_iterator(t.begin()),
                  std::make_move_iterator(t.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.at < b.at;
                   });
  return merged;
}

TraceStats summarize_trace(const std::vector<TraceRecord>& records) {
  TraceStats stats;
  std::map<std::string, std::uint64_t> servers;
  std::map<std::uint32_t, std::uint64_t> clients;
  for (const auto& r : records) {
    ++servers[r.server];
    ++clients[r.client.bits()];
    ++stats.total;
  }
  for (auto& [server, n] : servers) stats.per_server.emplace_back(server, n);
  for (auto& [client, n] : clients) {
    stats.per_client.emplace_back(net::IpAddress{client}, n);
  }
  // Heaviest first, like a DITL report.
  std::sort(stats.per_client.begin(), stats.per_client.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return stats;
}

}  // namespace recwild::authns
