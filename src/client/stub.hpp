// Stub resolver: the client side of DNS (a CL box in the paper's Figure 1).
//
// A stub sends recursion-desired queries to its configured recursive
// resolver(s) and reports what came back. RIPE Atlas probes — the paper's
// vantage points — behave exactly like this: query the local recursive,
// record the answer payload and response time.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "net/network.hpp"
#include "stats/node_pool.hpp"
#include "stats/rng.hpp"

namespace recwild::client {

/// One completed stub query.
struct StubResult {
  dns::Question question;
  dns::Rcode rcode = dns::Rcode::ServFail;
  bool timed_out = false;
  /// TXT strings from the answer (the paper's authoritative identifier).
  std::vector<std::string> txt;
  /// All answer records, for non-TXT queries.
  std::vector<dns::ResourceRecord> answers;
  /// Stub-observed resolution time (includes the recursive's work).
  net::Duration elapsed = net::Duration::zero();
  /// Which configured recursive served (index into the stub's list).
  std::size_t recursive_index = 0;
};

using StubCallback = std::function<void(const StubResult&)>;

struct StubConfig {
  /// Per-attempt timeout before trying the next configured recursive.
  net::Duration attempt_timeout = net::Duration::seconds(5);
  /// Full passes over the recursive list before giving up.
  int max_rounds = 2;
};

class StubResolver {
 public:
  StubResolver(net::Network& network, net::NodeId node,
               net::IpAddress address, std::vector<net::IpAddress> recursives,
               StubConfig config, stats::Rng rng);
  ~StubResolver();
  StubResolver(const StubResolver&) = delete;
  StubResolver& operator=(const StubResolver&) = delete;

  void start();
  void stop();

  /// Sends one query; the callback fires on answer or final timeout.
  void query(dns::Name qname, dns::RRType qtype, StubCallback cb);

  [[nodiscard]] const std::vector<net::IpAddress>& recursives()
      const noexcept {
    return recursives_;
  }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] net::IpAddress address() const noexcept { return address_; }

 private:
  struct Pending {
    dns::Question question;
    StubCallback cb;
    net::SimTime started_at;
    std::size_t recursive_index = 0;
    int attempts = 0;
    net::EventId timeout_event = 0;
  };

  using PendingMap = std::unordered_map<std::uint16_t, Pending>;

  void send_attempt(std::uint16_t txid);
  /// Accepts a reply only from one of the configured recursives' port 53
  /// — any of them, as glibc does, so a late reply from the recursive
  /// asked before a rotation still counts — and only for a pending txid
  /// and question.
  void on_datagram(const net::Datagram& dgram);
  void on_timeout(std::uint16_t txid);
  /// Removes the query at `it` and calls its callback with `result`.
  void complete(PendingMap::iterator it, const StubResult& result);

  net::Network& network_;
  net::NodeId node_;
  net::IpAddress address_;
  std::vector<net::IpAddress> recursives_;
  StubConfig config_;
  stats::Rng rng_;
  net::Endpoint ep_;
  bool listening_ = false;
  PendingMap pending_;  // by txid
  stats::NodePool<PendingMap> pending_nodes_;
  /// This node's receive and transmit messages, reused across queries,
  /// and the storage of a result's TXT strings. The received message is
  /// valid only inside on_datagram; nothing scheduled may capture it.
  dns::Message rx_;
  dns::Message tx_;
  std::vector<std::string> txt_;
};

}  // namespace recwild::client
