// Authoritative DNS server bound to a simulated network node — the stand-in
// for the paper's NSD 4.1.7 instances on EC2.
//
// One AuthServer serves one or more zones on one (address, port) binding.
// Binding several servers (sites) to the same address forms an anycast
// service; each site then answers the catchment the network routes to it.
//
// Features exercised by the experiments:
//  * RFC 1034 answers via QueryEngine (TXT lookups for the test domain);
//  * per-site answers for the same name — the paper identifies which
//    authoritative answered by serving a *different* TXT string at each;
//  * CHAOS-class identity queries (hostname.bind / id.server TXT CH);
//  * EDNS0 echo and UDP truncation (TC bit) past the advertised size;
//  * failure injection (server down / unresponsive) and processing delay;
//  * a QueryLog, the analogue of the paper's server-side captures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "authns/query_log.hpp"
#include "authns/responder.hpp"
#include "authns/rrl.hpp"
#include "authns/zone.hpp"
#include "dnscore/codec.hpp"
#include "net/network.hpp"

namespace recwild::authns {

struct AuthServerConfig {
  /// Server identity returned for CH TXT hostname.bind / id.server.
  std::string identity;
  /// Processing time added to every response (NSD is fast; default 200us).
  net::Duration processing_delay = net::Duration::micros(200);
  /// Maximum UDP response size when the query carries no EDNS0 (RFC 1035).
  std::size_t plain_udp_limit = 512;
};

/// How an authoritative misbehaves under an active fault (src/fault).
/// Evaluated pull-style per datagram by the provider installed via
/// AuthServer::set_fault_provider — no scheduled transition events, which
/// is what keeps sharded replica worlds merge-identical.
enum class AuthFailMode : unsigned char {
  None,          ///< Healthy.
  Unresponsive,  ///< Receives and logs, never answers (crashed process).
  Refused,       ///< Answers every query with rcode REFUSED (lame server).
  Slow,          ///< Answers after extra_delay on top of processing_delay.
};

struct AuthFaultState {
  AuthFailMode mode = AuthFailMode::None;
  /// Additional processing delay while mode == Slow.
  net::Duration extra_delay = net::Duration::zero();
};

/// Returns the server's fault state at `now`. Must be deterministic in
/// sim time alone (same contract as net::PacketFaultHook).
using AuthFaultProvider = std::function<AuthFaultState(net::SimTime)>;

class AuthServer {
 public:
  /// Creates a server on `node`, listening on {address, port}.
  /// Registration with the network happens in start().
  AuthServer(net::Network& network, net::NodeId node, net::Endpoint endpoint,
             AuthServerConfig config);

  ~AuthServer();
  AuthServer(const AuthServer&) = delete;
  AuthServer& operator=(const AuthServer&) = delete;

  /// Adds a zone. The server answers authoritatively for it.
  void add_zone(Zone zone);
  /// Shares a pre-built immutable zone (no copy); see Responder::add_zone.
  void add_zone(std::shared_ptr<const Zone> zone);

  /// Replaces the zone with the same origin (a reload / transferred copy);
  /// adds it if absent. Then notifies registered secondaries.
  void replace_zone(Zone zone);

  /// The served zone with this origin, or nullptr.
  [[nodiscard]] const Zone* zone_for(const dns::Name& origin) const;

  /// Registers a secondary to receive NOTIFY (RFC 1996) when a zone with
  /// `origin` is replaced.
  void add_notify_target(dns::Name origin, net::Endpoint secondary);

  /// Hook invoked when a NOTIFY arrives: (zone, primary address). Used by
  /// SecondaryZone to trigger an immediate refresh.
  using NotifyHandler =
      std::function<void(const dns::Name&, net::IpAddress)>;
  void set_notify_handler(NotifyHandler handler) {
    notify_handler_ = std::move(handler);
  }

  /// Begins listening. Idempotent.
  void start();
  /// Stops listening (packets to this site are then unroutable).
  void stop();

  /// Additionally listens on `ep` (e.g. the service's IPv6-plane address).
  /// Replies are sourced from whichever endpoint received the query.
  void listen_also(net::Endpoint ep);

  /// Failure injection: while down, queries are received but ignored
  /// (timeouts at the resolver), as with a crashed nameserver process.
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool is_down() const noexcept { return down_; }

  /// Installs (or, with nullptr, removes) the fault provider consulted on
  /// every query. Independent of set_down; whichever says "don't answer"
  /// wins. The caller keeps the provider's captures alive while installed.
  void set_fault_provider(AuthFaultProvider provider) {
    fault_provider_ = std::move(provider);
  }

  /// Arms (or, with rate 0, disarms) response-rate limiting on the UDP
  /// answer path. Registers the rrl.* counters eagerly — callers arm RRL
  /// at world-build time, so every shard replica registers identically.
  void set_rrl(const RrlConfig& config);
  [[nodiscard]] const Rrl& rrl() const noexcept { return rrl_; }

  /// Caps the NS fanout of referrals this server emits (0 = unlimited).
  /// Registers authns.referral.capped eagerly (same build-time contract).
  void set_referral_fanout_cap(int cap);

  /// Marks this server as an attack victim: every received query is also
  /// counted under attack.victim.queries, the numerator of the measured
  /// amplification factor. Registered eagerly at marking time.
  void set_victim(bool victim);
  [[nodiscard]] bool is_victim() const noexcept { return victim_; }

  [[nodiscard]] const net::Endpoint& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& identity() const noexcept {
    return config_.identity;
  }

  /// The transport-independent answer engine this server wraps. The
  /// kernel-socket front-end (src/netio) drives the same class, which is
  /// what the transport-equivalence test pins.
  [[nodiscard]] const Responder& responder() const noexcept {
    return responder_;
  }

  [[nodiscard]] QueryLog& log() noexcept { return log_; }
  [[nodiscard]] const QueryLog& log() const noexcept { return log_; }

  [[nodiscard]] std::uint64_t queries_received() const noexcept {
    return queries_received_;
  }
  [[nodiscard]] std::uint64_t responses_sent() const noexcept {
    return responses_sent_;
  }

  /// Builds the response for `query` (exposed for unit tests; the network
  /// path calls this internally). Responses to stream (TCP) queries are
  /// never truncated. When `wire_out` is non-null and the UDP size check
  /// already encoded the response, the encoded bytes are handed back so the
  /// caller does not encode a second time (empty = caller must encode).
  [[nodiscard]] dns::Message answer(const dns::Message& query,
                                    bool via_stream = false,
                                    net::WireBuffer* wire_out = nullptr) const;

 private:
  void on_datagram(const net::Datagram& dgram, net::NodeId at_node);
  void send_notifies(const dns::Name& origin);

  net::Network& network_;
  net::NodeId node_;
  net::Endpoint endpoint_;
  std::vector<net::Endpoint> extra_endpoints_;
  AuthServerConfig config_;
  Responder responder_;
  std::vector<std::pair<dns::Name, net::Endpoint>> notify_targets_;
  NotifyHandler notify_handler_;
  AuthFaultProvider fault_provider_;
  QueryLog log_;
  Rrl rrl_;
  /// This node's receive and transmit messages: every query decodes into
  /// rx_ and every reply is built in tx_, reusing their capacity. Both are
  /// valid only inside on_datagram; nothing scheduled may capture them.
  dns::Message rx_;
  dns::Message tx_;
  bool listening_ = false;
  bool down_ = false;
  bool victim_ = false;
  std::uint64_t queries_received_ = 0;
  std::uint64_t responses_sent_ = 0;
  // Observability: cached handles into the simulation's registry/trace.
  obs::DecisionTrace* trace_ = nullptr;
  obs::Counter* obs_queries_ = nullptr;
  obs::Counter* obs_responses_ = nullptr;
  obs::Counter* obs_truncated_ = nullptr;
  obs::Counter* obs_formerr_ = nullptr;
  obs::Counter* obs_fault_refused_ = nullptr;
  // Defense/attack counters, registered eagerly by their set_* calls (which
  // run at world-build time) so shard replicas register identically, and
  // absent entirely from worlds that never arm the features.
  obs::Counter* obs_rrl_dropped_ = nullptr;
  obs::Counter* obs_rrl_slipped_ = nullptr;
  obs::Counter* obs_referral_capped_ = nullptr;
  obs::Counter* obs_victim_queries_ = nullptr;
};

}  // namespace recwild::authns
