// Transport-independent authoritative answer engine — "one engine, two
// transports" (docs/ARCHITECTURE.md).
//
// A Responder owns the zones and the pure query->response logic an
// authoritative needs: RFC 1034 lookups via QueryEngine, CHAOS-class
// identity, AXFR, EDNS0 echo with RFC 6891 payload-size clamping, UDP
// truncation, and the FORMERR reply for undecodable-but-headered input.
// It never touches a transport: the simulated AuthServer (src/authns,
// driven by net::Network) and the kernel-socket server (src/netio, driven
// by epoll) both delegate here, which is what makes the transport-
// equivalence golden test (live bytes == simulated bytes) meaningful.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "authns/query_engine.hpp"
#include "authns/zone.hpp"
#include "dnscore/codec.hpp"
#include "net/wire_buffer.hpp"

namespace recwild::authns {

struct ResponderConfig {
  /// Server identity returned for CH TXT hostname.bind / id.server.
  std::string identity;
  /// Maximum UDP response size when the query carries no EDNS0 (RFC 1035).
  std::size_t plain_udp_limit = 512;
  /// Referral-fanout cap (docs/ATTACKS.md): a referral carries at most this
  /// many NS records (with matching glue). Bounds the per-referral work an
  /// NXNS-style delegation can demand from a resolver. 0 = unlimited.
  int max_referral_fanout = 0;
};

/// Out-of-band facts about an answer() call, for the transport layers:
/// which branch the lookup took (feeds RRL categorisation) and whether the
/// referral-fanout cap trimmed the NS set.
struct AnswerInfo {
  Disposition disposition = Disposition::NotAuth;
  bool referral_capped = false;
};

class Responder {
 public:
  /// RFC 6891 §6.2.3: a requestor's advertised UDP payload size below 512
  /// octets is treated as 512 (values like 0 or 100 would otherwise make
  /// every answer truncate, or worse, make the limit meaningless).
  static constexpr std::size_t kMinUdpPayload = 512;
  /// Our own ceiling on UDP responses, EDNS or not: 1232 octets, the
  /// fragmentation-safe default the DNS flag day 2020 converged on. A
  /// client advertising more does not raise what we are willing to send.
  static constexpr std::size_t kMaxUdpPayload = 1232;

  explicit Responder(ResponderConfig config) : config_(std::move(config)) {}

  void add_zone(Zone zone) {
    zones_.push_back(std::make_shared<const Zone>(std::move(zone)));
  }
  /// Shares a pre-built zone without copying it. The world builders hand
  /// every shard replica (and every anycast site) the same immutable zone
  /// object — zone data is by far the largest build artifact, and answer()
  /// only ever reads it.
  void add_zone(std::shared_ptr<const Zone> zone) {
    zones_.push_back(std::move(zone));
  }

  /// Replaces the zone with the same origin (adds it if absent).
  /// Returns true when an existing zone was replaced.
  bool replace_zone(Zone zone);

  /// The served zone with this origin, or nullptr.
  [[nodiscard]] const Zone* zone_for(const dns::Name& origin) const;

  [[nodiscard]] const std::vector<std::shared_ptr<const Zone>>& zones()
      const noexcept {
    return zones_;
  }
  [[nodiscard]] const std::string& identity() const noexcept {
    return config_.identity;
  }
  [[nodiscard]] const ResponderConfig& config() const noexcept {
    return config_;
  }

  /// Reconfigures the referral-fanout cap (0 = unlimited). Exposed so the
  /// simulated AuthServer can arm the defense after construction.
  void set_max_referral_fanout(int cap) noexcept {
    config_.max_referral_fanout = cap;
  }

  /// Builds the response for `query` in `resp` (a different Message),
  /// replacing its contents but keeping its capacity: a transport that
  /// answers every query into the same Message stops allocating once its
  /// sections have grown. Responses to stream (TCP) queries are never
  /// truncated. When `wire_out` is non-null and the UDP size check already
  /// encoded the response, the encoded bytes are handed back so the caller
  /// does not encode a second time (empty = caller encodes). When `info`
  /// is non-null it receives the lookup disposition and whether the
  /// referral-fanout cap fired.
  void answer(const dns::Message& query, dns::Message& resp,
              bool via_stream = false, net::WireBuffer* wire_out = nullptr,
              AnswerInfo* info = nullptr) const;

  /// answer into a fresh Message.
  [[nodiscard]] dns::Message answer(const dns::Message& query,
                                    bool via_stream = false,
                                    net::WireBuffer* wire_out = nullptr,
                                    AnswerInfo* info = nullptr) const {
    dns::Message resp;
    answer(query, resp, via_stream, wire_out, info);
    return resp;
  }

  /// The truncation limit for a UDP response to `query`: the clamped
  /// client-advertised EDNS size, or plain_udp_limit without EDNS.
  [[nodiscard]] std::size_t udp_limit(const dns::Message& query) const;

  /// FORMERR reply for a datagram decode_message rejected: echoes the id
  /// and opcode of the 12-octet header so the client can match it. Returns
  /// nullopt when no reply must be sent — the datagram is shorter than a
  /// header, or is itself a response (replying would build reflection
  /// loops between broken servers).
  [[nodiscard]] static std::optional<net::WireBuffer> formerr_reply(
      std::span<const std::uint8_t> wire);

 private:
  void answer_chaos(const dns::Message& query, dns::Message& resp) const;
  void answer_axfr(const dns::Message& query, dns::Message& resp,
                   bool via_stream) const;

  ResponderConfig config_;
  /// Served zones; shared immutable (replica worlds and anycast sites all
  /// point at one copy). replace_zone swaps the pointer, never mutates.
  std::vector<std::shared_ptr<const Zone>> zones_;
};

}  // namespace recwild::authns
