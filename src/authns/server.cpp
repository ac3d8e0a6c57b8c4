#include "authns/server.hpp"

#include "obs/names.hpp"

namespace recwild::authns {

AuthServer::AuthServer(net::Network& network, net::NodeId node,
                       net::Endpoint endpoint, AuthServerConfig config)
    : network_(network),
      node_(node),
      endpoint_(endpoint),
      config_(std::move(config)),
      responder_(ResponderConfig{config_.identity, config_.plain_udp_limit}) {
  obs::MetricRegistry& m = network_.sim().metrics();
  trace_ = &network_.sim().trace();
  obs_queries_ = &m.counter(obs::names::kAuthnsQueries);
  obs_responses_ = &m.counter(obs::names::kAuthnsResponses);
  obs_truncated_ = &m.counter(obs::names::kAuthnsTruncated);
  obs_fault_refused_ = &m.counter(obs::names::kFaultAuthRefused);
  // obs_formerr_ is resolved lazily on the first malformed datagram:
  // registering it eagerly would add an always-zero counter to every
  // simulation snapshot and invalidate the committed byte-identity
  // fixtures for worlds that never see hostile input.
}

AuthServer::~AuthServer() {
  if (listening_) {
    network_.unlisten(node_, endpoint_);
    for (const auto& ep : extra_endpoints_) network_.unlisten(node_, ep);
  }
}

void AuthServer::listen_also(net::Endpoint ep) {
  extra_endpoints_.push_back(ep);
  if (listening_) {
    network_.listen(node_, ep, [this](const net::Datagram& d, net::NodeId n) {
      on_datagram(d, n);
    });
  }
}

void AuthServer::add_zone(Zone zone) { responder_.add_zone(std::move(zone)); }

void AuthServer::add_zone(std::shared_ptr<const Zone> zone) {
  responder_.add_zone(std::move(zone));
}

void AuthServer::replace_zone(Zone zone) {
  const dns::Name origin = zone.origin();
  responder_.replace_zone(std::move(zone));
  send_notifies(origin);
}

const Zone* AuthServer::zone_for(const dns::Name& origin) const {
  return responder_.zone_for(origin);
}

void AuthServer::add_notify_target(dns::Name origin,
                                   net::Endpoint secondary) {
  notify_targets_.emplace_back(std::move(origin), secondary);
}

void AuthServer::send_notifies(const dns::Name& origin) {
  for (const auto& [zone, target] : notify_targets_) {
    if (!(zone == origin)) continue;
    dns::Message notify;
    notify.header.opcode = dns::Opcode::Notify;
    notify.header.aa = true;
    notify.questions.push_back(
        dns::Question{origin, dns::RRType::SOA, dns::RRClass::IN});
    network_.send(node_, endpoint_, target, dns::encode_message(notify));
  }
}

void AuthServer::set_rrl(const RrlConfig& config) {
  rrl_.set_config(config);
  if (rrl_.enabled()) {
    obs::MetricRegistry& m = network_.sim().metrics();
    obs_rrl_dropped_ = &m.counter(obs::names::kRrlDropped);
    obs_rrl_slipped_ = &m.counter(obs::names::kRrlSlipped);
  }
}

void AuthServer::set_referral_fanout_cap(int cap) {
  responder_.set_max_referral_fanout(cap);
  if (cap > 0) {
    obs_referral_capped_ =
        &network_.sim().metrics().counter(obs::names::kAuthnsReferralCapped);
  }
}

void AuthServer::set_victim(bool victim) {
  victim_ = victim;
  if (victim) {
    obs_victim_queries_ =
        &network_.sim().metrics().counter(obs::names::kAttackVictimQueries);
  }
}

void AuthServer::start() {
  if (listening_) return;
  auto handler = [this](const net::Datagram& d, net::NodeId at) {
    on_datagram(d, at);
  };
  network_.listen(node_, endpoint_, handler);
  for (const auto& ep : extra_endpoints_) network_.listen(node_, ep, handler);
  listening_ = true;
}

void AuthServer::stop() {
  if (!listening_) return;
  network_.unlisten(node_, endpoint_);
  for (const auto& ep : extra_endpoints_) network_.unlisten(node_, ep);
  listening_ = false;
}

dns::Message AuthServer::answer(const dns::Message& query, bool via_stream,
                                net::WireBuffer* wire_out) const {
  return responder_.answer(query, via_stream, wire_out);
}

void AuthServer::on_datagram(const net::Datagram& dgram, net::NodeId at_node) {
  (void)at_node;  // this server IS the site; anycast siblings are separate
  ++queries_received_;
  dns::Message& query = rx_;
  try {
    dns::decode_message(dgram.payload, query);
  } catch (const dns::WireError&) {
    // Undecodable but carrying a full non-response header: answer FORMERR
    // so the client can fail fast instead of burning its retransmit budget
    // (RFC 1035 §4.1.1; what NSD/BIND do). Anything shorter — or a QR=1
    // packet, which must never be answered — is dropped silently.
    auto formerr = Responder::formerr_reply(dgram.payload);
    if (!formerr || down_) return;
    AuthFaultState fault;
    if (fault_provider_) fault = fault_provider_(network_.sim().now());
    if (fault.mode == AuthFailMode::Unresponsive) return;
    if (obs_formerr_ == nullptr) {
      obs_formerr_ =
          &network_.sim().metrics().counter(obs::names::kAuthnsFormerr);
    }
    obs_formerr_->add(1, network_.sim().now());
    net::Duration processing = config_.processing_delay;
    if (fault.mode == AuthFailMode::Slow) processing += fault.extra_delay;
    const net::Endpoint reply_src = dgram.dst;
    const net::Endpoint reply_dst = dgram.src;
    network_.sim().after(
        processing, [this, wire = std::move(*formerr), reply_src,
                     reply_dst]() mutable {
          ++responses_sent_;
          obs_responses_->add(1, network_.sim().now());
          network_.send(node_, reply_src, reply_dst, std::move(wire));
        });
    return;
  }
  if (query.header.qr) return;  // not a query

  // NOTIFY (RFC 1996): acknowledge and hand to the transfer machinery.
  if (query.header.opcode == dns::Opcode::Notify) {
    if (!query.questions.empty() && notify_handler_) {
      notify_handler_(query.question().qname, dgram.src.addr);
    }
    tx_.reset_response(query);
    tx_.header.aa = true;
    network_.send(node_, dgram.dst, dgram.src, dns::encode_message(tx_));
    return;
  }

  if (!query.questions.empty()) {
    obs_queries_->add(1, network_.sim().now());
    if (victim_) obs_victim_queries_->add(1, network_.sim().now());
    log_.record(QueryLogEntry{network_.sim().now(), dgram.src.addr,
                              query.question().qname,
                              query.question().qtype});
    if (trace_->enabled()) {
      trace_->record({network_.sim().now(), obs::TraceKind::AuthQuery,
                      config_.identity, query.question().qname.to_string(),
                      std::string{dns::to_string(query.question().qtype)},
                      0.0});
    }
  }
  if (down_) return;  // crashed process: receives but never answers

  // Pull-based fault injection: ask the provider (if any) how this server
  // misbehaves right now. Severity at the provider: crash > refuse > slow.
  AuthFaultState fault;
  if (fault_provider_) fault = fault_provider_(network_.sim().now());
  if (fault.mode == AuthFailMode::Unresponsive) return;

  dns::Message& resp = tx_;
  net::WireBuffer wire;
  AnswerInfo info;
  if (fault.mode == AuthFailMode::Refused) {
    resp.reset_response(query);
    resp.header.rcode = dns::Rcode::Refused;
    obs_fault_refused_->add(1, network_.sim().now());
  } else {
    responder_.answer(query, resp, dgram.via_stream, &wire, &info);
    if (info.referral_capped) {
      obs_referral_capped_->add(1, network_.sim().now());
    }
    // RRL guards the UDP answer path only: TCP carries a proven source
    // address, and responses to it are never limited (the TC slip exists
    // precisely to funnel real clients there).
    if (!dgram.via_stream && rrl_.enabled() && !query.questions.empty()) {
      const RrlAction action =
          rrl_.check(dgram.src.addr.bits(),
                     rrl_category(resp.header.rcode, info.disposition),
                     network_.sim().now());
      if (action == RrlAction::Drop) {
        obs_rrl_dropped_->add(1, network_.sim().now());
        if (trace_->enabled()) {
          trace_->record({network_.sim().now(), obs::TraceKind::RrlDrop,
                          config_.identity,
                          query.question().qname.to_string(),
                          dgram.src.addr.to_string(), 0.0});
        }
        return;
      }
      if (action == RrlAction::Slip) {
        obs_rrl_slipped_->add(1, network_.sim().now());
        if (trace_->enabled()) {
          trace_->record({network_.sim().now(), obs::TraceKind::RrlSlip,
                          config_.identity,
                          query.question().qname.to_string(),
                          dgram.src.addr.to_string(), 0.0});
        }
        resp = make_slip_reply(query);
        wire = dns::encode_message(resp);
      }
    }
  }
  if (resp.header.tc && !dgram.via_stream) {
    obs_truncated_->add(1, network_.sim().now());
  }
  net::Duration processing = config_.processing_delay;
  if (fault.mode == AuthFailMode::Slow) processing += fault.extra_delay;
  // answer() hands back the bytes its UDP size check produced; only the
  // paths that never ran the check (stream, fault-refused) encode here.
  if (wire.empty()) wire = dns::encode_message(resp);
  const bool via_stream = dgram.via_stream;
  // Capture only the reply endpoints, not the whole query datagram: the
  // payload is dead weight and its buffer should go back to the pool now.
  const net::Endpoint reply_src = dgram.dst;
  const net::Endpoint reply_dst = dgram.src;
  network_.sim().after(
      processing, [this, wire = std::move(wire), reply_src, reply_dst,
                   via_stream]() mutable {
        ++responses_sent_;
        obs_responses_->add(1, network_.sim().now());
        // Reply from the endpoint that received the query (matters for
        // dual-stack servers listening on several addresses).
        if (via_stream) {
          network_.send_stream(node_, reply_src, reply_dst, std::move(wire));
        } else {
          network_.send(node_, reply_src, reply_dst, std::move(wire));
        }
      });
}

}  // namespace recwild::authns
