#include "authns/responder.hpp"

#include <algorithm>

namespace recwild::authns {

bool Responder::replace_zone(Zone zone) {
  const dns::Name origin = zone.origin();
  for (auto& z : zones_) {
    if (z->origin() == origin) {
      z = std::make_shared<const Zone>(std::move(zone));
      return true;
    }
  }
  zones_.push_back(std::make_shared<const Zone>(std::move(zone)));
  return false;
}

const Zone* Responder::zone_for(const dns::Name& origin) const {
  for (const auto& z : zones_) {
    if (z->origin() == origin) return z.get();
  }
  return nullptr;
}

void Responder::answer_chaos(const dns::Message& query,
                             dns::Message& resp) const {
  // NSD-style identity: CH TXT hostname.bind and id.server return the
  // configured identity string (RFC 4892 / RFC 8914 practice).
  resp.reset_response(query);
  const auto& q = query.question();
  static const dns::Name kHostnameBind = dns::Name::parse("hostname.bind");
  static const dns::Name kIdServer = dns::Name::parse("id.server");
  if (q.qtype == dns::RRType::TXT &&
      (q.qname == kHostnameBind || q.qname == kIdServer)) {
    resp.header.aa = true;
    resp.answers.push_back(dns::ResourceRecord{
        q.qname, dns::RRClass::CH, 0, dns::TxtRdata{{config_.identity}}});
  } else {
    resp.header.rcode = dns::Rcode::Refused;
  }
}

void Responder::answer_axfr(const dns::Message& query, dns::Message& resp,
                            bool via_stream) const {
  resp.reset_response(query);
  // AXFR requires the stream transport (RFC 5936 §4.2): over UDP the
  // server replies with TC so the client retries over TCP.
  if (!via_stream) {
    resp.header.tc = true;
    return;
  }
  const Zone* zone = zone_for(query.question().qname);
  if (zone == nullptr || !zone->soa()) {
    resp.header.rcode = dns::Rcode::Refused;
    return;
  }
  resp.header.aa = true;
  // SOA first and last, the full zone in between.
  const auto all = zone->all_records();
  const auto soa_it =
      std::find_if(all.begin(), all.end(), [](const dns::ResourceRecord& r) {
        return r.type() == dns::RRType::SOA;
      });
  resp.answers.push_back(*soa_it);
  for (const auto& rr : all) {
    if (rr.type() != dns::RRType::SOA) resp.answers.push_back(rr);
  }
  resp.answers.push_back(*soa_it);
}

std::size_t Responder::udp_limit(const dns::Message& query) const {
  if (!query.edns) return config_.plain_udp_limit;
  // RFC 6891: the advertised size is attacker-controlled input. Below 512
  // it is nonsense (the RFC says treat as 512); above our own ceiling it
  // does not oblige us to risk fragmentation.
  return std::clamp<std::size_t>(query.edns->udp_payload_size, kMinUdpPayload,
                                 kMaxUdpPayload);
}

void Responder::answer(const dns::Message& query, dns::Message& resp,
                       bool via_stream, net::WireBuffer* wire_out,
                       AnswerInfo* info) const {
  if (query.questions.empty()) {
    resp.reset_response(query);
    resp.header.ra = query.header.ra;  // the header echoes unchanged
    resp.header.rcode = dns::Rcode::FormErr;
    return;
  }
  const auto& q = query.question();
  if (q.qclass == dns::RRClass::CH) {
    if (info != nullptr) info->disposition = Disposition::Answer;
    answer_chaos(query, resp);
    return;
  }
  if (q.qtype == dns::RRType::AXFR) {
    if (info != nullptr) info->disposition = Disposition::Answer;
    answer_axfr(query, resp, via_stream);
    return;
  }

  // Find the most specific zone containing the qname.
  const Zone* best = nullptr;
  for (const auto& zp : zones_) {
    const Zone& z = *zp;
    if (!q.qname.is_subdomain_of(z.origin())) continue;
    if (best == nullptr ||
        z.origin().label_count() > best->origin().label_count()) {
      best = &z;
    }
  }
  resp.reset_response(query);
  if (query.edns) {
    resp.edns = dns::EdnsInfo{};  // echo EDNS support, our own buffer size
    resp.edns->udp_payload_size = kMaxUdpPayload;
  }
  if (best == nullptr) {
    resp.header.rcode = dns::Rcode::Refused;
    return;
  }
  const Disposition disposition = QueryEngine{*best}.lookup(q, resp);
  if (info != nullptr) info->disposition = disposition;

  // Referral-fanout cap: keep the first `max_referral_fanout` NS records
  // (zone order is canonical, so the kept set is deterministic) and only
  // the glue that still has a kept NS naming it. An NXNS-style delegation
  // listing dozens of victim servers leaves here listing at most the cap.
  if (config_.max_referral_fanout > 0 &&
      disposition == Disposition::Referral &&
      resp.authorities.size() >
          static_cast<std::size_t>(config_.max_referral_fanout)) {
    resp.authorities.resize(
        static_cast<std::size_t>(config_.max_referral_fanout));
    std::erase_if(resp.additionals, [&](const dns::ResourceRecord& glue) {
      for (const auto& ns : resp.authorities) {
        if (ns.type() == dns::RRType::NS &&
            ns.rdata().target() == glue.name) {
          return false;
        }
      }
      return true;
    });
    if (info != nullptr) info->referral_capped = true;
  }

  // UDP size handling: if the encoded response exceeds what the client
  // can take, truncate sections and set TC; the client then retries over
  // TCP, where no limit applies. The size check IS the final encode — the
  // bytes go out through wire_out instead of being thrown away and
  // produced a second time by the caller.
  if (!via_stream) {
    const std::size_t limit = udp_limit(query);
    net::WireBuffer wire = dns::encode_message(resp);
    if (wire.size() > limit) {
      resp.header.tc = true;
      resp.answers.clear();
      resp.authorities.clear();
      resp.additionals.clear();
      wire = dns::encode_message(resp);
    }
    if (wire_out != nullptr) *wire_out = std::move(wire);
  }
}

std::optional<net::WireBuffer> Responder::formerr_reply(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < 12) return std::nullopt;  // not even a header
  const std::uint16_t flags =
      static_cast<std::uint16_t>((wire[2] << 8) | wire[3]);
  if ((flags & 0x8000) != 0) return std::nullopt;  // a response: never reply
  dns::Message resp;
  resp.header.id = static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
  resp.header.opcode = static_cast<dns::Opcode>((flags >> 11) & 0xf);
  resp.header.qr = true;
  resp.header.rcode = dns::Rcode::FormErr;
  // No question section: the bytes after the header did not parse, so
  // echoing them would mean trusting exactly the input that just failed.
  return dns::encode_message(resp);
}

}  // namespace recwild::authns
