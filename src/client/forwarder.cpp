#include "client/forwarder.hpp"

namespace recwild::client {

namespace {
constexpr net::Port kForwarderUpstreamPort = 20'053;
}

Forwarder::Forwarder(net::Network& network, net::NodeId node,
                     net::IpAddress address, net::IpAddress upstream,
                     ForwarderConfig config, stats::Rng rng)
    : network_(network),
      node_(node),
      address_(address),
      upstream_(upstream),
      config_(config),
      rng_(rng),
      client_ep_{address, net::kDnsPort},
      upstream_ep_{address, kForwarderUpstreamPort},
      cache_(resolver::RecordCacheConfig{
          config.cache_entries == 0 ? 1 : config.cache_entries, 0,
          86'400}) {}

Forwarder::~Forwarder() { stop(); }

void Forwarder::start() {
  if (listening_) return;
  network_.listen(node_, client_ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_client(d);
                  });
  network_.listen(node_, upstream_ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_upstream(d);
                  });
  listening_ = true;
}

void Forwarder::stop() {
  if (!listening_) return;
  network_.unlisten(node_, client_ep_);
  network_.unlisten(node_, upstream_ep_);
  listening_ = false;
}

void Forwarder::on_client(const net::Datagram& dgram) {
  dns::Message query;
  try {
    query = dns::decode_message(dgram.payload);
  } catch (const dns::WireError&) {
    return;
  }
  if (query.header.qr || query.questions.empty()) return;
  const dns::Question q = query.question();

  // Local cache first (when enabled).
  if (config_.cache_entries > 0) {
    if (const auto hit = cache_.get(q.qname, q.qtype, network_.sim().now())) {
      ++cache_hits_;
      dns::Message resp = dns::Message::make_response(query);
      resp.header.ra = true;
      hit.append_records(resp.answers);
      network_.send(node_, client_ep_, dgram.src,
                    dns::encode_message(resp));
      return;
    }
  }

  // Forward with a fresh transaction id.
  std::uint16_t txid = static_cast<std::uint16_t>(rng_.next());
  while (pending_.contains(txid)) ++txid;
  Pending p;
  p.client = dgram.src;
  p.client_id = query.header.id;
  p.question = q;
  p.timeout_event = network_.sim().after(
      config_.timeout, [this, txid] { on_timeout(txid); });
  pending_.emplace(txid, std::move(p));

  dns::Message fwd = query;
  fwd.header.id = txid;
  ++forwarded_;
  network_.send(node_, upstream_ep_,
                net::Endpoint{upstream_, net::kDnsPort},
                dns::encode_message(fwd));
}

void Forwarder::on_upstream(const net::Datagram& dgram) {
  dns::Message resp;
  try {
    resp = dns::decode_message(dgram.payload);
  } catch (const dns::WireError&) {
    return;
  }
  if (!resp.header.qr || resp.questions.empty()) return;
  const auto it = pending_.find(resp.header.id);
  if (it == pending_.end()) return;
  if (!(resp.question().qname == it->second.question.qname) ||
      resp.question().qtype != it->second.question.qtype) {
    return;
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  network_.sim().cancel(p.timeout_event);

  if (config_.cache_entries > 0 && resp.header.rcode == dns::Rcode::NoError) {
    dns::for_each_rrset(resp.answers, [this](dns::RRset&& set) {
      cache_.put(std::move(set), network_.sim().now());
    });
  }

  resp.header.id = p.client_id;
  network_.send(node_, client_ep_, p.client, dns::encode_message(resp));
}

void Forwarder::on_timeout(std::uint16_t txid) {
  const auto it = pending_.find(txid);
  if (it == pending_.end()) return;
  ++timeouts_;
  // Real CPE boxes mostly drop the query on upstream timeout; the stub's
  // own retry logic handles it.
  pending_.erase(it);
}

}  // namespace recwild::client
