#include "authns/secondary.hpp"

namespace recwild::authns {

SecondaryZone::SecondaryZone(net::Network& network, AuthServer& server,
                             dns::Name origin, net::Endpoint primary,
                             SecondaryConfig config, stats::Rng rng)
    : network_(network),
      server_(server),
      origin_(std::move(origin)),
      primary_(primary),
      config_(config),
      rng_(rng),
      ep_{server.endpoint().addr, kXfrClientPort} {}

SecondaryZone::~SecondaryZone() { stop(); }

void SecondaryZone::start() {
  if (listening_) return;
  network_.listen(server_.node(), ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_datagram(d);
                  });
  server_.set_notify_handler(
      [this](const dns::Name& zone, net::IpAddress from) {
        // RFC 1996 §4: check the serial on NOTIFY for our zone. (A strict
        // implementation would also verify `from` is a configured
        // primary.)
        (void)from;
        if (listening_ && zone == origin_ && pending_ == Pending::None) {
          check_soa();
        }
      });
  listening_ = true;
  check_soa();
}

void SecondaryZone::stop() {
  // Cancel unconditionally, not only when listening: a NOTIFY handled
  // after a previous stop() could have re-armed these events, and the
  // destructor must never leave a scheduled callback into a destroyed
  // object (the sim would fire it into freed memory).
  network_.sim().cancel(timeout_event_);
  network_.sim().cancel(refresh_event_);
  timeout_event_ = 0;
  refresh_event_ = 0;
  pending_ = Pending::None;
  // Release the server's NOTIFY handler: it captures `this`.
  server_.set_notify_handler(nullptr);
  if (!listening_) return;
  network_.unlisten(server_.node(), ep_);
  listening_ = false;
}

net::Duration SecondaryZone::refresh_interval() const {
  if (config_.refresh_override > net::Duration::zero()) {
    return config_.refresh_override;
  }
  if (last_seen_refresh_ > 0) {
    return net::Duration::seconds(last_seen_refresh_);
  }
  return net::Duration::minutes(10);
}

net::Duration SecondaryZone::retry_interval() const {
  if (config_.retry_override > net::Duration::zero()) {
    return config_.retry_override;
  }
  if (last_seen_retry_ > 0) return net::Duration::seconds(last_seen_retry_);
  return net::Duration::minutes(1);
}

void SecondaryZone::schedule_refresh(net::Duration delay) {
  network_.sim().cancel(refresh_event_);
  refresh_event_ = network_.sim().after(delay, [this] {
    if (pending_ == Pending::None) check_soa();
  });
}

void SecondaryZone::check_soa() {
  ++soa_checks_;
  pending_ = Pending::Soa;
  pending_txid_ = static_cast<std::uint16_t>(rng_.next());
  dns::Message query =
      dns::Message::make_query(pending_txid_, origin_, dns::RRType::SOA);
  network_.send(server_.node(), ep_, primary_, dns::encode_message(query));
  network_.sim().cancel(timeout_event_);
  timeout_event_ =
      network_.sim().after(config_.query_timeout, [this] { on_timeout(); });
}

void SecondaryZone::do_axfr() {
  pending_ = Pending::Axfr;
  pending_txid_ = static_cast<std::uint16_t>(rng_.next());
  dns::Message query =
      dns::Message::make_query(pending_txid_, origin_, dns::RRType::AXFR);
  network_.send_stream(server_.node(), ep_, primary_,
                       dns::encode_message(query));
  network_.sim().cancel(timeout_event_);
  timeout_event_ =
      network_.sim().after(config_.query_timeout, [this] { on_timeout(); });
}

void SecondaryZone::on_timeout() {
  pending_ = Pending::None;
  ++failures_;
  schedule_refresh(retry_interval());
}

void SecondaryZone::on_datagram(const net::Datagram& dgram) {
  dns::Message resp;
  try {
    resp = dns::decode_message(dgram.payload);
  } catch (const dns::WireError&) {
    return;
  }
  if (!resp.header.qr || resp.header.id != pending_txid_ ||
      pending_ == Pending::None) {
    return;
  }
  network_.sim().cancel(timeout_event_);
  const Pending what = pending_;
  pending_ = Pending::None;

  if (resp.header.rcode != dns::Rcode::NoError) {
    ++failures_;
    schedule_refresh(retry_interval());
    return;
  }

  if (what == Pending::Soa) {
    std::optional<dns::RdataView> soa;
    for (const auto& rr : resp.answers) {
      if (rr.type() == dns::RRType::SOA) soa = rr.rdata();
    }
    if (!soa) {
      ++failures_;
      schedule_refresh(retry_interval());
      return;
    }
    last_seen_refresh_ = soa->soa_refresh();
    last_seen_retry_ = soa->soa_retry();
    // Serial arithmetic (RFC 1982): newer when the difference, as a
    // signed 32-bit value, is positive.
    const auto newer =
        static_cast<std::int32_t>(soa->soa_serial() - serial_) > 0;
    if (serial_ == 0 || newer) {
      do_axfr();
    } else {
      schedule_refresh(refresh_interval());
    }
    return;
  }

  // AXFR response: SOA ... SOA. Rebuild the zone.
  if (resp.answers.size() < 2 ||
      resp.answers.front().type() != dns::RRType::SOA ||
      resp.answers.back().type() != dns::RRType::SOA) {
    ++failures_;
    schedule_refresh(retry_interval());
    return;
  }
  Zone zone{origin_};
  bool ok = true;
  // Skip the trailing SOA; keep the leading one.
  for (std::size_t i = 0; i + 1 < resp.answers.size(); ++i) {
    try {
      zone.add(resp.answers[i]);
    } catch (const std::invalid_argument&) {
      ok = false;
      break;
    }
  }
  const auto soa = zone.soa();
  if (!ok || !soa) {
    ++failures_;
    schedule_refresh(retry_interval());
    return;
  }
  serial_ = soa->soa_serial();
  ++transfers_;
  server_.replace_zone(std::move(zone));
  if (on_transferred) on_transferred(serial_);
  schedule_refresh(refresh_interval());
}

}  // namespace recwild::authns
