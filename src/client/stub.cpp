#include "client/stub.hpp"

#include <algorithm>

namespace recwild::client {

namespace {
constexpr net::Port kStubPort = 40'000;
}

StubResolver::StubResolver(net::Network& network, net::NodeId node,
                           net::IpAddress address,
                           std::vector<net::IpAddress> recursives,
                           StubConfig config, stats::Rng rng)
    : network_(network),
      node_(node),
      address_(address),
      recursives_(std::move(recursives)),
      config_(config),
      rng_(rng),
      ep_{address, kStubPort} {}

StubResolver::~StubResolver() { stop(); }

void StubResolver::start() {
  if (listening_) return;
  network_.listen(node_, ep_, [this](const net::Datagram& d, net::NodeId) {
    on_datagram(d);
  });
  listening_ = true;
}

void StubResolver::stop() {
  if (!listening_) return;
  network_.unlisten(node_, ep_);
  listening_ = false;
}

void StubResolver::query(dns::Name qname, dns::RRType qtype, StubCallback cb) {
  // Hard cap: one stub can hold at most 2^16 concurrent queries (the txid
  // space). Bulk drivers pipeline thousands of queries per stub; when the
  // space is exhausted the collision probe below could never terminate, so
  // fail fast the way a saturated stub's caller would see a timeout.
  if (pending_.size() >= 65'536) {
    StubResult result;
    result.question =
        dns::Question{std::move(qname), qtype, dns::RRClass::IN};
    result.timed_out = true;
    cb(result);
    return;
  }
  // Fresh txid, avoiding collisions with in-flight queries (the probe
  // wraps modulo 2^16 and the cap above guarantees a free slot exists).
  std::uint16_t txid = static_cast<std::uint16_t>(rng_.next());
  while (pending_.contains(txid)) ++txid;

  Pending& p = pending_nodes_.try_emplace(pending_, txid).first->second;
  p.question = dns::Question{std::move(qname), qtype, dns::RRClass::IN};
  p.cb = std::move(cb);
  p.started_at = network_.sim().now();
  send_attempt(txid);
}

void StubResolver::complete(PendingMap::iterator it,
                            const StubResult& result) {
  auto cb = std::move(it->second.cb);
  pending_nodes_.erase(pending_, it);
  cb(result);
}

void StubResolver::send_attempt(std::uint16_t txid) {
  auto it = pending_.find(txid);
  if (it == pending_.end()) return;
  Pending& p = it->second;

  const int max_attempts =
      config_.max_rounds * static_cast<int>(recursives_.size());
  if (p.attempts >= max_attempts || recursives_.empty()) {
    StubResult result;
    result.question = p.question;
    result.timed_out = true;
    result.elapsed = network_.sim().now() - p.started_at;
    complete(it, result);
    return;
  }

  const std::size_t idx =
      static_cast<std::size_t>(p.attempts) % recursives_.size();
  p.recursive_index = idx;
  ++p.attempts;

  tx_.reset_query(txid, p.question.qname, p.question.qtype);
  tx_.header.rd = true;
  network_.send(node_, ep_,
                net::Endpoint{recursives_[idx], net::kDnsPort},
                dns::encode_message(tx_));
  p.timeout_event = network_.sim().after(
      config_.attempt_timeout, [this, txid] { on_timeout(txid); });
}

void StubResolver::on_timeout(std::uint16_t txid) {
  send_attempt(txid);  // rotates to the next recursive or gives up
}

void StubResolver::on_datagram(const net::Datagram& dgram) {
  if (dgram.src.port != net::kDnsPort ||
      std::find(recursives_.begin(), recursives_.end(), dgram.src.addr) ==
          recursives_.end()) {
    return;  // not from a recursive we asked: off-path or stray
  }
  dns::Message& resp = rx_;
  try {
    dns::decode_message(dgram.payload, resp);
  } catch (const dns::WireError&) {
    return;
  }
  if (!resp.header.qr || resp.questions.empty()) return;
  const auto it = pending_.find(resp.header.id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (!(resp.question().qname == p.question.qname) ||
      resp.question().qtype != p.question.qtype) {
    return;
  }
  network_.sim().cancel(p.timeout_event);

  // The result borrows the decoded records and the TXT string storage and
  // hands both back after the callback, so answering allocates nothing.
  StubResult result;
  result.question = p.question;
  result.rcode = resp.header.rcode;
  result.answers.swap(resp.answers);
  result.txt.swap(txt_);
  result.elapsed = network_.sim().now() - p.started_at;
  result.recursive_index = p.recursive_index;
  result.txt.clear();
  for (const auto& rr : result.answers) {
    if (rr.type() != dns::RRType::TXT) continue;
    for (const std::string_view s : rr.rdata().txt()) {
      result.txt.emplace_back(s);
    }
  }
  complete(it, result);
  resp.answers.swap(result.answers);
  txt_.swap(result.txt);
}

}  // namespace recwild::client
