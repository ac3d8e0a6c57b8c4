#include "resolver/selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "net/address_list.hpp"
#include "obs/names.hpp"

namespace recwild::resolver {

std::string_view to_string(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::BindSrtt: return "bind_srtt";
    case PolicyKind::UnboundBand: return "unbound_band";
    case PolicyKind::PowerDnsFactor: return "pdns_factor";
    case PolicyKind::UniformRandom: return "uniform_random";
    case PolicyKind::RoundRobin: return "round_robin";
    case PolicyKind::StickyFirst: return "sticky_first";
  }
  return "unknown";
}

std::optional<PolicyKind> policy_from_string(std::string_view s) noexcept {
  for (const PolicyKind k :
       {PolicyKind::BindSrtt, PolicyKind::UnboundBand,
        PolicyKind::PowerDnsFactor, PolicyKind::UniformRandom,
        PolicyKind::RoundRobin, PolicyKind::StickyFirst}) {
    if (to_string(k) == s) return k;
  }
  return std::nullopt;
}

void ServerSelector::on_timeout(const dns::Name& zone,
                                net::IpAddress server) {
  (void)zone;
  (void)server;
}

void ServerSelector::attach_obs(obs::DecisionTrace* trace,
                                obs::MetricRegistry* registry,
                                std::string actor) {
  trace_ = trace;
  actor_ = std::move(actor);
  if (registry != nullptr) {
    primed_counter_ = &registry->counter(obs::names::kSelectionPrimed);
    latch_counter_ = &registry->counter(obs::names::kSelectionLatchMoves);
  }
}

void ServerSelector::trace_event(obs::TraceKind kind, net::SimTime at,
                                 const dns::Name& zone, net::IpAddress server,
                                 double value) const {
  if (trace_ == nullptr || !trace_->enabled()) return;
  trace_->record(
      {at, kind, actor_, server.to_string(), zone.to_string(), value});
}

namespace {

/// Servers neither on probation nor held down; falls back to all when
/// everything is excluded (a resolver must send *somewhere*).
net::AddressList usable(std::span<const net::IpAddress> servers,
                        const InfraCache& infra, net::SimTime now) {
  net::AddressList out;
  for (const auto& s : servers) {
    const ServerStats* st = infra.get(s, now);
    if (st == nullptr || (!st->in_backoff(now) && !st->in_holddown(now))) {
      out.push_back(s);
    }
  }
  if (out.empty()) out.assign(servers);
  return out;
}

class BindSrttSelector final : public ServerSelector {
 public:
  explicit BindSrttSelector(SelectionConfig cfg) : cfg_(cfg) {}

  net::IpAddress select(const dns::Name& zone,
                        std::span<const net::IpAddress> servers,
                        InfraCache& infra, net::SimTime now,
                        stats::Rng& rng) override {
    (void)zone;
    const auto candidates = usable(servers, infra, now);
    net::IpAddress best{};
    double best_srtt = std::numeric_limits<double>::infinity();
    for (const auto& s : candidates) {
      const ServerStats* st = infra.get(s, now);
      double srtt;
      if (st == nullptr) {
        // BIND primes unknown servers with a small random SRTT so that
        // every server is probed early on.
        srtt = rng.uniform(1.0, cfg_.bind_unknown_srtt_ms);
        infra.report_rtt(s, net::Duration::millis(srtt), now);
        if (primed_counter_ != nullptr) primed_counter_->add(1, now);
        trace_event(obs::TraceKind::PrimeServer, now, zone, s, srtt);
      } else {
        srtt = st->srtt_ms;
      }
      if (srtt < best_srtt) {
        best_srtt = srtt;
        best = s;
      }
    }
    // Age the servers we did not pick so they are re-tried eventually.
    for (const auto& s : candidates) {
      if (s != best) infra.decay(s, cfg_.bind_decay, now);
    }
    return best;
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::BindSrtt;
  }

 private:
  SelectionConfig cfg_;
};

class UnboundBandSelector final : public ServerSelector {
 public:
  explicit UnboundBandSelector(SelectionConfig cfg) : cfg_(cfg) {}

  net::IpAddress select(const dns::Name& zone,
                        std::span<const net::IpAddress> servers,
                        InfraCache& infra, net::SimTime now,
                        stats::Rng& rng) override {
    (void)zone;
    const auto candidates = usable(servers, infra, now);
    // Effective RTT: measured RTO or the unknown-host default.
    const auto rtt = [&](net::IpAddress s) {
      const ServerStats* st = infra.get(s, now);
      return st ? st->rto_ms() : cfg_.unbound_unknown_rtt_ms;
    };
    double best = std::numeric_limits<double>::infinity();
    for (const auto& s : candidates) best = std::min(best, rtt(s));
    // Uniform choice among the lowest band.
    net::AddressList band;
    for (const auto& s : candidates) {
      if (rtt(s) <= best + cfg_.unbound_band_ms) band.push_back(s);
    }
    return band[rng.index(band.size())];
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::UnboundBand;
  }

 private:
  SelectionConfig cfg_;
};

class PowerDnsSelector final : public ServerSelector {
 public:
  explicit PowerDnsSelector(SelectionConfig cfg) : cfg_(cfg) {}

  net::IpAddress select(const dns::Name& zone,
                        std::span<const net::IpAddress> servers,
                        InfraCache& infra, net::SimTime now,
                        stats::Rng& rng) override {
    (void)zone;
    const auto candidates = usable(servers, infra, now);
    // Weight ∝ 1/(srtt + c)^2: mostly the fastest, with continuous
    // exploration of the others. Unknown servers count as fast so they
    // get probed.
    const auto weight = [&](net::IpAddress s) {
      const ServerStats* st = infra.get(s, now);
      const double srtt = st ? st->srtt_ms : 0.0;
      const double denom = srtt + cfg_.pdns_offset_ms;
      return 1.0 / (denom * denom);
    };
    double total = 0;
    for (const auto& s : candidates) total += weight(s);
    double u = rng.uniform() * total;
    for (const auto& s : candidates) {
      u -= weight(s);
      if (u <= 0) return s;
    }
    return candidates.back();
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::PowerDnsFactor;
  }

 private:
  SelectionConfig cfg_;
};

class UniformRandomSelector final : public ServerSelector {
 public:
  net::IpAddress select(const dns::Name& zone,
                        std::span<const net::IpAddress> servers,
                        InfraCache& infra, net::SimTime now,
                        stats::Rng& rng) override {
    (void)zone;
    const auto candidates = usable(servers, infra, now);
    return candidates[rng.index(candidates.size())];
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::UniformRandom;
  }
};

class RoundRobinSelector final : public ServerSelector {
 public:
  net::IpAddress select(const dns::Name& zone,
                        std::span<const net::IpAddress> servers,
                        InfraCache& infra, net::SimTime now,
                        stats::Rng& rng) override {
    (void)rng;
    const auto candidates = usable(servers, infra, now);
    std::size_t& next = next_[zone];
    const net::IpAddress chosen = candidates[next % candidates.size()];
    next = (next + 1) % std::max<std::size_t>(1, servers.size());
    return chosen;
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::RoundRobin;
  }

 private:
  std::unordered_map<dns::Name, std::size_t> next_;
};

class StickyFirstSelector final : public ServerSelector {
 public:
  net::IpAddress select(const dns::Name& zone,
                        std::span<const net::IpAddress> servers,
                        InfraCache& infra, net::SimTime now,
                        stats::Rng& rng) override {
    const auto candidates = usable(servers, infra, now);
    const auto it = latch_.find(zone);
    if (it != latch_.end()) {
      if (std::find(candidates.begin(), candidates.end(), it->second) !=
          candidates.end()) {
        return it->second;
      }
      // Latch temporarily unavailable (e.g. on probation): answer with an
      // alternate but KEEP the latch — a forwarder goes back to its
      // configured upstream as soon as it recovers.
      return candidates[rng.index(candidates.size())];
    }
    const net::IpAddress chosen = candidates[rng.index(candidates.size())];
    latch_[zone] = chosen;
    failures_[zone] = 0;
    if (latch_counter_ != nullptr) latch_counter_->add(1, now);
    trace_event(obs::TraceKind::StickyLatch, now, zone, chosen, 0.0);
    return chosen;
  }

  void on_timeout(const dns::Name& zone, net::IpAddress server) override {
    const auto it = latch_.find(zone);
    if (it == latch_.end() || !(it->second == server)) return;
    // A forwarder tolerates transient loss; only persistent failure makes
    // it move on.
    if (++failures_[zone] >= kFailuresBeforeRelatch) {
      latch_.erase(it);
      failures_.erase(zone);
    }
  }

  [[nodiscard]] bool prefers_retry_same() const noexcept override {
    return true;
  }

  [[nodiscard]] PolicyKind kind() const noexcept override {
    return PolicyKind::StickyFirst;
  }

 private:
  static constexpr int kFailuresBeforeRelatch = 6;
  std::unordered_map<dns::Name, net::IpAddress> latch_;
  std::unordered_map<dns::Name, int> failures_;
};

}  // namespace

std::unique_ptr<ServerSelector> make_selector(PolicyKind kind,
                                              SelectionConfig config) {
  switch (kind) {
    case PolicyKind::BindSrtt:
      return std::make_unique<BindSrttSelector>(config);
    case PolicyKind::UnboundBand:
      return std::make_unique<UnboundBandSelector>(config);
    case PolicyKind::PowerDnsFactor:
      return std::make_unique<PowerDnsSelector>(config);
    case PolicyKind::UniformRandom:
      return std::make_unique<UniformRandomSelector>();
    case PolicyKind::RoundRobin:
      return std::make_unique<RoundRobinSelector>();
    case PolicyKind::StickyFirst:
      return std::make_unique<StickyFirstSelector>();
  }
  return std::make_unique<UniformRandomSelector>();
}

PolicyMixture PolicyMixture::wild() {
  // Calibrated against the paper's §4.3 preference shares (see
  // EXPERIMENTS.md): about half the population is latency-driven, matching
  // Yu et al.'s "3 of 6 implementations are strongly RTT-based" weighted by
  // deployment share.
  return PolicyMixture{{
      {PolicyKind::BindSrtt, 0.30},
      {PolicyKind::UnboundBand, 0.22},
      {PolicyKind::PowerDnsFactor, 0.13},
      {PolicyKind::UniformRandom, 0.17},
      {PolicyKind::RoundRobin, 0.08},
      {PolicyKind::StickyFirst, 0.10},
  }};
}

PolicyMixture PolicyMixture::pure(PolicyKind kind) {
  return PolicyMixture{{{kind, 1.0}}};
}

PolicyKind PolicyMixture::draw(stats::Rng& rng) const {
  double total = 0;
  for (const auto& [kind, w] : weights) total += w;
  double u = rng.uniform() * total;
  for (const auto& [kind, w] : weights) {
    u -= w;
    if (u <= 0) return kind;
  }
  return weights.empty() ? PolicyKind::UniformRandom : weights.back().first;
}

}  // namespace recwild::resolver
