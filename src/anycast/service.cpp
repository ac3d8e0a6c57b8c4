#include "anycast/service.hpp"

#include <limits>
#include <stdexcept>

#include "obs/names.hpp"

namespace recwild::anycast {

AnycastService AnycastService::create(
    net::Network& network, std::string name, net::IpAddress address,
    const std::vector<std::string>& site_codes) {
  AnycastService svc{network, std::move(name), address};
  for (const auto& code : site_codes) {
    const auto loc = net::find_location(code);
    if (!loc) {
      throw std::invalid_argument{"AnycastService: unknown location " + code};
    }
    Site site;
    site.code = code;
    site.location = loc->point;
    site.node =
        network.add_node(svc.name_ + "@" + code, loc->point);
    authns::AuthServerConfig cfg;
    cfg.identity = svc.name_ + "." + code;
    site.server = std::make_unique<authns::AuthServer>(
        network, site.node, net::Endpoint{address, net::kDnsPort}, cfg);
    svc.sites_.push_back(std::move(site));
  }
  return svc;
}

AnycastService AnycastService::create_at(
    net::Network& network, std::string name, net::IpAddress address,
    const std::vector<SitePlan>& sites) {
  AnycastService svc{network, std::move(name), address};
  for (const auto& plan : sites) {
    Site site;
    site.code = plan.code;
    site.location = plan.location;
    site.node = plan.node;
    authns::AuthServerConfig cfg;
    cfg.identity = svc.name_ + "." + plan.code;
    site.server = std::make_unique<authns::AuthServer>(
        network, site.node, net::Endpoint{address, net::kDnsPort}, cfg);
    svc.sites_.push_back(std::move(site));
  }
  return svc;
}

void AnycastService::add_zone(const authns::Zone& zone) {
  for (auto& site : sites_) site.server->add_zone(zone);
}

void AnycastService::add_zone(std::shared_ptr<const authns::Zone> zone) {
  for (auto& site : sites_) site.server->add_zone(zone);
}

void AnycastService::listen_also(net::IpAddress address6) {
  address6_ = address6;
  for (auto& site : sites_) {
    site.server->listen_also(net::Endpoint{address6, net::kDnsPort});
  }
  if (route_) route_->set_alias(address6);
}

void AnycastService::start() {
  for (auto& site : sites_) site.server->start();
}

void AnycastService::stop() {
  for (auto& site : sites_) site.server->stop();
}

RouteControl& AnycastService::route_control() {
  if (!route_) {
    route_ = std::make_unique<RouteControl>(*network_, address_, name_);
    if (address6_) route_->set_alias(*address6_);
    for (const auto& site : sites_) {
      route_->register_site(site.node, site.code);
    }
  }
  return *route_;
}

void AnycastService::drain(std::size_t site_index, net::SimTime start,
                           net::SimTime end) {
  if (end <= start) {
    throw std::invalid_argument{"AnycastService::drain: end must be > start"};
  }
  Site& site = sites_.at(site_index);
  // converge == start: a drain is announced to peers before the window
  // opens, so there is no convergence-loss phase.
  route_control().add_outage(site.node, site.code,
                             OutageWindow{start, start, end});
  // Counted now (drains are installed at world construction) but stamped
  // with the drain's start, so replica baselines merge to the serial bytes.
  network_->sim().metrics().counter(obs::names::kAnycastSiteDrained)
      .add(1, start);
}

void AnycastService::set_load_cap(double share) {
  route_control().set_load_cap(share);
}

const Site* AnycastService::catchment(net::NodeId from) const {
  const net::NodeId target = network_->route(from, address_);
  for (const auto& site : sites_) {
    if (site.node == target) return &site;
  }
  return nullptr;
}

const Site* AnycastService::catchment(net::NodeId from,
                                      net::SimTime now) const {
  const Site* best = nullptr;
  auto best_rtt =
      net::Duration::micros(std::numeric_limits<std::int64_t>::max());
  for (const auto& site : sites_) {
    if (route_ &&
        route_->site_state(site.node, now) == net::RouteState::Withdrawn) {
      continue;
    }
    const net::Duration rtt = network_->base_rtt(from, site.node);
    if (best == nullptr || rtt < best_rtt ||
        (rtt == best_rtt && site.code < best->code)) {
      best = &site;
      best_rtt = rtt;
    }
  }
  return best;
}

std::uint64_t AnycastService::total_queries() const noexcept {
  std::uint64_t n = 0;
  for (const auto& site : sites_) n += site.server->queries_received();
  return n;
}

}  // namespace recwild::anycast
