// IP anycast services (paper §1-2, §7).
//
// An anycast service is one NS address announced from many sites; the
// network routes each client to its catchment site (lowest stable RTT in
// our model — see DESIGN.md). A unicast authoritative is the degenerate
// single-site case, so DNS deployments mixing unicast and anycast NSes
// (like .nl's 5 unicast + 3 anycast) are just lists of AnycastService with
// different site counts.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anycast/route_control.hpp"
#include "authns/server.hpp"
#include "net/network.hpp"

namespace recwild::anycast {

struct Site {
  std::string code;  // catalog location code, e.g. "AMS"
  net::GeoPoint location;
  net::NodeId node = net::kInvalidNode;
  std::unique_ptr<authns::AuthServer> server;
};

/// A site blueprint with its node pre-assigned in a shared NodeCatalog.
/// World builders plan sites once; every replica then materializes servers
/// on the same node ids (see AnycastService::create_at).
struct SitePlan {
  std::string code;
  net::GeoPoint location;
  net::NodeId node = net::kInvalidNode;
};

class AnycastService {
 public:
  /// Creates a service named `name` on `address`, with one site per
  /// catalog code in `site_codes` (unknown codes throw). Servers are
  /// created but zones must be added with add_zone() before start().
  static AnycastService create(net::Network& network, std::string name,
                               net::IpAddress address,
                               const std::vector<std::string>& site_codes);

  /// Creates a service whose site nodes already exist (planned in the
  /// network's shared base catalog): no nodes or addresses are allocated,
  /// only the per-site servers are constructed. This is the replica path —
  /// every world materialized from one plan agrees on all ids.
  static AnycastService create_at(net::Network& network, std::string name,
                                  net::IpAddress address,
                                  const std::vector<SitePlan>& sites);

  AnycastService(AnycastService&&) = default;
  AnycastService& operator=(AnycastService&&) = default;

  /// Adds (a copy of) the zone to every site server.
  void add_zone(const authns::Zone& zone);
  /// Shares one immutable zone across every site server (no copies).
  void add_zone(std::shared_ptr<const authns::Zone> zone);

  /// Gives the service a second (IPv6-plane) address: every site also
  /// listens on it. Call before or after start().
  void listen_also(net::IpAddress address6);
  [[nodiscard]] std::optional<net::IpAddress> address6() const noexcept {
    return address6_;
  }

  /// Starts (binds) all sites.
  void start();
  void stop();

  /// Schedules a graceful drain of a site over [start, end): peers are told
  /// before the window opens, so from `start` new queries steer to each
  /// client's next-best site with no convergence loss while in-flight
  /// packets complete normally; at `end` the site rejoins the catchment.
  void drain(std::size_t site_index, net::SimTime start, net::SimTime end);

  /// Optional load-aware steering (see RouteControl::set_load_cap; breaks
  /// sharded byte-identity — serial runs only).
  void set_load_cap(double share);

  /// The service's dynamic routing-plane table, created (and registered
  /// with the network) on first use. The fault layer pushes withdrawal
  /// windows here.
  [[nodiscard]] RouteControl& route_control();
  /// The route control if one was ever created, else nullptr.
  [[nodiscard]] const RouteControl* route_control_if_armed() const noexcept {
    return route_.get();
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] net::IpAddress address() const noexcept { return address_; }
  [[nodiscard]] std::size_t site_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] bool is_anycast() const noexcept { return sites_.size() > 1; }
  [[nodiscard]] const std::vector<Site>& sites() const noexcept {
    return sites_;
  }
  [[nodiscard]] std::vector<Site>& sites() noexcept { return sites_; }

  /// The site a client node is routed to (at the current sim time — with
  /// dynamic routing armed, the network already excludes withdrawn sites).
  [[nodiscard]] const Site* catchment(net::NodeId from) const;

  /// The site a client node is routed to at sim time `now`, from the
  /// planned outage table: Withdrawn sites are excluded, Sinking sites are
  /// still in the catchment (their convergence hasn't reached the client),
  /// exact-RTT ties break toward the lowest site code — the same rules the
  /// network applies per packet, usable for any past or future instant.
  [[nodiscard]] const Site* catchment(net::NodeId from,
                                      net::SimTime now) const;

  /// Total queries across all sites.
  [[nodiscard]] std::uint64_t total_queries() const noexcept;

 private:
  AnycastService(net::Network& network, std::string name,
                 net::IpAddress address)
      : network_(&network), name_(std::move(name)), address_(address) {}

  net::Network* network_;
  std::string name_;
  net::IpAddress address_;
  std::optional<net::IpAddress> address6_;
  std::vector<Site> sites_;
  // Heap-allocated: the network holds a raw hook pointer to it, and the
  // service itself moves when stored in vectors.
  std::unique_ptr<RouteControl> route_;
};

}  // namespace recwild::anycast
