// Testbed: one materialized world of the paper — Root DNS letters
// (anycast), the .nl ccTLD services, the test-domain authoritatives of a
// Table-1 combination, and the Atlas-like vantage point population — on one
// deterministic simulation.
//
// A Testbed is mutable simulation state (sockets, servers, resolver
// caches, the event loop) materialized over an immutable WorldSnapshot
// (zones, geo placement, node catalog, population plan — see world.hpp).
// Building from a TestbedConfig builds the snapshot implicitly; sharded
// engines build it once and materialize N replicas from it, each scoped to
// the vantage-point partition it simulates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiment/deployments.hpp"
#include "experiment/world.hpp"
#include "fault/injector.hpp"

namespace recwild::experiment {

class Testbed {
 public:
  /// Builds the world snapshot for `config`, then materializes it in full.
  explicit Testbed(TestbedConfig config);

  /// Materializes a (possibly partition-scoped) replica of a prebuilt
  /// world. With `partition` (ascending VP indices into the world's
  /// population plan) only those vantage points — plus the forwarders and
  /// recursives they can reach — are instantiated; nullptr materializes
  /// the full population. Services, zones and the node catalog are shared
  /// with every other replica of the same snapshot.
  explicit Testbed(std::shared_ptr<const WorldSnapshot> world,
                   const std::vector<std::size_t>* partition = nullptr);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] net::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  /// The world's metric registry (shorthand for sim().metrics()).
  [[nodiscard]] obs::MetricRegistry& metrics() noexcept {
    return sim_.metrics();
  }
  /// The world's decision trace (shorthand for sim().trace()).
  [[nodiscard]] obs::DecisionTrace& trace() noexcept { return sim_.trace(); }
  [[nodiscard]] client::Population& population() noexcept {
    return population_;
  }
  [[nodiscard]] const TestbedConfig& config() const noexcept {
    return world_->config;
  }
  /// The immutable world this testbed materializes. Sharded engines pass
  /// it to replica constructors so the world is built exactly once.
  [[nodiscard]] const std::shared_ptr<const WorldSnapshot>& world()
      const noexcept {
    return world_;
  }

  [[nodiscard]] std::vector<anycast::AnycastService>& roots() noexcept {
    return roots_;
  }
  [[nodiscard]] std::vector<anycast::AnycastService>& nl_services() noexcept {
    return nl_;
  }
  /// One unicast service per test datacenter, in config order. The TXT
  /// payload each serves is its datacenter code ("FRA", ...).
  [[nodiscard]] std::vector<anycast::AnycastService>&
  test_services() noexcept {
    return test_;
  }
  /// The attacker-controlled authoritative (empty unless config().attack
  /// is non-empty). Serves attack.zone()'s NXNS delegation chains and is
  /// never armed with defenses — defenses are the defender's.
  [[nodiscard]] std::vector<anycast::AnycastService>&
  attacker_services() noexcept {
    return attacker_;
  }

  [[nodiscard]] const std::vector<resolver::RootHint>& hints()
      const noexcept {
    return world_->hints;
  }
  /// IPv6-plane root hints (empty unless dual_stack).
  [[nodiscard]] const std::vector<resolver::RootHint>& hints6()
      const noexcept {
    return world_->hints6;
  }
  [[nodiscard]] const dns::Name& test_domain() const noexcept {
    return world_->test_domain;
  }

  /// Turns query-log entry retention on or off at every authoritative
  /// server (root, .nl, test and attacker services). Totals and
  /// per-client counts are kept either way; see QueryLog.
  void retain_query_log_entries(bool retain);

  /// Index of the test service whose TXT payload is `code`; -1 if unknown.
  [[nodiscard]] int test_index_of(const std::string& code) const;

  /// The node on which a recursive with address `addr` runs, or
  /// kInvalidNode. Used by analyses that need recursive->authoritative RTT.
  [[nodiscard]] net::NodeId recursive_node(net::IpAddress addr) const;

  /// The armed fault injector, or nullptr when config().faults is empty.
  [[nodiscard]] fault::FaultInjector* injector() noexcept {
    return injector_.get();
  }

 private:
  void materialize_services();
  void arm_defenses();
  void apply_drains();

  std::shared_ptr<const WorldSnapshot> world_;
  net::Simulation sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<anycast::AnycastService> roots_;
  std::vector<anycast::AnycastService> nl_;
  std::vector<anycast::AnycastService> test_;
  std::vector<anycast::AnycastService> attacker_;
  client::Population population_;
  /// Declared last: destroyed first, so it disarms (clearing the network
  /// hook and the servers' fault providers) while both still exist.
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace recwild::experiment
