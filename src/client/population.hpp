// Vantage-point population generator — the synthetic stand-in for the RIPE
// Atlas probe fleet (paper §3.1).
//
// The generator reproduces the structural properties the paper's analysis
// depends on:
//   * ~9.7k probes, heavily skewed to Europe. Continental weights default
//     to the paper's own VP counts (Figure 5: EU 6221, NA 1181, AS 692,
//     OC 245, AF 215, SA 131).
//   * Probes cluster into ASes; each AS runs one or two ISP recursives
//     placed near its probes. ~3,300 ASes for 9,700 probes in the paper.
//   * A fraction of probes use a shared public-DNS service instead of (or
//     in addition to) their ISP recursive — the paper observes probes with
//     multiple configured recursives and treats each (probe, recursive)
//     pair as one VP.
//   * Each recursive runs a selection policy drawn from a PolicyMixture.
//
// Generation is split into two phases so sharded experiment engines can
// share one world across replicas:
//   * plan_population() consumes the RNG stream and a NodeCatalog exactly
//     as construction used to, producing an immutable PopulationPlan — a
//     struct-of-arrays record of every node id, address, upstream list and
//     per-entity RNG fork. No live object is created; the plan draws the
//     byte-for-byte identical sequence the old single-phase builder drew,
//     so seeds, fixtures and node/address layouts are unchanged.
//   * materialize_population() turns the plan (or a partition of it) into
//     live stubs/forwarders/recursives on a concrete Network, allocated
//     from the Population's arena. A shard replica materializes only the
//     vantage points it simulates; the plan itself is shared read-only.
#pragma once

#include <cstdint>
#include <vector>

#include "client/forwarder.hpp"
#include "client/stub.hpp"
#include "net/geo.hpp"
#include "resolver/resolver.hpp"
#include "stats/arena.hpp"

namespace recwild::client {

struct VantagePoint {
  std::size_t probe_id = 0;
  net::Continent continent = net::Continent::Europe;
  net::GeoPoint location;
  net::NodeId node = net::kInvalidNode;
  /// Owned by the Population's arena; valid for the Population's lifetime.
  StubResolver* stub = nullptr;
};

struct RecursiveInfo {
  /// Owned by the Population's arena; valid for the Population's lifetime.
  resolver::RecursiveResolver* resolver = nullptr;
  net::Continent continent = net::Continent::Europe;
  net::GeoPoint location;
  bool is_public = false;
};

struct PopulationConfig {
  /// Number of probes to create. The paper's runs saw ~8.7k VPs; smaller
  /// values scale every experiment down proportionally.
  std::size_t probes = 2'000;
  /// Per-continent probe weights; defaults follow the paper's VP counts.
  double weight_af = 215;
  double weight_as = 692;
  double weight_eu = 6221;
  double weight_na = 1181;
  double weight_oc = 245;
  double weight_sa = 131;
  /// Mean probes per AS (paper: 9.7k probes over 3.3k ASes ≈ 2.9).
  double mean_probes_per_as = 2.9;
  /// Fraction of probes configured with a shared public resolver
  /// (instead of their ISP's).
  double public_resolver_fraction = 0.10;
  /// Fraction of probes with a second configured recursive.
  double second_recursive_fraction = 0.08;
  /// Number of shared public-DNS recursive instances.
  std::size_t public_resolvers = 6;
  /// Geographic scatter around the chosen catalog city, degrees.
  double scatter_deg = 3.0;
  /// Selection-policy mixture across ISP recursives.
  resolver::PolicyMixture mixture = resolver::PolicyMixture::wild();
  /// Fraction of ISP recursives that are dual-stack (only meaningful on a
  /// dual-stack testbed: they then also use AAAA glue for upstreams). The
  /// paper found 69% of Atlas VPs v4-only, so ~0.3 is realistic.
  double ipv6_fraction = 0.0;
  /// Fraction of probes that sit behind a forwarding middlebox (home
  /// router) instead of talking to the recursive directly — the MI boxes
  /// of the paper's Figure 1.
  double forwarder_fraction = 0.0;
  ForwarderConfig forwarder{};
  /// Per-VP query timeout configuration.
  StubConfig stub{};
  /// Resolver tuning knobs applied to every recursive.
  resolver::ResolverConfig resolver_template{};
};

/// The immutable population blueprint: everything build-time randomness
/// decided, laid out struct-of-arrays over vantage points. One plan is
/// built per world (inside WorldSnapshot::build) and shared read-only by
/// all shard replicas; it holds no live objects and no Network references.
struct PopulationPlan {
  /// One planned recursive. `label_id` reconstructs the resolver name
  /// ("public-dns-<id>" or "isp-recursive-as<id>") at materialize time, so
  /// a million-recursive plan does not store a million name strings twice.
  struct RecursivePlan {
    std::uint64_t label_id = 0;
    net::NodeId node = net::kInvalidNode;
    net::IpAddress address;
    resolver::PolicyKind policy = resolver::PolicyKind::BindSrtt;
    bool dual = false;
    bool is_public = false;
    net::Continent continent = net::Continent::Europe;
    net::GeoPoint location;
    stats::Rng rng{0};
  };
  /// One planned home-router middlebox, relaying probe -> ISP recursive.
  struct ForwarderPlan {
    std::size_t probe_id = 0;
    net::NodeId node = net::kInvalidNode;
    net::IpAddress address;
    net::IpAddress upstream;
    stats::Rng rng{0};
  };

  // Hot per-VP state, struct-of-arrays: index = probe id.
  std::vector<net::Continent> vp_continent;
  std::vector<net::GeoPoint> vp_location;
  std::vector<net::NodeId> vp_node;
  std::vector<net::IpAddress> vp_stub_addr;
  std::vector<stats::Rng> vp_rng;
  /// CSR layout of per-VP upstream address lists (primary first): VP v's
  /// upstreams are vp_upstreams[vp_upstream_off[v] .. vp_upstream_off[v+1]).
  std::vector<std::uint32_t> vp_upstream_off;
  std::vector<net::IpAddress> vp_upstreams;
  /// Index into `forwarders` of the VP's middlebox, or -1.
  std::vector<std::int32_t> vp_forwarder;

  std::vector<RecursivePlan> recursives;
  std::vector<ForwarderPlan> forwarders;

  [[nodiscard]] std::size_t vp_count() const noexcept {
    return vp_node.size();
  }
};

/// The constructed population. Owns all stubs and recursives (in its
/// arena); nodes live in the Network / shared NodeCatalog. May be a
/// partition of the plan: vps() then holds only the materialized vantage
/// points, ascending by probe id — use by_probe() for identity lookups.
class Population {
 public:
  Population() = default;
  Population(Population&&) = default;
  Population& operator=(Population&&) = default;

  [[nodiscard]] std::vector<VantagePoint>& vps() noexcept { return vps_; }
  [[nodiscard]] const std::vector<VantagePoint>& vps() const noexcept {
    return vps_;
  }
  [[nodiscard]] std::vector<RecursiveInfo>& recursives() noexcept {
    return recursives_;
  }
  [[nodiscard]] const std::vector<RecursiveInfo>& recursives()
      const noexcept {
    return recursives_;
  }

  [[nodiscard]] const std::vector<Forwarder*>& forwarders() const noexcept {
    return forwarders_;
  }

  /// The vantage point with this probe id, or nullptr when it is not part
  /// of this (possibly partition-scoped) population. Binary search: vps_
  /// is ascending by probe id.
  [[nodiscard]] VantagePoint* by_probe(std::size_t probe_id) noexcept;
  [[nodiscard]] const VantagePoint* by_probe(
      std::size_t probe_id) const noexcept;

  /// Finds the RecursiveInfo serving a given address. Forwarder addresses
  /// resolve through to their upstream recursive (the middlebox is
  /// transparent for analysis purposes). Returns nullptr if unknown.
  [[nodiscard]] const RecursiveInfo* recursive_by_address(
      net::IpAddress addr) const;

  /// Flushes every recursive's record+infra caches (the paper's 4-hour
  /// break between measurements).
  void flush_all_caches();

  friend Population materialize_population(
      net::Network& network, const PopulationPlan& plan,
      const PopulationConfig& config,
      const std::vector<resolver::RootHint>& hints,
      const std::vector<std::size_t>* partition);

 private:
  /// Declared first so it outlives (is destroyed after) the raw pointers
  /// below; owns every stub/forwarder/recursive of this population.
  stats::Arena arena_;
  std::vector<VantagePoint> vps_;
  std::vector<RecursiveInfo> recursives_;
  std::vector<Forwarder*> forwarders_;
};

/// Plans a population: consumes `rng` and the catalog exactly as the live
/// builder would (same node ids, same addresses, same fork points), but
/// creates no objects. Safe to run without any Network or Simulation.
PopulationPlan plan_population(net::NodeCatalog& catalog,
                               const PopulationConfig& config,
                               stats::Rng rng);

/// Materializes live stubs/forwarders/recursives from a plan onto
/// `network`, which must be built over the catalog the plan was made in
/// (Network's `base`), allocated from the returned Population's arena.
/// `hints` bootstraps every recursive (root hints file).
///
/// `partition` (ascending probe ids) restricts materialization to those
/// vantage points plus the closure of forwarders/recursives they can
/// reach; nullptr materializes everything.
Population materialize_population(
    net::Network& network, const PopulationPlan& plan,
    const PopulationConfig& config,
    const std::vector<resolver::RootHint>& hints,
    const std::vector<std::size_t>* partition = nullptr);

}  // namespace recwild::client
