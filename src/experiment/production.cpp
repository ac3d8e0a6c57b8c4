#include "experiment/production.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "obs/names.hpp"
#include "stats/distributions.hpp"

namespace recwild::experiment {

namespace {

using net::Continent;

struct Source {
  /// Live resolver — constructed only on worlds that replay this source's
  /// traffic (partition-scoped replicas leave it null; address/node below
  /// carry the identity for packing and analysis).
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  net::IpAddress address;
  net::NodeId node = net::kInvalidNode;
  Continent continent = Continent::Europe;
  resolver::PolicyKind policy = resolver::PolicyKind::BindSrtt;
  double rate_per_sec = 0.0;
  std::uint64_t counter = 0;
  /// Private Poisson-arrival stream: gaps must not depend on how other
  /// sources' arrivals interleave, or results would vary with sharding
  /// (and, before this stream existed, with any event reordering).
  stats::Rng sched_rng;
};

/// Schedules Poisson arrivals of cache-busting lookups until `end`.
/// `lookups` is the world's kProductionLookups counter, threaded through so
/// the recursion pays no registry lookup per arrival.
void schedule_next(net::Simulation& sim, Source& src, net::SimTime end,
                   ProductionTarget target, obs::Counter* lookups) {
  const double gap_s = src.sched_rng.exponential(1.0 / src.rate_per_sec);
  const net::SimTime at = sim.now() + net::Duration::seconds(gap_s);
  if (at > end) return;
  sim.at(at, [&sim, &src, end, target, lookups] {
    lookups->add(1, sim.now());
    const std::string label = "x" + std::to_string(src.address.bits()) +
                              "n" + std::to_string(src.counter++);
    dns::Name qname = target == ProductionTarget::Root
                          ? dns::Name::parse(label)
                          : dns::Name::parse(label + ".nl");
    src.resolver->resolve(
        dns::Question{std::move(qname), dns::RRType::A, dns::RRClass::IN},
        [](const resolver::ResolveOutcome&) {});
    schedule_next(sim, src, end, target, lookups);
  });
}

/// Builds every source recursive on `world`, in config order. Worlds
/// sharing one snapshot (identical catalogs, bindings and seeds) draw the
/// byte-identical decision sequence here — addresses, nodes, policies,
/// rates — which is what lets shards replay disjoint subsets of the
/// sources and still merge into one coherent hour.
///
/// `only` (ascending source indices) makes this partition-scoped: every
/// node, address and random draw still happens for every source (identity
/// must not depend on the partition), but only the listed sources get a
/// live resolver. A replica shard therefore pays resolver state — caches,
/// sockets, timers — solely for the sources it replays.
std::vector<std::unique_ptr<Source>> build_sources(
    Testbed& world, const ProductionConfig& config,
    const std::vector<std::size_t>* only = nullptr) {
  auto& sim = world.sim();
  auto& network = world.network();
  stats::Rng rng = sim.rng().fork("production");

  std::vector<char> wanted;
  if (only != nullptr) {
    wanted.assign(config.recursives, 0);
    for (const std::size_t i : *only) wanted.at(i) = 1;
  }

  const stats::WeightedSampler continent_sampler{
      {config.weight_af, config.weight_as, config.weight_eu,
       config.weight_na, config.weight_oc, config.weight_sa}};
  const std::vector<Continent> continents{
      Continent::Africa,       Continent::Asia,    Continent::Europe,
      Continent::NorthAmerica, Continent::Oceania, Continent::SouthAmerica};

  std::vector<std::unique_ptr<Source>> sources;
  sources.reserve(config.recursives);
  for (std::size_t i = 0; i < config.recursives; ++i) {
    const Continent c = continents[continent_sampler.sample(rng)];
    const auto cities = net::locations_on(c);
    const auto& city = cities[rng.index(cities.size())];
    net::GeoPoint loc = city.point;
    loc.lat_deg += rng.uniform(-2.0, 2.0);
    loc.lon_deg += rng.uniform(-2.0, 2.0);
    const net::NodeId node =
        network.add_node("prod-recursive-" + std::to_string(i), loc);

    auto src = std::make_unique<Source>();
    src->node = node;
    src->continent = c;
    src->policy = config.mixture.draw(rng);
    src->sched_rng = rng.fork("prod-sched", i);
    resolver::ResolverConfig rc;
    rc.name = "prod-recursive-" + std::to_string(i);
    rc.policy = src->policy;
    rc.selection.bind_decay = config.bind_decay;
    if (config.warm_start) {
      // Steady-state resolvers keep their infra entries alive through
      // background traffic the synthesizer doesn't generate; stop the
      // 10-minute expiry from re-triggering cold-start probing mid-hour.
      rc.infra.entry_ttl = net::Duration::hours(24);
    }

    // Reachability holes: some letters are simply never reachable from
    // some recursives (routing/filtering); drop them from this source's
    // world view.
    std::vector<resolver::RootHint> hints;
    for (const auto& h : world.hints()) {
      if (!rng.chance(config.unreachable_fraction)) hints.push_back(h);
    }
    if (hints.empty()) hints.push_back(world.hints().front());

    src->address = network.allocate_address();
    stats::Rng resolver_rng = rng.fork("prod-" + std::to_string(i));
    const bool materialize = wanted.empty() || wanted[i] != 0;
    if (materialize) {
      src->resolver = std::make_unique<resolver::RecursiveResolver>(
          network, node, src->address, std::move(rc), hints, resolver_rng);
      src->resolver->start();
    }

    if (config.warm_start) {
      // Long-running recursives know their letters' RTTs already; seed the
      // infra cache with the stable path RTT plus measurement noise so no
      // cold-start exploration happens inside the measured hour. The
      // route() condition and draws run on every world — identical
      // bindings give identical routes — whether or not the resolver is
      // materialized, so the shared rng stream never skews.
      for (const auto& h : hints) {
        const net::NodeId target = network.route(node, h.address);
        if (target == net::kInvalidNode) continue;
        const double rtt = network.base_rtt(node, target).ms() *
                           rng.uniform(0.97, 1.03);
        if (materialize) {
          src->resolver->infra().report_rtt(
              h.address, net::Duration::millis(rtt), sim.now());
        }
      }
    }
    const double volume =
        rng.lognormal(config.volume_mu, config.volume_sigma);
    src->rate_per_sec = volume / (config.duration_hours * 3600.0);
    sources.push_back(std::move(src));
  }
  return sources;
}

/// Per observed service: query count per client address, as reconstructed
/// from that world's authoritative-side logs.
using ClientCounts =
    std::vector<std::unordered_map<net::IpAddress, std::uint64_t>>;

/// Runs the traffic of `source_indices` on `world` and harvests the logs of
/// the observed services. `sources` must be `world`'s own (pre-built, with
/// live resolvers for at least `source_indices`).
ClientCounts run_production_shard(
    Testbed& world, std::vector<std::unique_ptr<Source>>& sources,
    const ProductionConfig& config,
    const std::vector<std::size_t>& source_indices,
    const std::vector<std::size_t>& observed) {
  auto& sim = world.sim();
  auto& group = config.target == ProductionTarget::Root
                    ? world.roots()
                    : world.nl_services();

  const net::SimTime end =
      net::SimTime::origin() +
      net::Duration::hours(config.duration_hours);
  obs::Counter* lookups =
      &sim.metrics().counter(obs::names::kProductionLookups);
  for (const std::size_t i : source_indices) {
    schedule_next(sim, *sources[i], end, config.target, lookups);
  }
  sim.run();

  ClientCounts counts(observed.size());
  for (std::size_t oi = 0; oi < observed.size(); ++oi) {
    for (const auto& site : group[observed[oi]].sites()) {
      for (const auto& [client, n] : site.server->log().per_client()) {
        counts[oi][client] += n;
      }
    }
  }
  return counts;
}

}  // namespace

double ProductionResult::fraction_at_least(std::size_t n) const {
  double f = 0;
  for (std::size_t i = n; i <= fraction_querying.size(); ++i) {
    f += fraction_querying[i - 1];
  }
  return f;
}

ProductionResult run_production(Testbed& testbed,
                                const ProductionConfig& config,
                                RunStats* run_stats) {
  // Observed service group.
  auto& group = config.target == ProductionTarget::Root
                    ? testbed.roots()
                    : testbed.nl_services();
  std::vector<std::size_t> observed;
  if (config.target == ProductionTarget::Root) {
    // DITL-2017: letters B, G and L missing (indices 1, 6, 11).
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (i != 1 && i != 6 && i != 11) observed.push_back(i);
    }
  } else {
    // 4 of the 8 .nl authoritatives: two unicast, two anycast.
    observed = {0, 1, 5, 6};
  }

  // The busy-recursive population's identity always exists in full on
  // every world (so addresses and node ids never depend on the shard
  // count); shards only split whose traffic — and whose live resolver
  // state — is replayed where.
  std::vector<std::unique_ptr<Source>> sources =
      build_sources(testbed, config);
  // Aggregates only at the authoritatives: drop per-packet log entries.
  testbed.retain_query_log_entries(false);

  std::vector<std::size_t> all(sources.size());
  std::iota(all.begin(), all.end(), 0);
  // Replica shards are full worlds of the caller's snapshot (zones,
  // catalog, services planned once) that construct live resolvers only
  // for their own sources.
  auto per_shard = run_sharded(
      testbed, config.shards, all, ReplicaScope::Full, run_stats,
      [&sources](std::size_t shards) {
        // Every source is its own group, weighted by its query rate.
        std::vector<std::vector<std::size_t>> singletons(sources.size());
        std::vector<double> rates(sources.size());
        for (std::size_t i = 0; i < sources.size(); ++i) {
          singletons[i] = {i};
          rates[i] = sources[i]->rate_per_sec;
        }
        return pack_groups(singletons, rates, shards);
      },
      [&config](Testbed& replica, const std::vector<std::size_t>& part) {
        return build_sources(replica, config, &part);
      },
      [&](Testbed& world, const std::vector<std::size_t>& part,
          std::vector<std::unique_ptr<Source>>* replica_sources) {
        return run_production_shard(
            world, replica_sources != nullptr ? *replica_sources : sources,
            config, part, observed);
      });

  // The hour's server-side logs are disjoint per shard: merge by sum.
  ClientCounts counts = std::move(per_shard[0]);
  for (std::size_t i = 1; i < per_shard.size(); ++i) {
    for (std::size_t oi = 0; oi < observed.size(); ++oi) {
      for (const auto& [client, n] : per_shard[i][oi]) {
        counts[oi][client] += n;
      }
    }
  }

  // Reconstruct per-recursive traffic from the authoritative-side logs,
  // exactly as the paper does from DITL/ENTRADA captures.
  ProductionResult result;
  result.sources_total = sources.size();
  result.metrics = testbed.sim().metrics().snapshot();
  std::unordered_map<net::IpAddress, RecursiveTraffic> traffic;
  for (std::size_t oi = 0; oi < observed.size(); ++oi) {
    result.service_labels.push_back(group[observed[oi]].name());
    for (const auto& [client, count] : counts[oi]) {
      auto& t = traffic[client];
      if (t.per_service.empty()) {
        t.per_service.assign(observed.size(), 0);
        t.address = client;
      }
      t.per_service[oi] += count;
      t.total += count;
    }
  }
  // Attach source metadata.
  for (auto& [addr, t] : traffic) {
    for (const auto& src : sources) {
      if (src->address == addr) {
        t.continent = src->continent;
        t.node = src->node;
        t.policy = src->policy;
        break;
      }
    }
  }
  for (auto& [addr, t] : traffic) {
    if (t.total >= config.min_queries) {
      result.recursives.push_back(std::move(t));
    }
  }
  // Equal totals break by address: the rows come out of a hash map, whose
  // iteration order is not portable, so the sort key must be a total order.
  std::sort(result.recursives.begin(), result.recursives.end(),
            [](const RecursiveTraffic& a, const RecursiveTraffic& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.address < b.address;
            });

  // Figure 7 aggregates.
  const std::size_t n_services = result.service_labels.size();
  std::vector<double> rank_sum(n_services, 0.0);
  std::vector<std::size_t> querying(n_services, 0);
  for (const auto& t : result.recursives) {
    std::vector<double> shares;
    std::size_t used = 0;
    for (const auto c : t.per_service) {
      shares.push_back(static_cast<double>(c) /
                       static_cast<double>(t.total));
      if (c > 0) ++used;
    }
    std::sort(shares.rbegin(), shares.rend());
    for (std::size_t r = 0; r < n_services; ++r) rank_sum[r] += shares[r];
    if (used > 0) ++querying[used - 1];
  }
  const double qualif = static_cast<double>(result.recursives.size());
  result.mean_rank_share.resize(n_services, 0.0);
  result.fraction_querying.resize(n_services, 0.0);
  if (qualif > 0) {
    for (std::size_t r = 0; r < n_services; ++r) {
      result.mean_rank_share[r] = rank_sum[r] / qualif;
      result.fraction_querying[r] =
          static_cast<double>(querying[r]) / qualif;
    }
  }
  return result;
}

DeploymentLatency analyze_nl_latency(Testbed& testbed,
                                     const ProductionResult& result) {
  auto& network = testbed.network();
  DeploymentLatency out;
  stats::Sample overall;
  for (const Continent c : net::all_continents()) {
    stats::Sample sample;
    std::size_t queries = 0;
    for (const auto& t : result.recursives) {
      if (t.continent != c || t.node == net::kInvalidNode) continue;
      for (std::size_t s = 0; s < t.per_service.size(); ++s) {
        if (t.per_service[s] == 0) continue;
        // Find the service by label (observed subset of nl services).
        for (auto& svc : testbed.nl_services()) {
          if (svc.name() != result.service_labels[s]) continue;
          const double rtt =
              network.base_rtt_to(t.node, svc.address()).ms();
          // Weight by query count, capped to bound memory.
          const std::size_t w = static_cast<std::size_t>(
              std::min<std::uint64_t>(t.per_service[s], 64));
          for (std::size_t k = 0; k < w; ++k) {
            sample.add(rtt);
            overall.add(rtt);
          }
          queries += t.per_service[s];
          break;
        }
      }
    }
    if (sample.empty()) continue;
    LatencyByContinent row;
    row.continent = c;
    row.queries = queries;
    row.median_ms = sample.median();
    row.p90_ms = sample.quantile(0.90);
    row.worst_ms = sample.quantile(1.0);
    out.continents.push_back(row);
  }
  if (!overall.empty()) {
    out.overall_median_ms = overall.median();
    out.overall_p90_ms = overall.quantile(0.90);
    out.overall_worst_ms = overall.quantile(1.0);
  }
  return out;
}

}  // namespace recwild::experiment
