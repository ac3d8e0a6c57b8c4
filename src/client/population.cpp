#include "client/population.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "stats/distributions.hpp"

namespace recwild::client {

namespace {

using net::Continent;

/// Picks a catalog city on `continent` and scatters around it.
net::GeoPoint scatter_city(Continent continent, double scatter_deg,
                           stats::Rng& rng, net::GeoPoint* city_out) {
  const auto cities = net::locations_on(continent);
  const auto& city = cities[rng.index(cities.size())];
  if (city_out != nullptr) *city_out = city.point;
  net::GeoPoint p = city.point;
  p.lat_deg += rng.uniform(-scatter_deg, scatter_deg);
  p.lon_deg += rng.uniform(-scatter_deg, scatter_deg);
  p.lat_deg = std::clamp(p.lat_deg, -85.0, 85.0);
  if (p.lon_deg > 180.0) p.lon_deg -= 360.0;
  if (p.lon_deg < -180.0) p.lon_deg += 360.0;
  return p;
}

std::string recursive_name(const PopulationPlan::RecursivePlan& rp) {
  return (rp.is_public ? "public-dns-" : "isp-recursive-as") +
         std::to_string(rp.label_id);
}

}  // namespace

VantagePoint* Population::by_probe(std::size_t probe_id) noexcept {
  const auto it = std::lower_bound(
      vps_.begin(), vps_.end(), probe_id,
      [](const VantagePoint& vp, std::size_t id) {
        return vp.probe_id < id;
      });
  return it != vps_.end() && it->probe_id == probe_id ? &*it : nullptr;
}

const VantagePoint* Population::by_probe(
    std::size_t probe_id) const noexcept {
  return const_cast<Population*>(this)->by_probe(probe_id);
}

const RecursiveInfo* Population::recursive_by_address(
    net::IpAddress addr) const {
  // Middleboxes are transparent: chase a forwarder to its upstream.
  for (const auto* f : forwarders_) {
    if (f->address() == addr) {
      addr = f->upstream();
      break;
    }
  }
  for (const auto& r : recursives_) {
    if (r.resolver->address() == addr) return &r;
  }
  return nullptr;
}

void Population::flush_all_caches() {
  for (auto& r : recursives_) r.resolver->flush_caches();
}

PopulationPlan plan_population(net::NodeCatalog& catalog,
                               const PopulationConfig& config,
                               stats::Rng rng) {
  // The draw/allocation sequence below replicates the historical one-shot
  // builder call for call: every rng draw, node id and address a seed used
  // to produce stays byte-identical, which is what keeps golden fixtures
  // and shard byte-identity stable across the plan/materialize split.
  PopulationPlan plan;

  const std::vector<Continent> continents{
      Continent::Africa,       Continent::Asia,    Continent::Europe,
      Continent::NorthAmerica, Continent::Oceania, Continent::SouthAmerica};
  const stats::WeightedSampler continent_sampler{
      {config.weight_af, config.weight_as, config.weight_eu,
       config.weight_na, config.weight_oc, config.weight_sa}};

  // Public recursives: large shared services at well-connected cities.
  std::vector<net::IpAddress> public_addrs;
  {
    static constexpr std::string_view kPublicCities[] = {
        "FRA", "IAD", "SIN", "SFO", "LHR", "NRT", "GRU", "SYD"};
    for (std::size_t i = 0; i < config.public_resolvers; ++i) {
      const auto loc = net::find_location(
          kPublicCities[i % std::size(kPublicCities)]);
      PopulationPlan::RecursivePlan rp;
      rp.label_id = i;
      rp.node = catalog.add_node("public-dns-" + std::to_string(i),
                                 loc->point);
      // Public services run modern latency-aware software.
      rp.policy = (i % 2 == 0) ? resolver::PolicyKind::UnboundBand
                               : resolver::PolicyKind::BindSrtt;
      rp.address = catalog.allocate_address();
      rp.rng = rng.fork("public-dns-" + std::to_string(i));
      rp.is_public = true;
      rp.continent = loc->continent;
      rp.location = loc->point;
      public_addrs.push_back(rp.address);
      plan.recursives.push_back(rp);
    }
  }

  plan.vp_upstream_off.push_back(0);

  // ASes: cluster probes, give each AS an ISP recursive near its centroid.
  std::size_t created = 0;
  std::size_t as_id = 0;
  while (created < config.probes) {
    ++as_id;
    // AS size: geometric-ish around the configured mean, at least 1.
    std::size_t as_probes = 1 + static_cast<std::size_t>(
        rng.exponential(std::max(0.0, config.mean_probes_per_as - 1.0)));
    as_probes = std::min(as_probes, config.probes - created);

    const auto continent = continents[continent_sampler.sample(rng)];
    net::GeoPoint city;
    const net::GeoPoint as_center =
        scatter_city(continent, config.scatter_deg, rng, &city);

    // ISP recursive for this AS.
    PopulationPlan::RecursivePlan rp;
    rp.label_id = as_id;
    rp.node = catalog.add_node("isp-recursive-as" + std::to_string(as_id),
                               as_center);
    rp.policy = config.mixture.draw(rng);
    rp.dual = rng.chance(config.ipv6_fraction);
    rp.address = catalog.allocate_address();
    rp.rng = rng.fork("isp-recursive-as" + std::to_string(as_id));
    rp.continent = continent;
    rp.location = as_center;
    const net::IpAddress raddr = rp.address;
    plan.recursives.push_back(rp);

    for (std::size_t i = 0; i < as_probes; ++i) {
      const std::size_t probe_id = created++;
      net::GeoPoint ploc = as_center;
      ploc.lat_deg += rng.uniform(-0.8, 0.8);
      ploc.lon_deg += rng.uniform(-0.8, 0.8);
      const net::NodeId pnode =
          catalog.add_node("probe-" + std::to_string(probe_id), ploc);

      std::int32_t forwarder = -1;
      const bool uses_public =
          !public_addrs.empty() &&
          rng.chance(config.public_resolver_fraction);
      if (uses_public) {
        plan.vp_upstreams.push_back(
            public_addrs[rng.index(public_addrs.size())]);
      } else if (rng.chance(config.forwarder_fraction)) {
        // Home-router middlebox on the probe's own premises, relaying to
        // the ISP recursive.
        PopulationPlan::ForwarderPlan fp;
        fp.probe_id = probe_id;
        fp.node = pnode;
        fp.address = catalog.allocate_address();
        fp.upstream = raddr;
        fp.rng = rng.fork("forwarder-" + std::to_string(probe_id));
        forwarder = static_cast<std::int32_t>(plan.forwarders.size());
        plan.forwarders.push_back(fp);
        plan.vp_upstreams.push_back(fp.address);
      } else {
        plan.vp_upstreams.push_back(raddr);
      }
      if (rng.chance(config.second_recursive_fraction)) {
        // Second configured recursive: the other kind.
        if (uses_public) {
          plan.vp_upstreams.push_back(raddr);
        } else if (!public_addrs.empty()) {
          plan.vp_upstreams.push_back(
              public_addrs[rng.index(public_addrs.size())]);
        }
      }

      plan.vp_continent.push_back(continent);
      plan.vp_location.push_back(ploc);
      plan.vp_node.push_back(pnode);
      plan.vp_stub_addr.push_back(catalog.allocate_address());
      plan.vp_rng.push_back(rng.fork("probe-" + std::to_string(probe_id)));
      plan.vp_upstream_off.push_back(
          static_cast<std::uint32_t>(plan.vp_upstreams.size()));
      plan.vp_forwarder.push_back(forwarder);
    }
  }
  return plan;
}

Population materialize_population(
    net::Network& network, const PopulationPlan& plan,
    const PopulationConfig& config,
    const std::vector<resolver::RootHint>& hints,
    const std::vector<std::size_t>* partition) {
  Population pop;

  // Partition closure: which recursives/forwarders this population needs.
  std::vector<char> need_rec(plan.recursives.size(),
                             partition == nullptr ? 1 : 0);
  std::vector<char> need_fwd(plan.forwarders.size(),
                             partition == nullptr ? 1 : 0);
  if (partition != nullptr) {
    std::unordered_map<net::IpAddress, std::size_t> rec_of;
    rec_of.reserve(plan.recursives.size() * 2);
    for (std::size_t r = 0; r < plan.recursives.size(); ++r) {
      rec_of.emplace(plan.recursives[r].address, r);
    }
    std::unordered_map<net::IpAddress, std::size_t> fwd_of;
    fwd_of.reserve(plan.forwarders.size() * 2);
    for (std::size_t f = 0; f < plan.forwarders.size(); ++f) {
      fwd_of.emplace(plan.forwarders[f].address, f);
    }
    for (const std::size_t v : *partition) {
      if (v >= plan.vp_count()) {
        throw std::out_of_range{"materialize_population: bad vp index"};
      }
      for (std::uint32_t u = plan.vp_upstream_off[v];
           u < plan.vp_upstream_off[v + 1]; ++u) {
        net::IpAddress addr = plan.vp_upstreams[u];
        const auto fwd = fwd_of.find(addr);
        if (fwd != fwd_of.end()) {
          need_fwd[fwd->second] = 1;
          addr = plan.forwarders[fwd->second].upstream;
        }
        const auto rec = rec_of.find(addr);
        if (rec != rec_of.end()) need_rec[rec->second] = 1;
      }
    }
  }

  // Recursives, forwarders, then stubs, each ascending in plan order.
  // start() only registers listeners (no events, no rng), so this order is
  // observationally identical to the historical interleaved construction.
  for (std::size_t r = 0; r < plan.recursives.size(); ++r) {
    if (!need_rec[r]) continue;
    const auto& rp = plan.recursives[r];
    resolver::ResolverConfig rc = config.resolver_template;
    rc.name = recursive_name(rp);
    rc.policy = rp.policy;
    if (rp.dual) rc.family = resolver::AddressFamily::Dual;
    RecursiveInfo info;
    info.resolver = pop.arena_.make<resolver::RecursiveResolver>(
        network, rp.node, rp.address, std::move(rc), hints, rp.rng);
    info.resolver->start();
    info.continent = rp.continent;
    info.location = rp.location;
    info.is_public = rp.is_public;
    pop.recursives_.push_back(info);
  }

  for (std::size_t f = 0; f < plan.forwarders.size(); ++f) {
    if (!need_fwd[f]) continue;
    const auto& fp = plan.forwarders[f];
    Forwarder* fwd = pop.arena_.make<Forwarder>(
        network, fp.node, fp.address, fp.upstream, config.forwarder,
        fp.rng);
    fwd->start();
    pop.forwarders_.push_back(fwd);
  }

  const auto materialize_vp = [&](std::size_t v) {
    std::vector<net::IpAddress> upstreams(
        plan.vp_upstreams.begin() + plan.vp_upstream_off[v],
        plan.vp_upstreams.begin() + plan.vp_upstream_off[v + 1]);
    VantagePoint vp;
    vp.probe_id = v;
    vp.continent = plan.vp_continent[v];
    vp.location = plan.vp_location[v];
    vp.node = plan.vp_node[v];
    vp.stub = pop.arena_.make<StubResolver>(
        network, vp.node, plan.vp_stub_addr[v], std::move(upstreams),
        config.stub, plan.vp_rng[v]);
    vp.stub->start();
    pop.vps_.push_back(vp);
  };
  if (partition == nullptr) {
    for (std::size_t v = 0; v < plan.vp_count(); ++v) materialize_vp(v);
  } else {
    for (const std::size_t v : *partition) materialize_vp(v);
  }
  return pop;
}

}  // namespace recwild::client
