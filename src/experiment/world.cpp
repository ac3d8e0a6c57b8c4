#include "experiment/world.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <unordered_map>

#include "attack/generator.hpp"
#include "experiment/deployments.hpp"

namespace recwild::experiment {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::shared_ptr<const authns::Zone> shared_zone(authns::Zone zone) {
  return std::make_shared<const authns::Zone>(std::move(zone));
}

/// Union-find partition of the planned VPs into shared-recursive classes:
/// forwarders chase to their upstream, every VP unions all its upstream
/// recursives.
std::vector<std::vector<std::size_t>> plan_vp_groups(
    const client::PopulationPlan& plan) {
  std::unordered_map<net::IpAddress, net::IpAddress> via_forwarder;
  via_forwarder.reserve(plan.forwarders.size() * 2);
  for (const auto& f : plan.forwarders) {
    via_forwarder.emplace(f.address, f.upstream);
  }

  std::unordered_map<net::IpAddress, std::size_t> addr_index;
  std::vector<std::size_t> parent;
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto index_of = [&](net::IpAddress addr) {
    const auto fwd = via_forwarder.find(addr);
    if (fwd != via_forwarder.end()) addr = fwd->second;
    const auto [it, inserted] = addr_index.emplace(addr, parent.size());
    if (inserted) parent.push_back(it->second);
    return it->second;
  };

  const std::size_t n = plan.vp_count();
  std::vector<std::size_t> vp_set(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t lo = plan.vp_upstream_off[v];
    const std::uint32_t hi = plan.vp_upstream_off[v + 1];
    const std::size_t first =
        index_of(lo == hi ? net::IpAddress{} : plan.vp_upstreams[lo]);
    for (std::uint32_t u = lo + 1; u < hi; ++u) {
      const std::size_t other = index_of(plan.vp_upstreams[u]);
      parent[find(other)] = find(first);
    }
    vp_set[v] = first;
  }

  std::unordered_map<std::size_t, std::size_t> group_of_root;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = find(vp_set[v]);
    const auto [it, inserted] = group_of_root.emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(v);
  }
  return groups;
}

}  // namespace

std::shared_ptr<const WorldSnapshot> WorldSnapshot::build(
    TestbedConfig config) {
  if (!config.test_sites.empty() && !config.build_nl) {
    throw std::invalid_argument{
        "Testbed: a test domain requires the .nl deployment"};
  }
  if (!config.attack.empty()) {
    config.attack.validate();
    if (!config.build_nl) {
      throw std::invalid_argument{
          "Testbed: an attack schedule requires the .nl deployment"};
    }
  }

  auto world = std::make_shared<WorldSnapshot>();
  world->config = std::move(config);
  const TestbedConfig& cfg = world->config;
  world->test_domain = dns::Name::parse(cfg.test_domain);

  auto catalog = std::make_shared<net::NodeCatalog>();

  // Allocation order below mirrors the historical Testbed constructor call
  // for call (address, then site nodes, then the v6 address), so node ids
  // and addresses are byte-identical to worlds built before the split.
  const auto plan_service =
      [&catalog](const std::string& label,
                 const std::vector<std::string>& site_codes) {
        ServicePlan sp;
        sp.label = label;
        sp.address = catalog->allocate_address();
        for (const auto& code : site_codes) {
          const auto loc = net::find_location(code);
          if (!loc) {
            throw std::invalid_argument{
                "AnycastService: unknown location " + code};
          }
          sp.sites.push_back(anycast::SitePlan{
              code, loc->point,
              catalog->add_node(label + "@" + code, loc->point)});
        }
        return sp;
      };

  // Root letters.
  std::vector<NsHost> root_apex;
  for (const auto& spec : root_letter_specs()) {
    ServicePlan sp = plan_service(spec.label, spec.site_codes);
    const dns::Name ns_name =
        dns::Name::parse(spec.label.substr(0, 1) + ".root-servers.net");
    NsHost host{ns_name, sp.address};
    if (cfg.dual_stack) {
      sp.address6 = catalog->allocate_address6();
      host.address6 = *sp.address6;
      world->hints6.push_back(resolver::RootHint{ns_name, *sp.address6});
    }
    root_apex.push_back(std::move(host));
    world->hints.push_back(resolver::RootHint{ns_name, sp.address});
    world->roots.push_back(std::move(sp));
  }

  // .nl services.
  std::vector<NsHost> nl_apex;
  if (cfg.build_nl) {
    const auto specs =
        cfg.all_anycast_nl ? nl_all_anycast_specs() : nl_service_specs();
    std::size_t i = 0;
    for (const auto& spec : specs) {
      ++i;
      ServicePlan sp = plan_service(spec.label, spec.site_codes);
      NsHost host{dns::Name::parse("ns" + std::to_string(i) + ".dns.nl"),
                  sp.address};
      if (cfg.dual_stack) {
        sp.address6 = catalog->allocate_address6();
        host.address6 = *sp.address6;
      }
      nl_apex.push_back(std::move(host));
      world->nl.push_back(std::move(sp));
    }
  }

  // Test-domain authoritatives: one unicast service per site, or — with
  // cfg.anycast_test — a single anycast service spanning every site
  // behind one NS name and one shared address.
  std::vector<NsHost> test_ns;
  if (cfg.anycast_test && !cfg.test_sites.empty()) {
    for (const auto& code : cfg.test_sites) {
      if (!net::find_location(code)) {
        throw std::invalid_argument{"Testbed: unknown test site " + code};
      }
    }
    ServicePlan sp = plan_service("test-any", cfg.test_sites);
    NsHost host{dns::Name::parse("ns-any." + cfg.test_domain), sp.address};
    if (cfg.dual_stack) {
      sp.address6 = catalog->allocate_address6();
      host.address6 = *sp.address6;
    }
    test_ns.push_back(std::move(host));
    world->test.push_back(std::move(sp));
  } else {
    for (const auto& code : cfg.test_sites) {
      if (!net::find_location(code)) {
        throw std::invalid_argument{"Testbed: unknown test site " + code};
      }
      ServicePlan sp = plan_service(code, {code});
      NsHost host{
          dns::Name::parse("ns-" + lower(code) + "." + cfg.test_domain),
          sp.address};
      if (cfg.dual_stack) {
        sp.address6 = catalog->allocate_address6();
        host.address6 = *sp.address6;
      }
      test_ns.push_back(std::move(host));
      world->test.push_back(std::move(sp));
    }
  }

  // Attacker-controlled authoritative.
  std::vector<NsHost> attacker_ns;
  if (!cfg.attack.empty()) {
    const auto& zone_cfg = cfg.attack.zone();
    if (!net::find_location(cfg.attack_site)) {
      throw std::invalid_argument{"Testbed: unknown attack site " +
                                  cfg.attack_site};
    }
    ServicePlan sp = plan_service("ATK", {cfg.attack_site});
    const dns::Name ns_name =
        dns::Name::parse("ns." + zone_cfg.attacker_domain);
    attacker_ns.push_back(NsHost{ns_name, sp.address});
    for (auto& zone :
         attack::make_nxns_zones(zone_cfg, ns_name, sp.address)) {
      sp.zones.push_back(shared_zone(std::move(zone)));
    }
    world->attacker.push_back(std::move(sp));
  }

  // Zones. Shared zones are built once and pointed to by every service
  // that serves them; sites share them again, so a 13-letter root service
  // holds ONE root zone regardless of site count — and so does every
  // shard replica.
  {
    ZoneSpec root_spec;
    root_spec.origin = dns::Name{};
    root_spec.apex_ns = root_apex;
    if (!nl_apex.empty()) {
      root_spec.delegations.push_back(
          Delegation{dns::Name::parse("nl"), nl_apex});
    }
    const auto root_zone = shared_zone(build_zone(root_spec));
    for (auto& sp : world->roots) sp.zones.push_back(root_zone);
  }
  if (!world->nl.empty()) {
    ZoneSpec nl_spec;
    nl_spec.origin = dns::Name::parse("nl");
    nl_spec.apex_ns = nl_apex;
    if (!test_ns.empty()) {
      nl_spec.delegations.push_back(
          Delegation{world->test_domain, test_ns});
    }
    if (!attacker_ns.empty()) {
      nl_spec.delegations.push_back(Delegation{
          dns::Name::parse(cfg.attack.zone().attacker_domain),
          attacker_ns});
    }
    nl_spec.negative_ttl = 60;
    const auto nl_zone = shared_zone(build_zone(nl_spec));
    for (auto& sp : world->nl) sp.zones.push_back(nl_zone);
  }
  for (std::size_t i = 0; i < world->test.size(); ++i) {
    ZoneSpec z;
    z.origin = world->test_domain;
    z.apex_ns = test_ns;
    // Per-site unicast services answer with their own site code (the
    // paper's site-identification trick); the anycast service serves one
    // shared zone — answering with its label — from every site.
    z.wildcard_txt =
        cfg.anycast_test ? world->test[i].label : cfg.test_sites[i];
    z.txt_ttl = cfg.txt_ttl;
    world->test[i].zones.push_back(shared_zone(build_zone(z)));
  }

  // Population plan. The simulation's root RNG is never drawn from (only
  // forked), so forking a fresh Rng{seed} here draws the byte-identical
  // "population" stream the live builder drew via sim.rng().
  if (cfg.build_population) {
    world->population = client::plan_population(
        *catalog, cfg.population, stats::Rng{cfg.seed}.fork("population"));
    world->vp_groups = plan_vp_groups(world->population);
  }

  world->catalog = std::move(catalog);
  return world;
}

}  // namespace recwild::experiment
