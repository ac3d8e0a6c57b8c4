#include "client/population.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

namespace recwild::client {
namespace {

// Plans the population over a node catalog and materializes it onto a
// network built over that catalog, as experiment::Testbed does.
struct Fixture {
  net::Simulation sim{99};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::vector<resolver::RootHint> hints;

  Population build(const PopulationConfig& cfg) {
    params.loss_rate = 0;
    auto catalog = std::make_shared<net::NodeCatalog>();
    hints.push_back(resolver::RootHint{
        dns::Name::parse("a.root-servers.net"), catalog->allocate_address()});
    const PopulationPlan plan = plan_population(*catalog, cfg, stats::Rng{1});
    net_ = std::make_unique<net::Network>(sim, params, std::move(catalog));
    return materialize_population(*net_, plan, cfg, hints);
  }
};

TEST(Population, CreatesRequestedProbeCount) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 300;
  const auto pop = f.build(cfg);
  EXPECT_EQ(pop.vps().size(), 300u);
}

TEST(Population, ContinentalSkewFollowsWeights) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 2000;
  const auto pop = f.build(cfg);
  std::map<net::Continent, int> counts;
  for (const auto& vp : pop.vps()) ++counts[vp.continent];
  // Europe dominates (paper: 6221 of 8685 ~ 72%).
  EXPECT_GT(counts[net::Continent::Europe], 1100);
  // Every continent is represented.
  for (const net::Continent c : net::all_continents()) {
    EXPECT_GT(counts[c], 0) << net::continent_name(c);
  }
}

TEST(Population, RecursivesClusterProbes) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 500;
  cfg.mean_probes_per_as = 3.0;
  const auto pop = f.build(cfg);
  // Fewer recursives than probes (AS clustering), but more than publics.
  EXPECT_LT(pop.recursives().size(), 500u);
  EXPECT_GT(pop.recursives().size(), cfg.public_resolvers);
}

TEST(Population, PublicResolversMarked) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 100;
  cfg.public_resolvers = 4;
  const auto pop = f.build(cfg);
  std::size_t publics = 0;
  for (const auto& r : pop.recursives()) {
    if (r.is_public) ++publics;
  }
  EXPECT_EQ(publics, 4u);
}

TEST(Population, SomeProbesUsePublicResolvers) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 1000;
  cfg.public_resolver_fraction = 0.3;
  const auto pop = f.build(cfg);
  std::vector<net::IpAddress> public_addrs;
  for (const auto& r : pop.recursives()) {
    if (r.is_public) public_addrs.push_back(r.resolver->address());
  }
  std::size_t using_public = 0;
  for (const auto& vp : pop.vps()) {
    const auto& ups = vp.stub->recursives();
    if (std::find(public_addrs.begin(), public_addrs.end(), ups.front()) !=
        public_addrs.end()) {
      ++using_public;
    }
  }
  EXPECT_NEAR(using_public / 1000.0, 0.3, 0.06);
}

TEST(Population, SecondRecursiveFraction) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 1000;
  cfg.second_recursive_fraction = 0.25;
  const auto pop = f.build(cfg);
  std::size_t with_two = 0;
  for (const auto& vp : pop.vps()) {
    if (vp.stub->recursives().size() >= 2) ++with_two;
  }
  EXPECT_NEAR(with_two / 1000.0, 0.25, 0.06);
}

TEST(Population, MixtureProducesPolicyDiversity) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 600;
  const auto pop = f.build(cfg);
  std::map<resolver::PolicyKind, int> kinds;
  for (const auto& r : pop.recursives()) ++kinds[r.resolver->policy()];
  EXPECT_GE(kinds.size(), 4u);  // at least 4 of the 6 kinds present
}

TEST(Population, PurePolicyAblation) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 200;
  cfg.mixture = resolver::PolicyMixture::pure(resolver::PolicyKind::RoundRobin);
  cfg.public_resolvers = 0;
  cfg.public_resolver_fraction = 0;
  const auto pop = f.build(cfg);
  for (const auto& r : pop.recursives()) {
    EXPECT_EQ(r.resolver->policy(), resolver::PolicyKind::RoundRobin);
  }
}

TEST(Population, LookupByAddress) {
  Fixture f;
  PopulationConfig cfg;
  cfg.probes = 50;
  const auto pop = f.build(cfg);
  const auto& first = pop.recursives().front();
  const auto* found = pop.recursive_by_address(first.resolver->address());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &first);
  EXPECT_EQ(pop.recursive_by_address(net::IpAddress{0xffffffff}), nullptr);
}

TEST(Population, DeterministicAcrossRebuilds) {
  PopulationConfig cfg;
  cfg.probes = 100;
  Fixture f1;
  Fixture f2;
  const auto p1 = f1.build(cfg);
  const auto p2 = f2.build(cfg);
  ASSERT_EQ(p1.vps().size(), p2.vps().size());
  ASSERT_EQ(p1.recursives().size(), p2.recursives().size());
  for (std::size_t i = 0; i < p1.vps().size(); ++i) {
    EXPECT_EQ(p1.vps()[i].continent, p2.vps()[i].continent);
    EXPECT_DOUBLE_EQ(p1.vps()[i].location.lat_deg,
                     p2.vps()[i].location.lat_deg);
  }
  for (std::size_t i = 0; i < p1.recursives().size(); ++i) {
    EXPECT_EQ(p1.recursives()[i].resolver->policy(),
              p2.recursives()[i].resolver->policy());
  }
}

}  // namespace
}  // namespace recwild::client
