// Campaign robustness under packet loss, plus the query-log bridge: the
// per-client aggregation the paper's analysis reads (Figure 7) must agree
// with the servers' own totals.
#include <gtest/gtest.h>

#include "experiment/analysis.hpp"
#include "experiment/campaign.hpp"
#include "experiment/production.hpp"

namespace recwild::experiment {
namespace {

TEST(LossCampaign, SurvivesHeavyLoss) {
  TestbedConfig cfg;
  cfg.seed = 88;
  cfg.population.probes = 150;
  cfg.test_sites = {"DUB", "FRA"};
  cfg.latency.loss_rate = 0.05;  // 5% loss everywhere
  Testbed tb{cfg};
  CampaignConfig cc;
  cc.queries_per_vp = 15;
  const auto result = run_campaign(tb, cc);

  std::size_t answered = 0;
  std::size_t total = 0;
  for (const auto& vp : result.vps) {
    for (const int s : vp.sequence) {
      ++total;
      if (s >= 0) ++answered;
    }
  }
  // Stub retries + resolver retransmissions absorb almost all loss.
  EXPECT_GT(stats::share(answered, total), 0.97);

  const auto cov = analyze_coverage(result);
  EXPECT_GT(cov.covering_fraction, 0.6);
}

TEST(LossCampaign, AnalysisIgnoresTimeouts) {
  TestbedConfig cfg;
  cfg.seed = 89;
  cfg.population.probes = 100;
  cfg.test_sites = {"FRA", "SYD"};
  cfg.latency.loss_rate = 0.10;
  Testbed tb{cfg};
  CampaignConfig cc;
  cc.queries_per_vp = 12;
  const auto result = run_campaign(tb, cc);
  const auto shares = analyze_shares(result);
  // Shares remain a proper distribution despite the -1 timeout entries.
  double total = 0;
  for (const double s : shares.query_share) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(TraceBridge, OfflineTraceMatchesLiveAnalysis) {
  // Run a small production hour: every root site's per-client counters
  // must add up to its total, even though run_production keeps no
  // query-log entries at the target group.
  TestbedConfig cfg;
  cfg.seed = 90;
  cfg.build_population = false;
  Testbed tb{cfg};
  ProductionConfig pc;
  pc.target = ProductionTarget::Root;
  pc.recursives = 40;
  pc.duration_hours = 0.2;
  pc.volume_mu = 4.5;
  pc.min_queries = 10;
  const auto live = run_production(tb, pc);

  auto& letter = tb.roots().front();
  std::uint64_t live_total = 0;
  for (auto& site : letter.sites()) {
    live_total += site.server->log().total();
  }
  std::uint64_t counter_total = 0;
  for (auto& site : letter.sites()) {
    for (const auto& [client, n] : site.server->log().per_client()) {
      counter_total += n;
    }
  }
  EXPECT_EQ(live_total, counter_total);
  EXPECT_GT(live.sources_total, 0u);
}

TEST(QueryLogBridge, DirectlyDrivenServersCountPerClient) {
  // Drive the root servers from one resolver: counting the entries the
  // query logs kept gives the same total and the same single client as
  // the logs' own counters.
  TestbedConfig cfg;
  cfg.seed = 91;
  cfg.build_population = false;
  cfg.build_nl = false;
  Testbed tb{cfg};

  resolver::ResolverConfig rc;
  rc.name = "trace-bridge";
  resolver::RecursiveResolver res{
      tb.network(),
      tb.network().add_node("tbr", net::find_location("AMS")->point),
      tb.network().allocate_address(), rc, tb.hints(), stats::Rng{6}};
  res.start();
  for (int i = 0; i < 20; ++i) {
    res.resolve(dns::Question{dns::Name::parse("junk" + std::to_string(i)),
                              dns::RRType::A, dns::RRClass::IN},
                [](const resolver::ResolveOutcome&) {});
    tb.sim().run();
  }

  std::uint64_t live_total = 0;
  std::uint64_t entries = 0;
  std::uint64_t from_resolver = 0;
  for (auto& letter : tb.roots()) {
    for (auto& site : letter.sites()) {
      const authns::QueryLog& log = site.server->log();
      live_total += log.total();
      for (const auto& e : log.entries()) {
        ++entries;
        if (e.client == res.address()) ++from_resolver;
      }
      for (const auto& [client, n] : log.per_client()) {
        EXPECT_EQ(client, res.address());
      }
    }
  }
  EXPECT_GT(live_total, 0u);
  EXPECT_EQ(entries, live_total);
  EXPECT_EQ(from_resolver, live_total);
}

}  // namespace
}  // namespace recwild::experiment
