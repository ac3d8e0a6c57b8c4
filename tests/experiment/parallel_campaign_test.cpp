// Determinism of the sharded campaign engine: the shards knob must change
// wall-clock behaviour only, never a single byte of the result.
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "experiment/campaign.hpp"
#include "experiment/export.hpp"
#include "experiment/production.hpp"

namespace recwild::experiment {
namespace {

TestbedConfig small_config(std::uint64_t seed = 77, std::size_t probes = 90) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.population.probes = probes;
  cfg.test_sites = {"DUB", "FRA", "GRU"};
  return cfg;
}

CampaignResult run_with_shards(std::size_t shards) {
  Testbed tb{small_config()};
  CampaignConfig cc;
  cc.interval = net::Duration::minutes(2);
  cc.queries_per_vp = 5;
  cc.shards = shards;
  return run_campaign(tb, cc);
}

std::string export_bytes(const CampaignResult& result) {
  std::ostringstream out;
  write_campaign_csv(out, result);
  write_preferences_csv(out, result);
  write_shares_csv(out, result);
  return out.str();
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.service_codes, b.service_codes);
  ASSERT_EQ(a.vps.size(), b.vps.size());
  for (std::size_t i = 0; i < a.vps.size(); ++i) {
    const auto& va = a.vps[i];
    const auto& vb = b.vps[i];
    EXPECT_EQ(va.probe_id, vb.probe_id) << "vp " << i;
    EXPECT_EQ(va.continent, vb.continent) << "vp " << i;
    EXPECT_EQ(va.recursive_addr, vb.recursive_addr) << "vp " << i;
    EXPECT_EQ(va.sequence, vb.sequence) << "vp " << i;
    EXPECT_EQ(va.rtt_ms, vb.rtt_ms) << "vp " << i;
  }
}

TEST(ParallelCampaign, ShardsDoNotChangeResults) {
  const auto serial = run_with_shards(1);
  const auto two = run_with_shards(2);
  const auto four = run_with_shards(4);
  expect_identical(serial, two);
  expect_identical(serial, four);
}

TEST(ParallelCampaign, ExportedBytesIdenticalAcrossShardCounts) {
  const std::string serial = export_bytes(run_with_shards(1));
  EXPECT_EQ(serial, export_bytes(run_with_shards(2)));
  EXPECT_EQ(serial, export_bytes(run_with_shards(3)));
  EXPECT_EQ(serial, export_bytes(run_with_shards(4)));
  EXPECT_EQ(serial, export_bytes(run_with_shards(8)));
}

TEST(ParallelCampaign, LockstepProbesIdenticalAcrossShardCounts) {
  // Without phase jitter every VP probes at the same instants, so all
  // probes tie on time and fire in event-sequence order.
  const auto run = [](std::size_t shards) {
    Testbed tb{small_config()};
    CampaignConfig cc;
    cc.queries_per_vp = 5;
    cc.phase_jitter = false;
    cc.shards = shards;
    return run_campaign(tb, cc);
  };
  const std::string serial = export_bytes(run(1));
  EXPECT_EQ(serial, export_bytes(run(2)));
  EXPECT_EQ(serial, export_bytes(run(4)));
}

TEST(ParallelCampaign, RunStatsAccountForEveryVp) {
  Testbed tb{small_config()};
  CampaignConfig cc;
  cc.queries_per_vp = 3;
  cc.shards = 4;
  RunStats stats;
  cc.run_stats = &stats;
  const auto result = run_campaign(tb, cc);
  ASSERT_FALSE(stats.shards.empty());
  std::size_t vps = 0;
  for (const auto& s : stats.shards) {
    vps += s.items;
    EXPECT_GE(s.wall_s, 0.0);
  }
  EXPECT_EQ(vps, result.vps.size());
  EXPECT_GE(stats.run_s, 0.0);
}

TEST(ParallelCampaign, MoreShardsThanGroupsStillWorks) {
  const auto serial = run_with_shards(1);
  const auto many = run_with_shards(64);
  expect_identical(serial, many);
}

TEST(ParallelCampaign, GroupsPartitionAllVpsAndShareNoRecursive) {
  Testbed tb{small_config()};
  const auto& groups = tb.world()->vp_groups;
  const auto& vps = tb.population().vps();
  std::vector<bool> seen(vps.size(), false);
  std::map<net::IpAddress, std::size_t> owner;  // recursive -> group
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ASSERT_FALSE(groups[g].empty());
    for (const std::size_t vp_index : groups[g]) {
      ASSERT_LT(vp_index, vps.size());
      EXPECT_FALSE(seen[vp_index]) << "vp in two groups";
      seen[vp_index] = true;
      for (const auto& addr : vps[vp_index].stub->recursives()) {
        const auto [it, inserted] = owner.emplace(addr, g);
        EXPECT_EQ(it->second, g) << "recursive shared across groups";
      }
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "vp " << i << " missing from the partition";
  }
}

TEST(ParallelProduction, ShardsDoNotChangeResults) {
  const auto run = [](std::size_t shards) {
    TestbedConfig cfg;
    cfg.seed = 5;
    cfg.population.probes = 0;
    Testbed tb{cfg};
    ProductionConfig pc;
    pc.recursives = 60;
    pc.duration_hours = 0.1;
    pc.min_queries = 5;
    pc.shards = shards;
    return run_production(tb, pc);
  };
  const auto serial = run(1);
  const std::string serial_json =
      serial.metrics.to_json(obs::SnapshotStyle::MergeSafe);
  for (const std::size_t shards : {2, 4}) {
    SCOPED_TRACE(shards);
    const auto sharded = run(shards);
    ASSERT_EQ(serial.service_labels, sharded.service_labels);
    ASSERT_EQ(serial.sources_total, sharded.sources_total);
    ASSERT_EQ(serial.recursives.size(), sharded.recursives.size());
    for (std::size_t i = 0; i < serial.recursives.size(); ++i) {
      const auto& ra = serial.recursives[i];
      const auto& rb = sharded.recursives[i];
      EXPECT_EQ(ra.address, rb.address) << "recursive " << i;
      EXPECT_EQ(ra.total, rb.total) << "recursive " << i;
      EXPECT_EQ(ra.per_service, rb.per_service) << "recursive " << i;
    }
    EXPECT_EQ(serial.mean_rank_share, sharded.mean_rank_share);
    EXPECT_EQ(serial.fraction_querying, sharded.fraction_querying);
    EXPECT_EQ(serial_json,
              sharded.metrics.to_json(obs::SnapshotStyle::MergeSafe));
  }
}

}  // namespace
}  // namespace recwild::experiment
