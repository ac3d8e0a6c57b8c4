// run_sharded, shared by campaign, scan and production: its error
// path, its one-part case, the packer's tie-break, and the RunStats every
// engine reports through it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "experiment/production.hpp"
#include "experiment/scan.hpp"
#include "experiment/sharding.hpp"
#include "stats/rng.hpp"

namespace recwild::experiment {
namespace {

using Part = std::vector<std::size_t>;

/// A world without vantage points: cheap to replicate in full.
TestbedConfig bare_config() {
  TestbedConfig cfg;
  cfg.seed = 5;
  cfg.population.probes = 0;
  return cfg;
}

ShardParts one_item_each(std::size_t shards) {
  ShardParts parts(shards);
  for (std::size_t i = 0; i < shards; ++i) parts[i] = {i};
  return parts;
}

void expect_accounts_for(const RunStats& stats, std::size_t items) {
  ASSERT_FALSE(stats.shards.empty());
  std::size_t sum = 0;
  for (const auto& s : stats.shards) {
    sum += s.items;
    EXPECT_GE(s.wall_s, 0.0);
  }
  EXPECT_EQ(sum, items);
  EXPECT_GE(stats.run_s, 0.0);
#if defined(__linux__)
  EXPECT_GT(stats.peak_rss_kb, 0u);
#endif
}

TEST(Sharding, ShardErrorRethrownOnlyAfterEveryWorkerJoined) {
  Testbed tb{bare_config()};
  const std::size_t trace_before = tb.trace().size();
  std::atomic<int> finished{0};
  RunStats stats;
  try {
    (void)run_sharded(
        tb, 4, Part{0, 1, 2, 3}, ReplicaScope::Full, &stats, one_item_each,
        no_replica_state, [&](Testbed&, const Part& part, auto*) {
          if (part.front() == 2) throw std::runtime_error{"part 2 failed"};
          // The other shards outlast the failing one.
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          ++finished;
          return 0;
        });
    FAIL() << "the shard's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "part 2 failed");
  }
  EXPECT_EQ(finished.load(), 3);
  EXPECT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(tb.trace().size(), trace_before);
}

TEST(Sharding, OnePartRunsInlineOnTheCallerWithoutReplicaState) {
  Testbed tb{bare_config()};
  bool packed = false;
  bool prepared = false;
  RunStats stats;
  const auto outputs = run_sharded(
      tb, 1, Part{0, 1, 2}, ReplicaScope::Full, &stats,
      [&](std::size_t) {
        packed = true;
        return ShardParts{};
      },
      [&](Testbed&, const Part&) {
        prepared = true;
        return 0;
      },
      [&](Testbed& world, const Part& part, int* state) {
        EXPECT_EQ(&world, &tb);
        EXPECT_EQ(state, nullptr);
        return part.size();
      });
  EXPECT_FALSE(packed);
  EXPECT_FALSE(prepared);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0], 3u);
  expect_accounts_for(stats, 3);
  EXPECT_EQ(stats.merge_s, 0.0);
}

TEST(Sharding, ReplicasGetTheirOwnPreparedState) {
  Testbed tb{bare_config()};
  const auto outputs = run_sharded(
      tb, 3, Part{0, 1, 2}, ReplicaScope::Full, nullptr, one_item_each,
      [](Testbed&, const Part& part) { return part.front() * 10; },
      [&](Testbed& world, const Part& part, std::size_t* state) {
        if (state == nullptr) {
          EXPECT_EQ(&world, &tb);
          return part.front();
        }
        EXPECT_NE(&world, &tb);
        return *state;
      });
  EXPECT_EQ(outputs, (std::vector<std::size_t>{0, 10, 20}));
}

TEST(Sharding, ZeroShardsNeverExceedsTheItemCount) {
  Testbed tb{bare_config()};
  std::size_t asked = 0;
  RunStats stats;
  (void)run_sharded(
      tb, 0, Part{0, 1}, ReplicaScope::Full, &stats,
      [&](std::size_t shards) {
        asked = shards;
        return one_item_each(shards);
      },
      no_replica_state, [](Testbed&, const Part&, auto*) { return 0; });
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(stats.shards.size(), std::min<std::size_t>(hw, 2));
  EXPECT_EQ(asked, hw > 1 ? 2u : 0u);
  expect_accounts_for(stats, 2);
}

/// The source packer production used before it shared pack_groups: LPT
/// over single items, ties broken by index.
ShardParts reference_pack_singletons(const std::vector<double>& rates,
                                     std::size_t shards) {
  std::vector<std::size_t> order(rates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rates[a] != rates[b]) return rates[a] > rates[b];
    return a < b;
  });
  ShardParts bins(shards);
  std::vector<double> load(shards, 0.0);
  for (const std::size_t i : order) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[lightest] += rates[i];
    bins[lightest].push_back(i);
  }
  std::erase_if(bins, [](const auto& b) { return b.empty(); });
  for (auto& bin : bins) std::sort(bin.begin(), bin.end());
  return bins;
}

std::vector<std::vector<std::size_t>> singletons(std::size_t n) {
  std::vector<std::vector<std::size_t>> groups(n);
  for (std::size_t i = 0; i < n; ++i) groups[i] = {i};
  return groups;
}

TEST(Sharding, PackGroupsBreaksSingletonTiesByIndex) {
  // Equal weights: pure tie-breaking deals the items out round-robin.
  EXPECT_EQ(pack_groups(singletons(6), std::vector<double>(6, 1.0), 3),
            (ShardParts{{0, 3}, {1, 4}, {2, 5}}));
  // Equal loads after the heavy items: the lower index goes first.
  EXPECT_EQ(pack_groups(singletons(4), {2.0, 1.0, 2.0, 1.0}, 2),
            (ShardParts{{0, 1}, {2, 3}}));

  // Random rates drawn from few values, so ties are common.
  stats::Rng rng{2026};
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + rng.index(40);
    std::vector<double> rates(n);
    for (double& r : rates) r = static_cast<double>(1 + rng.index(4));
    const std::size_t shards = 1 + rng.index(6);
    EXPECT_EQ(pack_groups(singletons(n), rates, shards),
              reference_pack_singletons(rates, shards))
        << "round " << round;
  }
}

TEST(Sharding, ScanRunStatsAccountForEveryVp) {
  TestbedConfig cfg;
  cfg.seed = 2026;
  cfg.population.probes = 60;
  cfg.test_sites = {"DUB", "FRA"};
  Testbed tb{cfg};
  ScanConfig sc;
  sc.names = 300;
  sc.shards = 3;
  RunStats stats;
  sc.run_stats = &stats;
  const auto result = run_scan(tb, sc);
  EXPECT_EQ(result.completed, 300u);
  EXPECT_GT(stats.shards.size(), 1u);
  expect_accounts_for(stats, tb.population().vps().size());
  EXPECT_EQ(result.wall_s, stats.run_s);
}

TEST(Sharding, ProductionRunStatsAccountForEverySource) {
  Testbed tb{bare_config()};
  ProductionConfig pc;
  pc.recursives = 30;
  pc.duration_hours = 0.05;
  pc.min_queries = 1;
  pc.shards = 3;
  RunStats stats;
  const auto result = run_production(tb, pc, &stats);
  EXPECT_EQ(stats.shards.size(), 3u);
  expect_accounts_for(stats, result.sources_total);
}

}  // namespace
}  // namespace recwild::experiment
