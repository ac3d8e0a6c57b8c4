// Measurement campaign: the simulated equivalent of the paper's RIPE Atlas
// runs (§3.1). Every vantage point queries a unique cache-busting TXT label
// under the test domain at a fixed interval; the TXT payload identifies
// which authoritative answered. Client-side observations are collected per
// VP, exactly as the paper collects per-probe results from Atlas.
//
// The campaign can run sharded (run_sharded, sharding.hpp): groups of VPs
// that share no recursive resolver (WorldSnapshot::vp_groups) are packed
// onto worker threads. Every random stream is keyed by identity (per VP,
// per resolver, per network flow), never by draw order, so the merged
// result is byte-identical for every shard count.
#pragma once

#include <string>
#include <vector>

#include "experiment/sharding.hpp"
#include "experiment/testbed.hpp"

namespace recwild::experiment {

struct CampaignConfig {
  /// Probing interval (paper: 2 minutes; §4.4 sweeps 5..30).
  net::Duration interval = net::Duration::minutes(2);
  /// Queries per VP including the first (paper: 1 hour at 2 min = 31).
  std::size_t queries_per_vp = 31;
  /// Random start phase within the first interval, to de-synchronize VPs.
  bool phase_jitter = true;
  /// Worker threads to run the campaign on. 1 = serial on the caller's
  /// testbed; 0 = one per hardware thread. Any value yields byte-identical
  /// results when the testbed is freshly built (shards > 1 materializes
  /// partition-scoped replicas of Testbed::world(), so a testbed that
  /// already ran traffic can only be reproduced by shards = 1).
  std::size_t shards = 1;
  /// When non-null, filled with the run's timing/memory breakdown.
  RunStats* run_stats = nullptr;
};

/// Per-VP campaign observations.
struct VpObservation {
  std::size_t probe_id = 0;
  net::Continent continent = net::Continent::Europe;
  /// The recursive that served most of this VP's queries (ties broken by
  /// lowest address so the choice is stable across platforms).
  net::IpAddress recursive_addr;
  /// Per query: index into Testbed::test_services(), or -1 on timeout.
  std::vector<int> sequence;
  /// Stable RTT from the VP's primary recursive to each test authoritative
  /// (ms) — the latency the recursive's selection policy experiences.
  std::vector<double> rtt_ms;
};

struct CampaignResult {
  std::vector<std::string> service_codes;
  std::vector<VpObservation> vps;
  /// Snapshot of the caller testbed's registry after the run, replica-shard
  /// contributions merged in. Its MergeSafe JSON export is byte-identical
  /// for every shard count (the obs_campaign tests pin this).
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::size_t service_count() const noexcept {
    return service_codes.size();
  }
};

/// Runs the campaign to completion on the testbed's simulation (and, for
/// config.shards > 1, on replica simulations in worker threads).
CampaignResult run_campaign(Testbed& testbed, const CampaignConfig& config);

}  // namespace recwild::experiment
