// Bulk resolution scan — the ZDNS-style measurement engine (ROADMAP item
// 4). Streams a name list through the vantage-point population's recursive
// resolvers at a target per-VP concurrency and emits one structured JSONL
// row per query (obs/scan_log.hpp), with queries/sec as a first-class
// result next to latency.
//
// Unlike a campaign (which models probe schedules at Atlas cadence), a
// scan is completion-driven: each vantage point keeps `per_vp_window`
// resolutions in flight against its primary recursive and issues the next
// name the moment one completes — the same pipelining discipline ZDNS uses
// per resolver process. Combine with the resolver's own pipelined front
// door (ResolverConfig::max_inflight_resolutions, reachable through
// TestbedConfig::population.resolver_template) to bound recursive-side
// concurrency independently of client-side issue rate.
//
// Sharding: name i belongs to vantage point (i mod vp_count) — a pure
// identity assignment, independent of how VP groups are packed onto
// shards. Each shard resolves only the names its VPs own and writes every
// row once, in place, at its global name index in ScanResult::rows (sized
// before the run), so the index-ordered row list (and its serialized
// JSONL) is byte-identical for every shard count, exactly like campaign
// metrics, with no merge step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/sharding.hpp"
#include "experiment/testbed.hpp"
#include "obs/scan_log.hpp"

namespace recwild::experiment {

struct ScanConfig {
  /// Names to scan in generated mode: s0..s<names-1> under the testbed's
  /// test domain (answered by the test zone's wildcard TXT, so every name
  /// is a cache-busting unique label, like the campaign's).
  std::size_t names = 1'000;
  /// Explicit name list (presentation form); overrides the generator when
  /// non-empty. The scan CLI fills this from --name-file.
  std::vector<std::string> name_list;
  dns::RRType qtype = dns::RRType::TXT;
  /// Resolutions each vantage point keeps in flight at once. 1 reproduces
  /// the serial chain-at-a-time behavior (the bench baseline).
  std::size_t per_vp_window = 32;
  /// Identity-keyed random start phase within [0, 1s) per VP, so a scan
  /// does not fire every VP's first window on the same microsecond.
  bool phase_jitter = true;
  /// Worker threads, campaign semantics: 1 = serial on the caller's
  /// testbed; 0 = one per hardware thread; any value is byte-identical on
  /// a freshly built testbed.
  std::size_t shards = 1;
  /// Collect per-query rows (ScanResult::rows). Off for throughput
  /// benches: the row vector is sized to the whole name list before the
  /// run, 80 B a row with its qname and answers inline (a heap block
  /// more only when their text passes 36 bytes), so 10M rows take
  /// ~0.8 GB; counters and timing are enough there.
  bool collect_rows = true;
  /// When non-null, filled with the run's timing/memory breakdown.
  RunStats* run_stats = nullptr;
};

struct ScanResult {
  /// One row per name, ordered by global name index (empty when
  /// collect_rows is false). write_scan_rows(out, rows) serialises this
  /// byte-identically at every shard count.
  std::vector<obs::ScanRow> rows;
  /// Caller-registry snapshot after the run, shard deltas merged in.
  obs::MetricsSnapshot metrics;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  /// Host wall seconds of the run section and the headline throughput.
  double wall_s = 0.0;
  double queries_per_s = 0.0;
  /// Simulated time at which the last resolution completed (max across
  /// shards — partition-independent) and the sim-time throughput,
  /// completed / sim seconds. This is the determinism-friendly speedup
  /// basis: pipelined vs serial sim throughput compares how much
  /// resolution work overlaps, independent of host load.
  double sim_end_s = 0.0;
  double sim_queries_per_s = 0.0;
};

/// Runs the scan to completion on the testbed's simulation (and, for
/// config.shards > 1, on partition-scoped replicas in worker threads).
/// Requires a testbed with a population; generated mode also requires a
/// test domain with wildcard TXT (any Table-1 combination testbed).
ScanResult run_scan(Testbed& testbed, const ScanConfig& config);

}  // namespace recwild::experiment
