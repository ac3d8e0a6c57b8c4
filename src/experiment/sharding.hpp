// run_sharded, the one shard runner of the parallel experiment engines
// (campaign, scan, production), and the packer that splits their work.
// run_sharded() owns threads, replicas and the metric/trace fold-back; an
// engine supplies how to split, its replica build work and its shard body.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <type_traits>
#include <vector>

#include "experiment/testbed.hpp"
#include "obs/process.hpp"

namespace recwild::experiment {

/// Wall-clock and memory accounting of one sharded run, for benchmarks and
/// capacity planning. Times are host wall seconds, never sim time.
struct RunStats {
  struct Shard {
    std::size_t items = 0;  ///< Work items (VPs or sources) of this shard.
    /// Replica build, run and delta fold-in; on the caller, the run only.
    double wall_s = 0.0;
  };
  double partition_s = 0.0;  ///< Packing the items onto shards.
  double run_s = 0.0;        ///< Parallel section (spawn to last join).
  double merge_s = 0.0;      ///< Replica metric and trace fold-back.
  /// Process VmHWM in KiB when the run's last shard joined (0 where
  /// unavailable). It is the whole process's peak so far, so it bounds the
  /// run's footprint together with whatever ran before it in the process.
  std::size_t peak_rss_kb = 0;
  std::vector<Shard> shards;  ///< Per shard; shard 0 ran on the caller.
};

/// Per-shard ascending item index lists.
using ShardParts = std::vector<std::vector<std::size_t>>;

/// Deterministic LPT (longest-processing-time) bin-packing of item groups
/// onto `shards` bins, weighted by estimated work per group. Ties break on
/// the group's first item index, so the packing is a pure function of its
/// inputs. Returns per-shard ascending item index lists; empty shards are
/// dropped.
inline ShardParts pack_groups(
    const std::vector<std::vector<std::size_t>>& groups,
    const std::vector<double>& weights, std::size_t shards) {
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (weights[a] != weights[b]) return weights[a] > weights[b];
              return groups[a].front() < groups[b].front();
            });

  ShardParts bins(shards);
  std::vector<double> load(shards, 0.0);
  for (const std::size_t g : order) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[lightest] += weights[g];
    auto& bin = bins[lightest];
    bin.insert(bin.end(), groups[g].begin(), groups[g].end());
  }
  std::erase_if(bins, [](const auto& b) { return b.empty(); });
  for (auto& bin : bins) std::sort(bin.begin(), bin.end());
  return bins;
}

/// The caller's vantage points by probe id, in population order: the item
/// list of a VP-sharded engine. By id, not position: the caller may itself
/// be a partition-scoped replica, whose vps() are then a sparse subset.
inline std::vector<std::size_t> vp_items(Testbed& testbed) {
  std::vector<std::size_t> ids;
  ids.reserve(testbed.population().vps().size());
  for (const auto& vp : testbed.population().vps()) {
    ids.push_back(vp.probe_id);
  }
  return ids;
}

/// What a replica world materializes.
enum class ReplicaScope : unsigned char {
  Partition,  ///< Only its part's vantage points (parts hold VP indices).
  Full,       ///< The whole population (parts index something else).
};

/// The per-replica state of an engine whose replicas need no build work.
struct NoReplicaState {};
inline NoReplicaState no_replica_state(Testbed&,
                                       const std::vector<std::size_t>&) {
  return {};
}

/// Runs an engine's items on up to `shards` threads (0 = one per hardware
/// thread, never more than there are items); returns one output per part.
///
/// With one shard the only part is `items`: run_shard(testbed, items,
/// nullptr) runs inline, with no thread, replica or metric snapshot.
/// Otherwise `pack(n)` splits the items; part 0 runs on `testbed` and each
/// other part in a worker thread on a replica of testbed.world(), scoped
/// by `scope`, whose query logs keep totals only (nothing reads them).
/// `prepare_replica(replica, part)` builds the replica's own state, which
/// run_shard gets as a pointer (nullptr on `testbed`). What the replica's
/// metrics gain past that post-build baseline is summed into one
/// accumulator, merged into testbed's registry once every worker joined;
/// each replica's new trace events are appended in shard order. The first
/// exception a shard throws is rethrown after the joins, before any merge.
///
/// The result is byte-identical for every shard count when each item's
/// outcome depends only on the seed and the items of its own part, and
/// `testbed` is freshly built.
template <class Pack, class Prepare, class RunShard>
auto run_sharded(Testbed& testbed, std::size_t shards,
                 const std::vector<std::size_t>& items, ReplicaScope scope,
                 RunStats* run_stats, Pack&& pack, Prepare&& prepare_replica,
                 RunShard&& run_shard) {
  using Clock = std::chrono::steady_clock;
  using Part = std::vector<std::size_t>;
  using State = std::invoke_result_t<Prepare&, Testbed&, const Part&>;
  using Out = std::invoke_result_t<RunShard&, Testbed&, const Part&, State*>;
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  RunStats local_stats;
  RunStats& stats = run_stats != nullptr ? *run_stats : local_stats;
  stats = RunStats{};
  if (shards == 0) {
    shards = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shards = std::min(shards, std::max<std::size_t>(1, items.size()));

  const auto t_partition = Clock::now();
  const ShardParts parts = shards > 1 ? pack(shards) : ShardParts{items};
  stats.partition_s = since(t_partition);
  stats.shards.resize(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    stats.shards[i].items = parts[i].size();
  }

  std::vector<Out> outputs(parts.size());
  std::vector<std::vector<obs::TraceEvent>> tails(parts.size());
  obs::MetricRegistry accumulator;
  std::exception_ptr error;
  std::mutex mu;  // guards accumulator and error
  const auto capture = [&error, &mu] {
    const std::scoped_lock lock{mu};
    if (!error) error = std::current_exception();
  };

  const auto t_run = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(parts.size() - 1);
  // One try covers spawning too: a failed spawn still joins the workers
  // already running.
  try {
    for (std::size_t i = 1; i < parts.size(); ++i) {
      workers.emplace_back([&, i] {
        try {
          const auto t0 = Clock::now();
          const Part* partition =
              scope == ReplicaScope::Partition ? &parts[i] : nullptr;
          Testbed replica{testbed.world(), partition};
          replica.retain_query_log_entries(false);
          // Declared after the replica, so destroyed before it.
          State state = prepare_replica(replica, parts[i]);
          replica.sim().sync_obs();  // fold build-time event tallies in
          const obs::MetricsSnapshot baseline =
              replica.metrics().snapshot();
          const std::size_t trace_base = replica.trace().size();
          outputs[i] = run_shard(replica, parts[i], &state);
          obs::MetricsSnapshot delta =
              replica.metrics().snapshot().delta_since(baseline);
          delta.compact();
          {
            const std::scoped_lock lock{mu};
            accumulator.merge_sum(delta);
          }
          const auto& events = replica.trace().events();
          tails[i].assign(events.begin() + trace_base, events.end());
          stats.shards[i].wall_s = since(t0);
        } catch (...) {
          capture();
        }
      });
    }
    outputs[0] = run_shard(testbed, parts[0], static_cast<State*>(nullptr));
    stats.shards[0].wall_s = since(t_run);
  } catch (...) {
    capture();
  }
  for (auto& w : workers) w.join();
  stats.run_s = since(t_run);
  stats.peak_rss_kb = obs::peak_rss_kb();
  if (error) std::rethrow_exception(error);

  if (parts.size() > 1) {
    const auto t_merge = Clock::now();
    testbed.metrics().merge_sum(accumulator.snapshot());
    for (auto& tail : tails) {
      for (auto& event : tail) testbed.trace().record(std::move(event));
    }
    stats.merge_s = since(t_merge);
  }
  return outputs;
}

}  // namespace recwild::experiment
