#include "experiment/scan.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "obs/names.hpp"

namespace recwild::experiment {

namespace {

/// The name scanned at global index `i`: generated cache-busting label
/// under the test domain, or the explicit list entry.
dns::Name name_of(const ScanConfig& config, const dns::Name& test_domain,
                  std::uint64_t i) {
  if (!config.name_list.empty()) {
    return dns::Name::parse(config.name_list[static_cast<std::size_t>(i)]);
  }
  return test_domain.prefixed("s" + std::to_string(i));
}

std::uint64_t total_names(const ScanConfig& config) {
  return config.name_list.empty()
             ? static_cast<std::uint64_t>(config.names)
             : static_cast<std::uint64_t>(config.name_list.size());
}

/// Names owned by vantage point `v` under the identity assignment
/// i -> VP (i mod vp_count): count without enumerating.
std::uint64_t names_owned(std::uint64_t total, std::size_t vp_count,
                          std::size_t v) {
  const std::uint64_t base = total / vp_count;
  return base + (static_cast<std::uint64_t>(v) < total % vp_count ? 1 : 0);
}

/// What one shard counts; folded into ScanResult by the caller.
struct ShardOutput {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  net::SimTime last_completion = net::SimTime::origin();
};

struct ShardScan;

/// Per-VP pipeline state. Raw pointers into the world are stable for the
/// run; the struct itself lives in a vector sized before scheduling.
struct VpScan {
  ShardScan* scan = nullptr;
  resolver::RecursiveResolver* resolver = nullptr;
  std::size_t vp_index = 0;   ///< probe id (identity, not rank)
  std::uint64_t next = 0;     ///< next owned-name ordinal to issue
  std::uint64_t owned = 0;    ///< total names this VP owns
};

/// One shard's scan: what every issue and completion needs, held once
/// so that a completion callback captures only its VP and name ordinal
/// (16 trivially copyable bytes, which std::function stores without a
/// heap block). It lives in run_scan_shard's frame: sim.run() returns
/// only after every callback has run, as with campaign's shard state.
struct ShardScan {
  ShardScan(Testbed& w, const ScanConfig& c, std::span<obs::ScanRow> r)
      : world(w),
        config(c),
        domain(w.test_domain()),
        vp_count(w.world()->population.vp_count()),
        issued_ctr(&w.sim().metrics().counter(obs::names::kScanNamesIssued)),
        completed_ctr(
            &w.sim().metrics().counter(obs::names::kScanNamesCompleted)),
        rows(r) {}

  Testbed& world;
  const ScanConfig& config;
  dns::Name domain;
  std::uint64_t vp_count;
  obs::Counter* issued_ctr;
  obs::Counter* completed_ctr;
  /// Empty when rows are not collected.
  std::span<obs::ScanRow> rows;
  ShardOutput out;
  std::vector<VpScan> vps;
  // Reused per row, so filling a row allocates nothing once warm.
  std::string qname_text;
  std::vector<std::string> rdata_text;
  std::vector<std::string_view> answer_text;

  /// Owned-name ordinal k of `st` -> global index: k * vp_count + vp.
  [[nodiscard]] std::uint64_t index_of(const VpScan& st,
                                       std::uint64_t k) const noexcept {
    return k * vp_count + static_cast<std::uint64_t>(st.vp_index);
  }

  void issue_next(VpScan& st) {
    if (st.next >= st.owned) return;
    const std::uint64_t k = st.next++;
    const std::uint64_t index = index_of(st, k);
    const dns::Name qname = name_of(config, domain, index);
    issued_ctr->add(1, world.sim().now());
    ++out.issued;
    if (!rows.empty()) {
      qname_text.clear();
      qname.append_to(qname_text);
      rows[static_cast<std::size_t>(index)].set_qname(qname_text);
    }
    st.resolver->resolve(
        dns::Question{qname, config.qtype, dns::RRClass::IN},
        [stp = &st, k](const resolver::ResolveOutcome& outcome) {
          stp->scan->complete(*stp, k, outcome);
        });
  }

  void complete(VpScan& st, std::uint64_t k,
                const resolver::ResolveOutcome& outcome) {
    const net::SimTime now = world.sim().now();
    completed_ctr->add(1, now);
    ++out.completed;
    if (out.last_completion < now) out.last_completion = now;
    if (!rows.empty()) {
      const std::uint64_t index = index_of(st, k);
      fill_row(rows[static_cast<std::size_t>(index)], index, outcome);
    }
    issue_next(st);
  }

  void fill_row(obs::ScanRow& row, std::uint64_t index,
                const resolver::ResolveOutcome& outcome) {
    row.index = index;
    row.rcode = dns::to_string(outcome.rcode);
    // Non-TXT answers in presentation form first, so the views below do
    // not move while rdata_text grows.
    rdata_text.clear();
    for (const auto& rr : outcome.answers) {
      if (rr.type() != dns::RRType::TXT) {
        rdata_text.push_back(dns::rdata_to_string(rr.rdata));
      }
    }
    answer_text.clear();
    std::size_t next_rdata = 0;
    for (const auto& rr : outcome.answers) {
      if (rr.type() == dns::RRType::TXT) {
        const auto& txt = std::get<dns::TxtRdata>(rr.rdata);
        answer_text.insert(answer_text.end(), txt.begin(), txt.end());
      } else {
        answer_text.emplace_back(rdata_text[next_rdata++]);
      }
    }
    row.set_answers(answer_text);
    row.chain = static_cast<std::uint32_t>(outcome.answers.size());
    row.sim_ms = outcome.elapsed.ms();
    row.upstream = static_cast<std::uint32_t>(outcome.upstream_queries);
    row.cache_hit = outcome.upstream_queries == 0;
  }
};

/// Schedules and runs the scan for the VPs in `vp_indices` (ascending) on
/// `world`. Every name is assigned by identity (global index mod total VP
/// count), every start phase is keyed by probe id, and each VP's pipeline
/// advances only on its own completions — so the rows a VP produces depend
/// only on the seed and the VPs sharing its recursive, never on the
/// partition.
///
/// Each name's row is written straight into `rows[index]` (`rows` is
/// empty when rows are not collected): its qname when the name is
/// issued, the rest when it completes. Every index belongs to exactly one
/// VP, so concurrent shards write disjoint elements of the caller's
/// vector and no merge is needed. A streaming sink would take the place
/// of `rows` here.
ShardOutput run_scan_shard(Testbed& world, const ScanConfig& config,
                           const std::vector<std::size_t>& vp_indices,
                           std::span<obs::ScanRow> rows) {
  auto& sim = world.sim();
  auto& pop = world.population();
  const std::uint64_t total = total_names(config);
  ShardScan scan{world, config, rows};

  scan.vps.reserve(vp_indices.size());
  for (const std::size_t v : vp_indices) {
    client::VantagePoint* vp = pop.by_probe(v);
    if (vp == nullptr) {
      throw std::logic_error{
          "run_scan_shard: VP not materialized on this world"};
    }
    if (vp->stub->recursives().empty()) continue;
    const client::RecursiveInfo* info =
        pop.recursive_by_address(vp->stub->recursives().front());
    if (info == nullptr || info->resolver == nullptr) continue;
    VpScan st;
    st.scan = &scan;
    st.resolver = info->resolver;
    st.vp_index = v;
    st.owned = names_owned(total, static_cast<std::size_t>(scan.vp_count), v);
    if (st.owned > 0) scan.vps.push_back(st);
  }

  // Prime each VP's window at an identity-keyed start phase. The initial
  // issues happen inside one scheduled event per VP; afterwards the
  // pipeline is completion-driven.
  const std::size_t window = std::max<std::size_t>(1, config.per_vp_window);
  const stats::Rng scan_rng = sim.rng().fork("scan");
  for (VpScan& st : scan.vps) {
    const net::Duration phase =
        config.phase_jitter
            ? net::Duration::millis(
                  scan_rng.fork(st.vp_index).uniform(0.0, 1000.0))
            : net::Duration::zero();
    VpScan* stp = &st;
    sim.at(net::SimTime::origin() + phase, [stp, window] {
      for (std::size_t k = 0; k < window && stp->next < stp->owned; ++k) {
        stp->scan->issue_next(*stp);
      }
    });
  }

  sim.run();
  return scan.out;
}

}  // namespace

ScanResult run_scan(Testbed& testbed, const ScanConfig& config) {
  const std::size_t vp_count = testbed.world()->population.vp_count();
  if (vp_count == 0) {
    throw std::invalid_argument{"run_scan: testbed has no population"};
  }
  if (config.name_list.empty() && testbed.test_domain().label_count() == 0) {
    throw std::invalid_argument{
        "run_scan: generated mode needs a test domain (test_sites)"};
  }
  const std::uint64_t total = total_names(config);

  ScanResult result;
  // Sized once, before any shard runs; shards fill it in place.
  if (config.collect_rows) result.rows.resize(static_cast<std::size_t>(total));

  // The scan's throughput needs the run's wall time even when the caller
  // asked for no stats.
  RunStats local_stats;
  RunStats& stats =
      config.run_stats != nullptr ? *config.run_stats : local_stats;
  const auto outputs = run_sharded(
      testbed, config.shards, vp_items(testbed), ReplicaScope::Partition,
      &stats,
      [&](std::size_t shards) {
        const auto& groups = testbed.world()->vp_groups;
        std::vector<double> weights(groups.size(), 0.0);
        for (std::size_t g = 0; g < groups.size(); ++g) {
          for (const std::size_t v : groups[g]) {
            weights[g] += static_cast<double>(names_owned(total, vp_count, v));
          }
        }
        return pack_groups(groups, weights, shards);
      },
      no_replica_state,
      [&](Testbed& world, const std::vector<std::size_t>& part, auto*) {
        return run_scan_shard(world, config, part, result.rows);
      });

  net::SimTime last = net::SimTime::origin();
  for (const ShardOutput& o : outputs) {
    result.issued += o.issued;
    result.completed += o.completed;
    if (last < o.last_completion) last = o.last_completion;
  }
  result.wall_s = stats.run_s;
  result.queries_per_s =
      stats.run_s > 0.0
          ? static_cast<double>(result.completed) / stats.run_s
          : 0.0;
  const double sim_s = (last - net::SimTime::origin()).ms() / 1000.0;
  result.sim_end_s = sim_s;
  result.sim_queries_per_s =
      sim_s > 0.0 ? static_cast<double>(result.completed) / sim_s : 0.0;
  // Host-wall throughput as a gauge on the caller's world: point-in-time
  // level of ONE run, excluded from merge-safe exports by construction.
  testbed.metrics()
      .gauge(obs::names::kScanQps)
      .set(result.queries_per_s, testbed.sim().now());
  result.metrics = testbed.sim().metrics().snapshot();
  return result;
}

}  // namespace recwild::experiment
