// Atlas campaign: the paper's full measurement pipeline on one Table-1
// combination — deploy authoritatives, probe from an Atlas-like VP fleet
// every 2 minutes for an hour, then analyze coverage, shares, and
// per-recursive preference exactly as §4 does.
//
//   ./build/examples/atlas_campaign [combo] [probes] [shards]
//       [--obs metrics.json] [--trace decisions.tsv]
//       [--dump-auth-queries queries.txt]
//   e.g. ./build/examples/atlas_campaign 2C 3000 4 --obs run.json
//
// `--dump-auth-queries` writes every query the authoritative sites logged
// as "qname qtype" lines — the input format tools/loadgen replays against
// a live authnsd, so the real-socket bench serves the exact query mix a
// simulated campaign produced. It needs shards=1 and is refused otherwise:
// sharded runs log most queries in replica worlds, which keep no entries.
//
// `shards` spreads the campaign over worker threads (0 = one per hardware
// thread); the result is byte-identical for every value. `--obs` exports
// the run's metric registry as merge-safe JSON, `--trace` enables decision
// tracing and writes the canonical tab-separated trace (see docs/METRICS.md);
// both files are byte-identical for every shard count too.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "experiment/analysis.hpp"
#include "experiment/campaign.hpp"
#include "experiment/report.hpp"
#include "experiment/testbed.hpp"
#include "obs/decision_trace.hpp"
#include "obs/metrics.hpp"

using namespace recwild;
using namespace recwild::experiment;

int main(int argc, char** argv) {
  const char* positional[3] = {nullptr, nullptr, nullptr};
  std::size_t n_positional = 0;
  std::string obs_path;
  std::string trace_path;
  std::string dump_queries_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0 && i + 1 < argc) {
      obs_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dump-auth-queries") == 0 &&
               i + 1 < argc) {
      dump_queries_path = argv[++i];
    } else if (n_positional < 3) {
      positional[n_positional++] = argv[i];
    }
  }
  const std::string combo_id = positional[0] != nullptr ? positional[0] : "2C";
  const std::size_t probes =
      positional[1] != nullptr ? std::strtoull(positional[1], nullptr, 10)
                               : 1'000;
  const std::size_t shards =
      positional[2] != nullptr ? std::strtoull(positional[2], nullptr, 10)
                               : 1;
  if (!dump_queries_path.empty() && shards != 1) {
    std::fprintf(stderr,
                 "atlas_campaign: --dump-auth-queries needs shards=1 "
                 "(got %zu): sharded runs log queries in replica worlds\n",
                 shards);
    return 2;
  }

  TestbedConfig cfg;
  cfg.seed = 1;
  cfg.population.probes = probes;
  cfg.test_sites = combination(combo_id).sites;
  cfg.trace_decisions = !trace_path.empty();
  Testbed testbed{cfg};

  std::printf("combination %s:", combo_id.c_str());
  for (const auto& svc : testbed.test_services()) {
    std::printf(" %s", svc.name().c_str());
  }
  std::printf(" | %zu probes, %zu recursives, %zu shard(s)\n", probes,
              testbed.population().recursives().size(), shards);

  CampaignConfig cc;
  cc.interval = net::Duration::minutes(2);
  cc.queries_per_vp = 31;
  cc.shards = shards;
  const auto result = run_campaign(testbed, cc);

  const auto cov = analyze_coverage(result);
  report::header("Coverage (paper §4.1)");
  std::printf("VPs answering: %zu; probed all authoritatives: %s\n",
              cov.vps_considered, report::pct(cov.covering_fraction).c_str());
  if (cov.queries_to_cover) {
    std::printf("queries after the first to see all: %s\n",
                report::box(*cov.queries_to_cover, 0).c_str());
  }

  const auto shares = analyze_shares(result);
  report::header("Aggregate shares (paper §4.2)");
  for (std::size_t s = 0; s < shares.codes.size(); ++s) {
    std::printf("%-4s %6.1f%%  median RTT %7.1f ms  %s\n",
                shares.codes[s].c_str(), shares.query_share[s] * 100,
                shares.median_rtt_ms[s],
                report::bar(shares.query_share[s], 40).c_str());
  }

  const auto prefs = analyze_preferences(result);
  report::header("Per-recursive preference (paper §4.3)");
  std::printf("weak (>=60%%): %s   strong (>=90%%): %s\n",
              report::pct(prefs.weak_fraction).c_str(),
              report::pct(prefs.strong_fraction).c_str());
  std::printf("RTT-following among VPs with a >=50 ms gap: %s (n=%zu)\n",
              report::pct(prefs.rtt_following_fraction).c_str(),
              prefs.rtt_eligible_vps);
  std::printf("\n%-4s %6s  shares per authoritative\n", "cont", "VPs");
  for (const auto& cp : prefs.continents) {
    if (cp.vp_count == 0) continue;
    std::printf("%-4s %6zu ",
                std::string{net::continent_code(cp.continent)}.c_str(),
                cp.vp_count);
    for (std::size_t s = 0; s < result.service_codes.size(); ++s) {
      std::printf(" %s=%4.0f%%(%3.0fms)", result.service_codes[s].c_str(),
                  cp.query_share[s] * 100, cp.median_rtt_ms[s]);
    }
    std::printf("\n");
  }

  if (!obs_path.empty()) {
    std::ofstream out{obs_path};
    result.metrics.write_json(out, obs::SnapshotStyle::MergeSafe);
    out << "\n";
    std::printf("\nmetrics -> %s\n", obs_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out{trace_path};
    obs::write_trace(out, testbed.trace().canonical());
    std::printf("decision trace (%zu events) -> %s\n",
                testbed.trace().size(), trace_path.c_str());
  }
  if (!dump_queries_path.empty()) {
    std::ofstream out{dump_queries_path};
    std::size_t dumped = 0;
    for (const auto& svc : testbed.test_services()) {
      for (const auto& site : svc.sites()) {
        for (const auto& e : site.server->log().entries()) {
          out << e.qname.to_string() << ' ' << dns::to_string(e.qtype)
              << '\n';
          ++dumped;
        }
      }
    }
    std::printf("auth query log (%zu queries) -> %s\n", dumped,
                dump_queries_path.c_str());
  }
  return 0;
}
