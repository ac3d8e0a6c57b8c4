// Bulk scan CLI: stream a name list through the simulated vantage-point
// population at a target per-VP concurrency and write one JSONL row per
// query — the ZDNS-style measurement front-end over the testbed.
//
//   ./build/examples/bulk_scan [--names N | --name-file FILE]
//       [--probes P] [--seed S] [--concurrency W] [--shards K]
//       [--qtype TYPE] [--out rows.jsonl] [--obs metrics.json]
//
// Generated mode scans s0..s<N-1> under the testbed's wildcard test
// domain (cache-busting unique labels); `--name-file` reads one
// presentation-form name per line instead. `--shards` spreads the scan
// over worker threads (0 = one per hardware thread) — the JSONL output is
// byte-identical for every value. Rows go to stdout unless `--out` is
// given; a summary (names, wall seconds, queries/sec) goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "experiment/scan.hpp"
#include "obs/metrics.hpp"

using namespace recwild;
using namespace recwild::experiment;

int main(int argc, char** argv) {
  std::size_t names = 10'000;
  std::size_t probes = 2'000;
  std::uint64_t seed = 42;
  std::size_t concurrency = 32;
  std::size_t shards = 1;
  std::string qtype = "TXT";
  std::string name_file;
  std::string out_path;
  std::string obs_path;
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        return argv[++i];
      }
      return nullptr;
    };
    if (const char* v = arg("--names")) {
      names = std::strtoull(v, nullptr, 10);
    } else if (const char* v2 = arg("--name-file")) {
      name_file = v2;
    } else if (const char* v3 = arg("--probes")) {
      probes = std::strtoull(v3, nullptr, 10);
    } else if (const char* v4 = arg("--seed")) {
      seed = std::strtoull(v4, nullptr, 10);
    } else if (const char* v5 = arg("--concurrency")) {
      concurrency = std::strtoull(v5, nullptr, 10);
    } else if (const char* v6 = arg("--shards")) {
      shards = std::strtoull(v6, nullptr, 10);
    } else if (const char* v7 = arg("--qtype")) {
      qtype = v7;
    } else if (const char* v8 = arg("--out")) {
      out_path = v8;
    } else if (const char* v9 = arg("--obs")) {
      obs_path = v9;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  ScanConfig sc;
  sc.names = names;
  sc.per_vp_window = concurrency;
  sc.shards = shards;
  if (!name_file.empty()) {
    std::ifstream in{name_file};
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", name_file.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) sc.name_list.push_back(line);
    }
    if (sc.name_list.empty()) {
      std::fprintf(stderr, "%s holds no names\n", name_file.c_str());
      return 1;
    }
  }
  if (const auto t = dns::rrtype_from_string(qtype)) {
    sc.qtype = *t;
  } else {
    std::fprintf(stderr, "unknown --qtype %s\n", qtype.c_str());
    return 2;
  }

  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.population.probes = probes;
  cfg.test_sites = {"DUB", "FRA", "GRU"};
  cfg.population.resolver_template.max_inflight_resolutions = 1024;
  Testbed tb{cfg};
  // Rows come from the resolvers; the servers' query logs are never read.
  tb.retain_query_log_entries(false);
  const auto result = run_scan(tb, sc);

  if (out_path.empty()) {
    obs::write_scan_rows(std::cout, result.rows);
  } else {
    std::ofstream out{out_path, std::ios::binary};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    obs::write_scan_rows(out, result.rows);
  }
  if (!obs_path.empty()) {
    std::ofstream out{obs_path, std::ios::binary};
    result.metrics.write_json(out, obs::SnapshotStyle::MergeSafe);
  }
  std::fprintf(stderr,
               "%llu names issued, %llu completed, %.2fs wall, %.0f q/s "
               "(sim: %.1fs, %.0f q/s)\n",
               static_cast<unsigned long long>(result.issued),
               static_cast<unsigned long long>(result.completed),
               result.wall_s, result.queries_per_s, result.sim_end_s,
               result.sim_queries_per_s);
  return result.completed == result.issued ? 0 : 1;
}
