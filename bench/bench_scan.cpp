// Bulk-resolution scan throughput (the ZDNS-style engine).
//
// Three measurements over one shared immutable world:
//   1. serial baseline — per-VP window of 1, the chain-at-a-time issue
//      discipline every pre-scan engine used (measured on a proportional
//      subset; simulated-time throughput is what the speedup compares, and
//      it is independent of how many names the subset holds);
//   2. pipelined scan — the full name count with `--window` resolutions in
//      flight per vantage point and the resolvers' admission-bounded
//      pipelined front door, reporting host-wall queries/sec and the
//      sim-time speedup over the serial baseline;
//   3. byte-identity cross-check — a smaller scan with per-query JSONL
//      rows collected at shard counts 1, 2 and 4; all three serializations
//      must match to the byte.
//
//   ./build/bench/bench_scan --names 10000000 --window 32
//   ./build/bench/bench_scan --names 200000 --json BENCH_scan.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "experiment/scan.hpp"
#include "obs/process.hpp"

using namespace recwild;
using namespace recwild::experiment;

namespace {

double secs_between(std::chrono::steady_clock::time_point a,
                    std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct ScanRun {
  ScanResult result;
  RunStats stats;
  double wall_s = 0.0;
};

ScanRun timed_scan(const std::shared_ptr<const WorldSnapshot>& world,
                   ScanConfig sc) {
  ScanRun run;
  sc.run_stats = &run.stats;
  Testbed tb{world};
  const auto t0 = std::chrono::steady_clock::now();
  run.result = run_scan(tb, sc);
  run.wall_s = secs_between(t0, std::chrono::steady_clock::now());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = benchutil::Options::parse(argc, argv);
  std::size_t names = 10'000'000;
  std::size_t window = 32;
  std::size_t shards = 0;  // one per hardware thread
  std::size_t identity_names = 50'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--names") == 0 && i + 1 < argc) {
      names = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--identity-names") == 0 && i + 1 < argc) {
      identity_names = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();

  report::header("Bulk resolution scan (combination 2C)");
  std::printf("%zu names, %zu probes, window %zu, seed %llu, %u cores\n",
              names, opt.probes, window,
              static_cast<unsigned long long>(opt.seed), cores);

  // The pipelined resolver front door: bounded in-flight resolutions per
  // recursive, unbounded admission queue. The same world serves the serial
  // baseline — with a window of 1 each VP offers one chain at a time, so
  // the caps never bind there.
  TestbedConfig cfg = benchutil::make_config(opt, "2C");
  cfg.population.resolver_template.max_inflight_resolutions = 1024;
  cfg.population.resolver_template.max_queued_resolutions = 0;
  const auto tw0 = std::chrono::steady_clock::now();
  const auto world = WorldSnapshot::build(cfg);
  const double world_build_s =
      secs_between(tw0, std::chrono::steady_clock::now());
  std::printf("world built in %.2fs (%zu VP groups)\n\n", world_build_s,
              world->vp_groups.size());

  // 1. Serial baseline: chain-at-a-time, on a subset proportional to 1/50
  //    of the workload (>= 100k names). Sim throughput, not wall, is the
  //    speedup basis, so the subset size only bounds measurement noise.
  const std::size_t serial_names =
      std::max<std::size_t>(std::min<std::size_t>(100'000, names),
                            names / 50);
  ScanConfig serial_cfg;
  serial_cfg.names = serial_names;
  serial_cfg.per_vp_window = 1;
  serial_cfg.shards = shards;
  serial_cfg.collect_rows = false;
  const ScanRun serial = timed_scan(world, serial_cfg);
  std::printf(
      "serial baseline: %zu names in %.2fs wall (%.0f q/s wall), "
      "%.1fs sim (%.0f q/s sim)\n",
      serial_names, serial.wall_s, serial.result.queries_per_s,
      serial.result.sim_end_s, serial.result.sim_queries_per_s);

  // 2. Pipelined scan over the full name list.
  ScanConfig piped_cfg;
  piped_cfg.names = names;
  piped_cfg.per_vp_window = window;
  piped_cfg.shards = shards;
  piped_cfg.collect_rows = false;
  const ScanRun piped = timed_scan(world, piped_cfg);
  const double speedup_sim =
      serial.result.sim_queries_per_s > 0.0
          ? piped.result.sim_queries_per_s / serial.result.sim_queries_per_s
          : 0.0;
  std::printf(
      "pipelined scan:  %zu names in %.2fs wall (%.0f q/s wall), "
      "%.1fs sim (%.0f q/s sim)\n",
      names, piped.wall_s, piped.result.queries_per_s,
      piped.result.sim_end_s, piped.result.sim_queries_per_s);
  std::printf("sim-time speedup over serial chains: %.1fx\n\n", speedup_sim);

  // 3. Byte-identity: collected JSONL rows at shard counts 1, 2, 4.
  bool identical = true;
  std::string reference;
  for (const std::size_t s : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    ScanConfig id_cfg;
    id_cfg.names = identity_names;
    id_cfg.per_vp_window = window;
    id_cfg.shards = s;
    Testbed tb{world};
    const auto result = run_scan(tb, id_cfg);
    std::ostringstream out;
    obs::write_scan_rows(out, result.rows);
    if (reference.empty()) {
      reference = out.str();
    } else if (out.str() != reference) {
      identical = false;
      std::printf("JSONL MISMATCH at shards=%zu\n", s);
    }
  }
  std::printf("JSONL byte-identity across shards 1/2/4 (%zu names): %s\n",
              identity_names, identical ? "identical" : "MISMATCH");
  if (piped.result.completed != names) {
    std::printf("COMPLETION MISMATCH: %llu of %zu names completed\n",
                static_cast<unsigned long long>(piped.result.completed),
                names);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"scan\",\n"
        "  \"combination\": \"2C\",\n"
        "  \"names\": %zu,\n"
        "  \"probes\": %zu,\n"
        "  \"window\": %zu,\n"
        "  \"seed\": %llu,\n"
        "  \"cores\": %u,\n"
        "  \"world_build_s\": %.2f,\n"
        "  \"peak_rss_kb\": %zu,\n"
        "  \"serial\": {\"names\": %zu, \"wall_s\": %.2f, "
        "\"queries_per_s\": %.0f, \"sim_end_s\": %.1f, "
        "\"sim_queries_per_s\": %.0f},\n"
        "  \"pipelined\": {\"names\": %zu, \"completed\": %llu, "
        "\"wall_s\": %.2f, \"queries_per_s\": %.0f, \"sim_end_s\": %.1f, "
        "\"sim_queries_per_s\": %.0f, \"partition_s\": %.3f, "
        "\"merge_s\": %.3f},\n"
        "  \"speedup_sim\": %.2f,\n"
        "  \"byte_identity\": {\"names\": %zu, \"shards\": [1, 2, 4], "
        "\"identical\": %s}\n"
        "}\n",
        names, opt.probes, window,
        static_cast<unsigned long long>(opt.seed), cores, world_build_s,
        obs::peak_rss_kb(), serial_names, serial.wall_s,
        serial.result.queries_per_s, serial.result.sim_end_s,
        serial.result.sim_queries_per_s, names,
        static_cast<unsigned long long>(piped.result.completed),
        piped.wall_s, piped.result.queries_per_s, piped.result.sim_end_s,
        piped.result.sim_queries_per_s, piped.stats.partition_s,
        piped.stats.merge_s, speedup_sim, identity_names,
        identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical && piped.result.completed == names ? 0 : 1;
}
