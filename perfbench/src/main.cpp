// perfbench — end-to-end and per-layer benchmark of recwild.
//
//   perfbench --workload campaign|scan --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// reruns the workload with spans around each call into the program and
// prints every per-layer metric, the span self-time table and the layer
// shares. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"
#include "host.hpp"

namespace perfbench {

// ---- Tracer / Result -----------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) {
    spans_.reserve(4096);
    open_.reserve(64);
  }
}

int Tracer::begin(std::string_view name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, host::now_ns(), 0, parent});
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = host::now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::seconds(std::string_view name) const {
  double s = 0.0;
  for (const auto& sp : spans_) {
    if (sp.name == name) s += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
  }
  return s;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out{path};
  const auto self = self_times(spans_);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "  {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start_ns - t0 << ", \"end_ns\": " << s.end_ns - t0
        << ", \"self_ns\": " << self[i] << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with --trace 0, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"qps", "1/s"},
    {"cpu_us_per_query", "us"}, {"peak_rss_mb", "MB"},
    {"allocs_per_query", "count"}, {"success_ratio", "ratio"},
    {"p50_ms", "ms"},          {"p99_ms", "ms"},
};

// Reported with --trace 1, on every workload; a workload that bypasses a
// layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"experiment.world_build_s", "s"},
    {"experiment.materialize_s", "s"},
    {"experiment.world_mb", "MB"},
    {"experiment.replica_mb", "MB"},
    {"net.events_per_query", "count"},
    {"net.packets_per_query", "count"},
    {"net.queue_peak_pending", "count"},
    {"net.host_ns_per_event", "ns"},
    {"resolver.upstream_per_query", "count"},
    {"resolver.rrcache_hit_ratio", "ratio"},
    {"resolver.timeouts_per_query", "count"},
    {"resolver.coalesced_per_query", "count"},
    {"resolver.admission_queued_per_query", "count"},
    {"resolver.inflight_peak", "count"},
    {"resolver.rrcache_entries", "count"},
    {"authns.queries_per_query", "count"},
    {"authns.querylog_mb", "MB"},
    {"authns.answer_ns", "ns"},
    {"authns.zone_index_s", "s"},
    {"authns.zone_mb", "MB"},
    {"dnscore.decode_ns", "ns"},
    {"dnscore.encode_ns", "ns"},
    {"dnscore.udp_bytes_per_query", "bytes"},
    {"dnscore.zone_parse_s", "s"},
    {"netio.ladder_qps", "1/s"},
    {"netio.capacity_qps", "1/s"},
    {"netio.p50_ms", "ms"},
    {"netio.p99_ms", "ms"},
    {"netio.syscall_us_per_query", "us"},
    {"netio.runqueue_wait_us_per_query", "us"},
    {"netio.dropped", "count"},
    {"netio.retransmit_ratio", "ratio"},
    {"loadgen.lateness_p99_us", "us"},
    {"loadgen.cpu_share", "ratio"},
    {"loadgen.limited_steps", "count"},
    {"host.runqueue_wait_share", "ratio"},
    {"host.nivcsw", "count"},
    {"fail_ratio", "ratio"},
    {"layer.dnscore_share", "ratio"},
    {"layer.authns_share", "ratio"},
    {"layer.uncovered_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload campaign|scan --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

/// Self time per span name, and each layer's share of the timed section.
void print_trace_tables(const Result& res) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;
  std::map<std::string, int> count;
  const auto self = self_times(res.spans);
  for (std::size_t i = 0; i < res.spans.size(); ++i) {
    const auto& s = res.spans[i];
    const std::string name{s.name};
    by_name[name].first += s.end_ns - s.start_ns;
    by_name[name].second += self[i];
    ++count[name];
  }
  std::printf("\n%-28s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : by_name) {
    std::printf("%-28s %6d %12.3f %12.3f\n", name.c_str(), count[name],
                static_cast<double>(t.first) * 1e-6,
                static_cast<double>(t.second) * 1e-6);
  }
  const auto& m = res.metrics;
  std::printf("\nlayer share of the timed section\n");
  std::printf("  dnscore (replayed decode + encode)     %6.2f%%\n",
              100 * m.at("layer.dnscore_share"));
  std::printf("  authns  (replayed answer minus encode) %6.2f%%\n",
              100 * m.at("layer.authns_share"));
  std::printf("  not covered by replayed calls          %6.2f%%\n",
              100 * m.at("layer.uncovered_share"));
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();

  Result res;
  try {
    if (opt.workload == "campaign") {
      res = run_campaign(opt);
    } else if (opt.workload == "scan") {
      res = run_scan(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  auto& m = res.metrics;
  if (opt.trace && m.count("layer.dnscore_share") != 0 &&
      m.count("layer.authns_share") != 0) {
    m["layer.uncovered_share"] =
        1.0 - m["layer.dnscore_share"] - m["layer.authns_share"];
  }
  const auto* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);

  std::printf("\n%s seed %llu (%s)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced: per-layer" : "end to end");
  for (const auto* d = begin; d != end; ++d) {
    const auto it = m.find(d->name);
    if (it == m.end()) {
      res.check(false, std::string{"metric missing: "} + d->name);
    } else if (!std::isfinite(it->second)) {
      res.check(false, std::string{"metric not finite: "} + d->name);
    } else {
      std::printf("  %-38s %16.6f %s\n", d->name, it->second, d->unit);
    }
  }
  for (const auto& p : res.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  if (opt.trace && res.correct()) print_trace_tables(res);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  bool first = true;
  for (const auto* d = begin; d != end; ++d) {
    const auto it = m.find(d->name);
    if (it == m.end() || !std::isfinite(it->second)) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", d->name, it->second, d->unit);
    first = false;
  }
  std::printf("}}\n");
  return res.correct() ? 0 : 1;
}
