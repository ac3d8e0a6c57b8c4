// The two simulated workloads: the paper's §3.1 Atlas campaign and a
// ZDNS-style bulk scan. Both run single-threaded (shards = 1) and are
// measured only from outside: wall, CPU, allocations and scheduler time
// around the run_* call, plus the counts the run leaves in its metric
// registry, resolver caches and query logs.
#include <cstdio>
#include <memory>
#include <ostream>
#include <streambuf>

#include "alloc_counter.hpp"
#include "bench.hpp"
#include "experiment/campaign.hpp"
#include "experiment/deployments.hpp"
#include "experiment/scan.hpp"
#include "host.hpp"
#include "live.hpp"
#include "net/wire_buffer.hpp"
#include "obs/names.hpp"
#include "replay.hpp"
#include "stats/summary.hpp"

namespace perfbench {

namespace {

using namespace recwild;
using namespace recwild::experiment;
namespace names = recwild::obs::names;

constexpr std::size_t kCampaignVps = 10'000;
constexpr std::size_t kCampaignQueriesPerVp = 31;
constexpr std::size_t kScanVps = 2'000;
constexpr std::size_t kScanNames = 150'000;
constexpr std::size_t kScanWindow = 32;
/// World builds timed before each timed run after the first; setup_s is
/// the median over them and the first build. Taking them between the runs
/// spreads them over the whole measurement, as the run figures are, so
/// one slow second of the host does not set setup_s.
constexpr int kSetupBuildsPerRun = 10;
/// Timed runs of the run_* call: at least 3, more while the --seconds
/// budget lasts. Host-time metrics are medians over them; the counts must
/// agree exactly between them.
constexpr std::size_t kMinReps = 3;
/// Messages the traced run replays through decode/answer/encode.
constexpr std::size_t kReplayMessages = 20'000;
/// Logged queries the traced campaign replays through the live server.
constexpr std::size_t kLiveQueries = 100'000;

/// Every count a simulated run produces. All of them must repeat exactly
/// when the same seed runs again, in this process or another.
struct SimCounts {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t udp_bytes = 0;
  std::uint64_t upstream = 0;
  std::uint64_t rr_hits = 0;
  std::uint64_t rr_misses = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t admission_queued = 0;
  std::uint64_t authns_queries = 0;
  std::uint64_t rrcache_entries = 0;
  std::uint64_t querylog_entries = 0;
  double queue_peak = 0.0;
  double inflight_peak = 0.0;
  double p50_ms = 0.0;  ///< Simulated resolution latency.
  double p99_ms = 0.0;
  std::uint64_t digest = 0;  ///< Of the run's deterministic export.

  /// Every field by name, for the repeat checks.
  [[nodiscard]] std::vector<std::pair<const char*, double>> fields() const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {{"completed", d(completed)},
            {"failed", d(failed)},
            {"allocs", d(allocs)},
            {"events", d(events)},
            {"packets", d(packets)},
            {"udp_bytes", d(udp_bytes)},
            {"upstream", d(upstream)},
            {"rr_hits", d(rr_hits)},
            {"rr_misses", d(rr_misses)},
            {"timeouts", d(timeouts)},
            {"coalesced", d(coalesced)},
            {"admission_queued", d(admission_queued)},
            {"authns_queries", d(authns_queries)},
            {"rrcache_entries", d(rrcache_entries)},
            {"querylog_entries", d(querylog_entries)},
            {"queue_peak", queue_peak},
            {"inflight_peak", inflight_peak},
            {"p50_ms", p50_ms},
            {"p99_ms", p99_ms},
            {"digest", d(digest)}};
  }
};

/// One timed run_* call.
struct SimRun {
  SimCounts counts;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double wait_s = 0.0;  ///< Calling thread's run-queue wait.
  std::uint64_t nivcsw = 0;
};

/// Incremental FNV-1a 64 over bytes.
class Digest {
 public:
  void add(std::string_view bytes) noexcept {
    for (const unsigned char c : bytes) {
      h_ = (h_ ^ c) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// streambuf that only hashes what is written to it.
class DigestBuf : public std::streambuf {
 public:
  Digest digest;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = static_cast<char>(c);
      digest.add({&ch, 1});
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    digest.add({s, static_cast<std::size_t>(n)});
    return n;
  }
};

double gauge_value(const obs::MetricsSnapshot& m, std::string_view name) {
  for (const auto& g : m.gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const obs::MetricsSnapshot::HistogramValue& histogram(
    const obs::MetricsSnapshot& m, std::string_view name) {
  for (const auto& h : m.histograms) {
    if (h.name == name) return h;
  }
  throw std::runtime_error{"histogram missing: " + std::string{name}};
}

/// Fills the registry- and world-derived counts shared by both workloads.
void read_counts(Testbed& tb, const obs::MetricsSnapshot& m, SimCounts& c) {
  c.events = m.counter_value(names::kSimEventsProcessed);
  c.packets = m.counter_value(names::kNetPacketsSent);
  c.udp_bytes = m.counter_value(names::kDatapathUdpBytes);
  c.upstream = m.counter_value(names::kResolverUpstreamSent);
  c.rr_hits = m.counter_value(names::kRrcacheHits);
  c.rr_misses = m.counter_value(names::kRrcacheMisses);
  c.timeouts = m.counter_value(names::kResolverUpstreamTimeouts);
  c.coalesced = m.counter_value(names::kResolverCoalesced);
  c.admission_queued = m.counter_value(names::kResolverAdmissionQueued);
  c.authns_queries = m.counter_value(names::kAuthnsQueries);
  c.queue_peak = gauge_value(m, names::kSimQueuePeakPending);
  c.inflight_peak = gauge_value(m, names::kResolverInflight);
  for (const auto& r : tb.population().recursives()) {
    c.rrcache_entries += r.resolver->cache().size();
  }
  for (auto* group : {&tb.roots(), &tb.nl_services(), &tb.test_services()}) {
    for (const auto& svc : *group) {
      for (const auto& site : svc.sites()) {
        c.querylog_entries += site.server->log().entries().size();
      }
    }
  }
}

/// Times `call` on the calling thread: wall, process CPU, allocations,
/// run-queue wait and involuntary switches.
template <class F>
SimRun timed(F&& call) {
  const pid_t tid = host::gettid();
  // The same wire-buffer pool state before every run keeps allocation
  // counts equal between runs of one process and runs of fresh processes:
  // free lists grown to their cap (filling and draining them), then empty.
  {
    std::vector<std::vector<std::uint8_t>> b8;
    std::vector<std::vector<std::uint16_t>> b16;
    for (int i = 0; i < 256; ++i) {
      b8.push_back(net::WireBufferPool::acquire());
      b16.push_back(net::WireBufferPool::acquire_scratch16());
    }
    for (auto& b : b8) net::WireBufferPool::release(std::move(b));
    for (auto& b : b16) net::WireBufferPool::release_scratch16(std::move(b));
    net::WireBufferPool::clear();
  }
  const host::SchedStat s0 = host::schedstat(tid);
  const std::uint64_t v0 = host::nivcsw(tid);
  const double c0 = host::process_cpu_s();
  const std::uint64_t a0 = alloc::this_thread();
  const std::int64_t t0 = host::now_ns();
  SimRun r;
  call();
  const std::int64_t t1 = host::now_ns();
  r.counts.allocs = alloc::this_thread() - a0;
  r.cpu_s = host::process_cpu_s() - c0;
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  r.wait_s =
      static_cast<double>(host::schedstat(tid).wait_ns - s0.wait_ns) * 1e-9;
  r.nivcsw = host::nivcsw(tid) - v0;
  return r;
}

/// A simulated workload: its world and its timed call. `run` executes the
/// run_* call (and only it) inside `timed`, then reads counts and checks
/// outputs outside the timed section.
struct SimWorkload {
  TestbedConfig cfg;
  SimRun (*run)(Testbed& tb, Tracer& tracer, Result& res);
  /// The traced run also replays the run's .nl and test-domain queries
  /// through the live server (measure_live).
  bool live = false;
};

SimRun campaign_once(Testbed& tb, Tracer& tracer, Result& res) {
  CampaignConfig cc;
  cc.queries_per_vp = kCampaignQueriesPerVp;
  cc.shards = 1;
  CampaignResult out;
  SimRun r = timed([&] {
    const Tracer::Scope s{tracer, "experiment.run_campaign"};
    out = run_campaign(tb, cc);
  });
  const auto& m = out.metrics;
  SimCounts& c = r.counts;
  read_counts(tb, m, c);
  const std::uint64_t sent = m.counter_value(names::kCampaignQueriesSent);
  const std::uint64_t answered =
      m.counter_value(names::kCampaignQueriesAnswered);
  const std::uint64_t unanswered =
      m.counter_value(names::kCampaignQueriesUnanswered);
  res.check(sent == answered + unanswered,
            "campaign: sent != answered + unanswered");
  res.check(sent == kCampaignVps * kCampaignQueriesPerVp,
            "campaign: sent != VPs x queries per VP");
  res.check(out.vps.size() == kCampaignVps, "campaign: VP count");
  c.completed = sent;
  c.failed = unanswered;
  const auto& h = histogram(m, names::kResolverResolveMs);
  c.p50_ms = histogram_percentile(h.counts, h.lo, h.hi, 50.0);
  c.p99_ms = histogram_percentile(h.counts, h.lo, h.hi, 99.0);
  Digest d;
  d.add(m.to_json(obs::SnapshotStyle::MergeSafe));
  c.digest = d.value();
  return r;
}

SimRun scan_once(Testbed& tb, Tracer& tracer, Result& res) {
  ScanConfig sc;
  sc.names = kScanNames;
  sc.per_vp_window = kScanWindow;
  sc.shards = 1;
  sc.collect_rows = true;
  ScanResult out;
  SimRun r = timed([&] {
    const Tracer::Scope s{tracer, "experiment.run_scan"};
    out = run_scan(tb, sc);
  });
  SimCounts& c = r.counts;
  read_counts(tb, out.metrics, c);
  res.check(out.issued == kScanNames, "scan: issued != names");
  res.check(out.completed == out.issued, "scan: completed != issued");
  res.check(out.rows.size() == kScanNames, "scan: row count");
  c.completed = out.completed;
  std::vector<double> lat;
  lat.reserve(out.rows.size());
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    const auto& row = out.rows[i];
    if (row.index != i) res.check(false, "scan: rows out of index order");
    if (row.rcode != "NOERROR") ++c.failed;
    lat.push_back(row.sim_ms);
  }
  if (!lat.empty()) {
    c.p50_ms = stats::quantile(lat, 0.50);
    c.p99_ms = stats::quantile(lat, 0.99);
  }
  DigestBuf buf;
  std::ostream jsonl{&buf};
  obs::write_scan_rows(jsonl, out.rows);
  c.digest = buf.digest.value();
  return r;
}

/// World build + materialisation, timed; `world_mb`/`replica_mb` are the
/// RSS growth across each call.
struct Setup {
  std::shared_ptr<const WorldSnapshot> world;
  std::unique_ptr<Testbed> tb;
  double build_s = 0.0;
  double materialize_s = 0.0;
  double world_mb = 0.0;
  double replica_mb = 0.0;
};

Setup set_up(const TestbedConfig& cfg, Tracer& tracer) {
  Setup s;
  const double r0 = host::rss_mb();
  const std::int64_t t0 = host::now_ns();
  {
    const Tracer::Scope sp{tracer, "experiment.world_build"};
    s.world = WorldSnapshot::build(cfg);
  }
  const std::int64_t t1 = host::now_ns();
  const double r1 = host::rss_mb();
  {
    const Tracer::Scope sp{tracer, "experiment.materialize"};
    s.tb = std::make_unique<Testbed>(s.world);
  }
  const std::int64_t t2 = host::now_ns();
  s.build_s = static_cast<double>(t1 - t0) * 1e-9;
  s.materialize_s = static_cast<double>(t2 - t1) * 1e-9;
  s.world_mb = r1 - r0;
  s.replica_mb = host::rss_mb() - r1;
  return s;
}

/// Two runs of one seed must agree on every count and on the output.
void self_check(Result& res, const SimCounts& a, const SimCounts& b,
                const char* what) {
  const auto fa = a.fields();
  const auto fb = b.fields();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    res.check(fa[i].second == fb[i].second,
              std::string{what} + ": " + fa[i].first + " differs between runs (" +
                  std::to_string(fa[i].second) + " vs " +
                  std::to_string(fb[i].second) + ")");
  }
}

void end_to_end(Result& res, const std::vector<double>& setups,
                const std::vector<SimRun>& reps, double peak_rss_mb) {
  std::vector<double> qps, cpu;
  for (const auto& r : reps) {
    qps.push_back(static_cast<double>(r.counts.completed) / r.wall_s);
    cpu.push_back(per_query(r.cpu_s * 1e6, r.counts.completed));
  }
  const SimCounts& c = reps.front().counts;
  auto& m = res.metrics;
  m["setup_s"] = stats::median(setups);
  m["qps"] = stats::median(qps);
  m["cpu_us_per_query"] = stats::median(cpu);
  m["peak_rss_mb"] = peak_rss_mb;
  m["allocs_per_query"] = per_query(static_cast<double>(c.allocs), c.completed);
  m["success_ratio"] =
      1.0 - per_query(static_cast<double>(c.failed), c.completed);
  m["p50_ms"] = c.p50_ms;
  m["p99_ms"] = c.p99_ms;
}

void per_layer(Result& res, const Setup& first, const Tracer& tracer,
               const SimRun& plain, const SimRun& traced,
               const ReplayCost& cost) {
  const SimCounts& c = traced.counts;
  const auto q = c.completed;
  const auto pq = [&](double v) { return per_query(v, q); };
  auto& m = res.metrics;
  m["experiment.world_build_s"] = tracer.seconds("experiment.world_build");
  m["experiment.materialize_s"] = tracer.seconds("experiment.materialize");
  m["experiment.world_mb"] = first.world_mb;
  m["experiment.replica_mb"] = first.replica_mb;
  m["net.events_per_query"] = pq(static_cast<double>(c.events));
  m["net.packets_per_query"] = pq(static_cast<double>(c.packets));
  m["net.queue_peak_pending"] = c.queue_peak;
  m["net.host_ns_per_event"] =
      plain.wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(c.events, 1));
  m["resolver.upstream_per_query"] = pq(static_cast<double>(c.upstream));
  m["resolver.rrcache_hit_ratio"] =
      static_cast<double>(c.rr_hits) /
      static_cast<double>(std::max<std::uint64_t>(c.rr_hits + c.rr_misses, 1));
  m["resolver.timeouts_per_query"] = pq(static_cast<double>(c.timeouts));
  m["resolver.coalesced_per_query"] = pq(static_cast<double>(c.coalesced));
  m["resolver.admission_queued_per_query"] =
      pq(static_cast<double>(c.admission_queued));
  m["resolver.inflight_peak"] = c.inflight_peak;
  m["resolver.rrcache_entries"] = static_cast<double>(c.rrcache_entries);
  m["authns.queries_per_query"] = pq(static_cast<double>(c.authns_queries));
  m["authns.querylog_mb"] =
      static_cast<double>(c.querylog_entries * sizeof(authns::QueryLogEntry)) /
      (1024.0 * 1024.0);
  m["authns.answer_ns"] = cost.answer_ns;
  m["dnscore.decode_ns"] = cost.decode_ns;
  m["dnscore.encode_ns"] = cost.encode_ns;
  m["dnscore.udp_bytes_per_query"] = pq(static_cast<double>(c.udp_bytes));
  m["host.runqueue_wait_share"] = plain.wait_s / plain.wall_s;
  m["host.nivcsw"] = static_cast<double>(plain.nivcsw);
  m["fail_ratio"] = pq(static_cast<double>(c.failed));
  for (const char* k :
       {"authns.zone_index_s", "authns.zone_mb", "dnscore.zone_parse_s",
        "netio.ladder_qps", "netio.capacity_qps", "netio.p50_ms",
        "netio.p99_ms",
        "netio.syscall_us_per_query", "netio.runqueue_wait_us_per_query",
        "netio.dropped", "netio.retransmit_ratio", "loadgen.lateness_p99_us", "loadgen.cpu_share",
        "loadgen.limited_steps"}) {
    m[k] = 0.0;  // no zone file, sockets or generator in the simulator;
                 // measure_live fills these for the campaign
  }
  m["trace.overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s;
  // Share of the timed call the replayed boundary calls account for: each
  // logged authoritative query is one decode, one answer (whose size check
  // is itself an encode) and one encode.
  const double run_ns = plain.wall_s * 1e9;
  const auto auth_q = static_cast<double>(c.authns_queries);
  m["layer.dnscore_share"] = auth_q * (cost.decode_ns + cost.encode_ns) / run_ns;
  m["layer.authns_share"] =
      auth_q * std::max(cost.answer_ns - cost.encode_ns, 0.0) / run_ns;
}

/// Up to `limit` of the queries the .nl and test-domain sites of `tb`
/// logged, in wire form, taken at an even stride over the logs.
std::vector<std::vector<std::uint8_t>> live_queries(Testbed& tb,
                                                    std::size_t limit) {
  std::vector<const authns::QueryLog*> logs;
  std::size_t total = 0;
  for (auto* group : {&tb.nl_services(), &tb.test_services()}) {
    for (const auto& svc : *group) {
      for (const auto& site : svc.sites()) {
        logs.push_back(&site.server->log());
        total += site.server->log().entries().size();
      }
    }
  }
  const std::size_t stride = std::max<std::size_t>((total + limit - 1) / limit, 1);
  std::vector<std::vector<std::uint8_t>> out;
  std::size_t i = 0;
  for (const auto* log : logs) {
    for (const auto& e : log->entries()) {
      if (i++ % stride == 0) out.push_back(query_wire(e.qname, e.qtype, 0));
    }
  }
  return out;
}

Result run_sim(const Options& opt, const SimWorkload& w) {
  Result res;
  Tracer off{false};
  if (!opt.trace) {
    Setup s = set_up(w.cfg, off);
    std::vector<double> setups{s.build_s + s.materialize_s};
    std::vector<SimRun> reps;
    double peak_rss_mb = 0.0;
    const std::int64_t start = host::now_ns();
    do {
      if (!reps.empty()) {
        s.tb.reset();
        for (int k = 0; k < kSetupBuildsPerRun; ++k) {
          const Setup b = set_up(w.cfg, off);
          setups.push_back(b.build_s + b.materialize_s);
        }
        s.tb = std::make_unique<Testbed>(s.world);
      }
      reps.push_back(w.run(*s.tb, off, res));
      // VmHWM after one world, one testbed and one run. Later repeats can
      // raise it only through heap fragmentation, and how many repeats
      // fit in --seconds depends on the host's speed.
      if (reps.size() == 1) peak_rss_mb = host::hwm_mb();
      const SimRun& r = reps.back();
      std::printf("  run %zu: %.3f s, %.0f queries/s, %.2f cpu us/query\n",
                  reps.size(), r.wall_s,
                  static_cast<double>(r.counts.completed) / r.wall_s,
                  r.cpu_s * 1e6 / static_cast<double>(r.counts.completed));
      if (reps.size() > 1) {
        self_check(res, reps.front().counts, reps.back().counts, "repeat");
      }
    } while (reps.size() < kMinReps ||
             static_cast<double>(host::now_ns() - start) * 1e-9 < opt.seconds);
    res.attempted = reps.front().counts.completed;
    res.failed = reps.front().counts.failed;
    end_to_end(res, setups, reps, peak_rss_mb);
    return res;
  }

  // Traced mode: one untraced run, then the same run with spans; outputs
  // and counts must match, and the wall-time difference is the overhead.
  Setup first = set_up(w.cfg, off);
  const SimRun plain = w.run(*first.tb, off, res);
  first.tb.reset();  // free the untraced world before the traced one
  first.world.reset();
  Tracer tracer{true};
  Setup s;
  SimRun traced;
  {
    const Tracer::Scope root{tracer, "workload"};
    s = set_up(w.cfg, tracer);
    traced = w.run(*s.tb, tracer, res);
  }
  self_check(res, plain.counts, traced.counts, "traced");
  const ReplayCost cost =
      replay(logged_queries(*s.tb, kReplayMessages), 3, tracer);
  res.attempted = traced.counts.completed;
  res.failed = traced.counts.failed;
  per_layer(res, first, tracer, plain, traced, cost);
  if (w.live) {
    const auto queries = live_queries(*s.tb, kLiveQueries);
    s.tb.reset();  // free the world before the live server loads its zone
    s.world.reset();
    measure_live(queries, opt.seed, tracer, res);
  }
  tracer.write_json(opt.out_dir + "/trace_" + opt.workload + "_" +
                    std::to_string(opt.seed) + ".json");
  res.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
  res.spans = tracer.spans();
  return res;
}

TestbedConfig world_config(std::uint64_t seed, std::size_t vps) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.population.probes = vps;
  cfg.test_sites = combination("2C").sites;
  return cfg;
}

}  // namespace

Result run_campaign(const Options& opt) {
  return run_sim(opt, SimWorkload{world_config(opt.seed, kCampaignVps),
                                  &campaign_once, true});
}

Result run_scan(const Options& opt) {
  TestbedConfig cfg = world_config(opt.seed, kScanVps);
  // The pipelined resolver front door as the program's scan CLI and
  // bench_scan configure it: at most 1024 in-flight resolutions per
  // recursive, unbounded admission queue.
  cfg.population.resolver_template.max_inflight_resolutions = 1024;
  cfg.population.resolver_template.max_queued_resolutions = 0;
  return run_sim(opt, SimWorkload{cfg, &scan_once});
}

}  // namespace perfbench
