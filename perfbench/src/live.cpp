// The live authoritative path, measured in the campaign's traced run: an
// in-process netio::Server with one worker, serving a generated .nl-sized
// delegation zone and the paper's test domain, driven by one UDP generator
// thread with the queries the campaign's .nl and test-domain authoritatives
// logged. Its figures are per-layer only (netio, zone load, generator):
// live socket timings on a shared VM follow the host's scheduling too
// closely to carry a regression bound.
#include "live.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>

#include "authns/responder.hpp"
#include "dnscore/codec.hpp"
#include "dnscore/zonefile.hpp"
#include "host.hpp"
#include "netio/server.hpp"
#include "replay.hpp"
#include "stats/summary.hpp"

namespace perfbench {

namespace {

using namespace recwild;

constexpr std::size_t kDelegations = 200'000;
constexpr double kFixedRate = 20'000.0;
constexpr double kLatencyLimitMs = 1.0;
constexpr double kStepSeconds = 0.15;
/// Queries a capacity phase keeps outstanding: enough that the worker
/// always finds work queued, well under what its socket buffer holds.
constexpr std::uint64_t kCapacityWindow = 128;
/// How long the generator sleeps between top-ups in a capacity phase. It
/// reads and sends in batches instead of waking for every reply, so its
/// own cost does not pace the worker.
constexpr std::int64_t kCapacityNapNs = 50'000;
constexpr double kCapacitySeconds = 0.5;
constexpr double kFixedSeconds = 1.0;
/// Measurement rounds after the ladder, each a capacity phase and a
/// fixed-rate phase.
constexpr std::size_t kRounds = 4;
constexpr std::size_t kReplayMessages = 20'000;
constexpr int kLadderRefine = 3;
/// A query unanswered at the end of its phase counts with this latency,
/// i.e. as missing every limit.
constexpr double kLostLatencyMs = 1'000.0;
/// Like a stub resolver, the generator sends a query again when no reply
/// came within kRetryNs, up to kTries transmissions in all. A query fails
/// only when every transmission went unanswered (or a reply was wrong):
/// UDP may drop a datagram while the host holds the worker off its CPU.
constexpr std::int64_t kRetryNs = 200'000'000;
constexpr int kTries = 4;
constexpr double kRetryMs = static_cast<double>(kRetryNs) * 1e-6;
/// The longest a phase waits for replies after its last query: every
/// outstanding query has had all its transmissions by then.
constexpr std::int64_t kDrainNs = kTries * kRetryNs + 50'000'000;
/// A phase still sending this long after its last query was due has a
/// broken socket, not a slow server.
constexpr std::int64_t kStuckNs = 5'000'000'000;
/// Generator lateness (p99) or CPU share above these mean the generator,
/// not the server, set the pace of a step.
constexpr double kLimitedLatenessUs = 250.0;
constexpr double kLimitedCpuShare = 0.9;
constexpr char kTestDomain[] = "ourtestdomain.nl";

/// The replayed queries (wire form, id 0) and the reply the in-process
/// Responder gives each, flattened.
struct Stream {
  std::vector<std::vector<std::uint8_t>> query;
  std::vector<std::vector<std::uint8_t>> reply;
};

std::string test_zone_text() {
  return "$TTL 3600\n"
         "@    IN SOA ns1 hostmaster 1 14400 3600 1209600 300\n"
         "@    IN NS  ns1\n"
         "ns1  IN A   192.0.2.1\n"
         "*    5 IN TXT \"BENCH\"\n";
}

/// A .nl-like delegation zone: `n` delegations to two hosted nameservers
/// each, one in eight with an in-bailiwick nameserver and glue.
std::string nl_zone_text(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng{seed ^ 0x2a1ULL};
  std::string t =
      "$TTL 3600\n"
      "@ IN SOA ns1.dns.nl. hostmaster.dns.nl. 1 14400 3600 1209600 300\n"
      "@ IN NS ns1.dns.nl.\n@ IN NS ns2.dns.nl.\n"
      "ns1.dns IN A 194.0.28.53\nns2.dns IN A 194.0.25.24\n";
  t.reserve(n * 80);
  static constexpr char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (std::size_t i = 0; i < n; ++i) {
    std::string label = "d";
    label += std::to_string(i);
    for (int k = 0; k < 6; ++k) label += kAlnum[rng() % 36];
    const std::string host = "host" + std::to_string(rng() % 5'000);
    t += label + " IN NS ns1." + host + ".net.\n";
    t += label + " IN NS ns2." + host + ".net.\n";
    if (i % 8 == 0) {
      t += label + " IN NS ns." + label + "\n";
      t += "ns." + label + " IN A 10." + std::to_string(rng() % 256) + "." +
           std::to_string(rng() % 256) + "." + std::to_string(rng() % 256) +
           "\n";
    }
  }
  return t;
}

/// What netio's UDP path does with a query: decode, answer (whose size
/// check produces the final encoding), encode when it did not.
net::WireBuffer answer_wire(const authns::Responder& r,
                            const std::vector<std::uint8_t>& wire) {
  const dns::Message q = dns::decode_message(wire);
  net::WireBuffer out;
  const dns::Message resp = r.answer(q, false, &out);
  if (out.empty()) out = dns::encode_message(resp);
  return out;
}

std::vector<std::uint8_t> expected_reply(const authns::Responder& r,
                                         const std::vector<std::uint8_t>& wire) {
  const net::WireBuffer out = answer_wire(r, wire);
  return {out.data(), out.data() + out.size()};
}

/// Everything one load of the server owns. Destruction (reverse member
/// order) stops the server before the responder it reads goes away.
struct Live {
  std::unique_ptr<authns::Responder> responder;
  std::unique_ptr<netio::Server> server;
  pid_t worker_tid = 0;
  double parse_s = 0.0;  ///< parse_zone_text alone.
  double from_text_s = 0.0;
  double zone_mb = 0.0;  ///< Heap the .nl zone holds once indexed.
};

/// Bytes of heap in use (malloc's own count), MiB. Unlike RSS it does not
/// depend on what earlier frees left in the allocator's free lists.
double heap_mb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

int udp_socket(std::uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC |
                                       (nonblocking ? SOCK_NONBLOCK : 0),
                          0);
  if (fd < 0) throw std::runtime_error{"socket() failed"};
  const int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    throw std::runtime_error{"connect() failed"};
  }
  return fd;
}

/// One query through a blocking socket; true when the reply arrives
/// within a second and matches `expected` past the id.
bool probe(std::uint16_t port, const std::vector<std::uint8_t>& query,
           const std::vector<std::uint8_t>& expected) {
  const int fd = udp_socket(port, false);
  timeval tv{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::uint8_t buf[2048];
  bool ok = ::send(fd, query.data(), query.size(), 0) ==
            static_cast<ssize_t>(query.size());
  const ssize_t n = ok ? ::recv(fd, buf, sizeof buf, 0) : -1;
  ::close(fd);
  return n == static_cast<ssize_t>(expected.size()) && n >= 2 &&
         std::memcmp(buf + 2, expected.data() + 2, expected.size() - 2) == 0;
}

/// Zone parse and index, Server::start and the first answered probe.
Live load(const std::string& nl_text, const std::vector<std::uint8_t>& probe_q,
          Tracer& tracer) {
  Live l;
  {
    const Tracer::Scope s{tracer, "dnscore.parse_zone_text"};
    const std::int64_t t0 = host::now_ns();
    dns::ZoneFileOptions zo;
    zo.origin = dns::Name::parse("nl");
    const auto records = dns::parse_zone_text(nl_text, zo);
    l.parse_s = static_cast<double>(host::now_ns() - t0) * 1e-9;
    if (records.empty()) throw std::runtime_error{"empty zone"};
  }
  const double h0 = heap_mb();
  const std::int64_t t0 = host::now_ns();
  l.responder = std::make_unique<authns::Responder>(
      authns::ResponderConfig{"perfbench"});
  {
    const Tracer::Scope s{tracer, "authns.Zone::from_text"};
    l.responder->add_zone(
        authns::Zone::from_text(dns::Name::parse("nl"), nl_text));
    l.from_text_s = static_cast<double>(host::now_ns() - t0) * 1e-9;
    l.zone_mb = heap_mb() - h0;
    l.responder->add_zone(authns::Zone::from_text(
        dns::Name::parse(kTestDomain), test_zone_text()));
  }
  {
    const Tracer::Scope s{tracer, "netio.Server::start"};
    const auto before = host::task_ids();
    netio::ServerConfig sc;
    sc.workers = 1;
    l.server = std::make_unique<netio::Server>(*l.responder, sc);
    l.server->start();
    for (const pid_t t : host::task_ids()) {
      if (std::find(before.begin(), before.end(), t) == before.end()) {
        l.worker_tid = t;
      }
    }
    if (l.worker_tid == 0) throw std::runtime_error{"no server worker thread"};
  }
  {
    const Tracer::Scope s{tracer, "probe"};
    if (!probe(l.server->port(), probe_q,
               expected_reply(*l.responder, probe_q))) {
      throw std::runtime_error{"server did not answer the first probe"};
    }
  }
  return l;
}

/// Latency and loss over one slice of a phase's queries (in send order).
/// A query counts as lost here when its first transmission went
/// unanswered, i.e. it needed a retransmission or failed.
struct Window {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lateness_p99_us = 0.0;
  std::uint64_t lost = 0;

  [[nodiscard]] bool pass() const {
    return lost == 0 && p99_ms <= kLatencyLimitMs;
  }
  [[nodiscard]] bool generator_limited() const {
    return lateness_p99_us > kLimitedLatenessUs;
  }
};

/// What one constant-rate phase of the generator observed. Per-query
/// figures are indexed by send order; a lost or wrong reply carries
/// kLostLatencyMs, so it misses every latency limit.
struct Phase {
  double seconds = 0.0;
  std::uint64_t sent = 0;  ///< Queries, not counting retransmissions.
  std::uint64_t answered = 0;
  std::uint64_t lost = 0;  ///< Unanswered after kTries transmissions.
  std::uint64_t mismatched = 0;
  std::uint64_t retransmits = 0;
  std::vector<double> latency_ms;
  std::vector<double> lateness_us;
  double gen_cpu_share = 0.0;
  // Worker-side deltas over the phase.
  double worker_cpu_s = 0.0;
  double worker_wait_s = 0.0;

  [[nodiscard]] double achieved() const {
    return static_cast<double>(answered) / seconds;
  }

  /// The phase cut into `n` equal slices of its queries. Judging a phase
  /// by its median slice keeps one host stall from deciding it.
  [[nodiscard]] std::vector<Window> windows(std::size_t n) const {
    std::vector<Window> out;
    const std::size_t size = latency_ms.size() / n;
    for (std::size_t w = 0; w < n && size > 0; ++w) {
      const auto b = static_cast<std::ptrdiff_t>(w * size);
      const auto e = static_cast<std::ptrdiff_t>((w + 1) * size);
      const std::vector<double> lat(latency_ms.begin() + b,
                                    latency_ms.begin() + e);
      Window win;
      win.p50_ms = stats::quantile(lat, 0.50);
      win.p99_ms = stats::quantile(lat, 0.99);
      win.lateness_p99_us = stats::quantile(
          std::span{lateness_us.begin() + b, lateness_us.begin() + e}, 0.99);
      win.lost = static_cast<std::uint64_t>(std::count_if(
          lat.begin(), lat.end(), [](double ms) { return ms >= kRetryMs; }));
      out.push_back(win);
    }
    return out;
  }
};

/// A ladder step passes when most of its slices meet the limits and the
/// backlog did not grow (the last slice's median latency is not above
/// twice the first's plus 0.1 ms). It is generator-limited when it did
/// not pass and the generator fell behind in most slices or ran out of
/// CPU.
StepOutcome judge_step(const Phase& p) {
  const auto w = p.windows(3);
  std::size_t passing = 0;
  std::size_t limited = 0;
  for (const auto& x : w) {
    passing += x.pass() ? 1 : 0;
    limited += x.generator_limited() ? 1 : 0;
  }
  const bool growing =
      w.size() == 3 && w.back().p50_ms > 2.0 * w.front().p50_ms + 0.1;
  const bool pass = w.size() == 3 && passing >= 2 && !growing &&
                    p.mismatched == 0;
  const bool gen_limited =
      !pass && (limited >= 2 || p.gen_cpu_share > kLimitedCpuShare);
  return StepOutcome{pass, gen_limited, p.achieved()};
}

/// UDP generator on one socket. Open loop: query j of a phase is due at
/// start + j/rate, whether or not earlier ones were answered, and its
/// latency runs from that due time. Closed loop: a fixed window of queries
/// stays outstanding, topped up in batches. Transaction ids index the
/// in-flight table; an unanswered query is sent again under the same id.
class Generator {
 public:
  Generator(std::uint16_t port, const Stream& stream, pid_t worker)
      : fd_(udp_socket(port, true)),
        stream_(stream),
        worker_(worker),
        due_(kIds),
        sent_at_(kIds),
        qidx_(kIds),
        seq_(kIds),
        tries_(kIds),
        live_(kIds) {
    for (int b = 0; b < kBatch; ++b) {
      riov_[b] = {rbuf_[b], sizeof rbuf_[b]};
      rmsg_[b] = {};
      rmsg_[b].msg_hdr.msg_iov = &riov_[b];
      rmsg_[b].msg_hdr.msg_iovlen = 1;
    }
  }
  ~Generator() { ::close(fd_); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// One open-loop phase at `rate` q/s, on a fresh generator thread.
  Phase run(double rate, double seconds) {
    return on_thread([&] { return open_loop(rate, seconds); });
  }

  /// One closed-loop phase with `window` queries outstanding, on a fresh
  /// generator thread. Per-query latency is not recorded.
  Phase run_closed(std::uint64_t window, double seconds) {
    return on_thread([&] { return closed_loop(window, seconds); });
  }

 private:
  static constexpr std::size_t kIds = 65'536;
  static constexpr int kBatch = 32;

  template <class F>
  static Phase on_thread(F&& body) {
    Phase p;
    std::exception_ptr err;
    std::thread t{[&] {
      try {
        p = body();
      } catch (...) {
        err = std::current_exception();
      }
    }};
    t.join();
    if (err) std::rethrow_exception(err);
    return p;
  }

  /// Thread and worker counters at the start of a phase.
  struct Start {
    double worker_cpu_s = 0.0;
    std::uint64_t worker_wait_ns = 0;
    double cpu_s = 0.0;
  };

  Start begin() const {
    Start s;
    s.worker_cpu_s = host::thread_cpu_s(worker_);
    s.worker_wait_ns = host::schedstat(worker_).wait_ns;
    s.cpu_s = host::thread_cpu_s();
    return s;
  }

  /// Counts every query still in flight as lost and fills the phase's
  /// generator and worker deltas since `s`.
  void finish(const Start& s, std::int64_t start, Phase& p) {
    const std::int64_t wall_end = host::now_ns();
    for (std::size_t id = 0; id < kIds; ++id) {
      if (live_[id]) {
        live_[id] = 0;
        ++p.lost;
      }
    }
    pending_.clear();
    p.gen_cpu_share = (host::thread_cpu_s() - s.cpu_s) /
                      (static_cast<double>(wall_end - start) * 1e-9);
    p.worker_cpu_s = host::thread_cpu_s(worker_) - s.worker_cpu_s;
    p.worker_wait_s =
        static_cast<double>(host::schedstat(worker_).wait_ns -
                            s.worker_wait_ns) * 1e-9;
  }

  /// Sends the phase's queries i, i+1, ... (at most `b` of them, the j-th
  /// due at `due(j)`) in one sendmmsg; returns how many went out.
  template <class Due>
  std::uint64_t send(std::uint64_t i, int b, Due&& due, std::int64_t now,
                     Phase& p) {
    mmsghdr msg[kBatch];
    iovec iov[kBatch];
    std::uint8_t buf[kBatch][512];
    for (int k = 0; k < b; ++k) {
      const std::uint64_t j = i + static_cast<std::uint64_t>(k);
      const auto& wire = stream_.query[(next_query_ + j) % stream_.query.size()];
      const auto id = static_cast<std::uint16_t>(next_id_ + k);
      std::memcpy(buf[k], wire.data(), wire.size());
      buf[k][0] = static_cast<std::uint8_t>(id >> 8);
      buf[k][1] = static_cast<std::uint8_t>(id & 0xff);
      iov[k] = {buf[k], wire.size()};
      msg[k] = {};
      msg[k].msg_hdr.msg_iov = &iov[k];
      msg[k].msg_hdr.msg_iovlen = 1;
    }
    int sent = ::sendmmsg(fd_, msg, static_cast<unsigned>(b), 0);
    if (sent < 0) sent = 0;  // EAGAIN: the unsent ones go next turn
    for (int k = 0; k < sent; ++k) {
      const std::uint64_t j = i + static_cast<std::uint64_t>(k);
      const auto id = static_cast<std::uint16_t>(next_id_ + k);
      if (live_[id]) {  // its previous use never got a reply
        ++p.lost;
        --outstanding_;
      }
      live_[id] = 1;
      due_[id] = due(j);
      sent_at_[id] = now;
      tries_[id] = 1;
      pending_.push_back(Pending{id, now});
      seq_[id] = static_cast<std::uint32_t>(j);
      qidx_[id] = static_cast<std::uint32_t>((next_query_ + j) %
                                             stream_.query.size());
      if (j < p.lateness_us.size()) {
        p.lateness_us[j] = static_cast<double>(now - due_[id]) * 1e-3;
      }
      ++outstanding_;
    }
    next_id_ = static_cast<std::uint16_t>(next_id_ + sent);
    p.sent += static_cast<std::uint64_t>(sent);
    return static_cast<std::uint64_t>(sent);
  }

  /// Sends again every live query whose last transmission is kRetryNs old,
  /// and gives up on those that had kTries. `pending_` holds transmissions
  /// in time order; entries for answered or resent queries are skipped.
  void retry(std::int64_t now, Phase& p) {
    while (!pending_.empty()) {
      const Pending e = pending_.front();
      if (!live_[e.id] || sent_at_[e.id] != e.at) {
        pending_.pop_front();
        continue;
      }
      if (now - e.at < kRetryNs) return;
      if (tries_[e.id] >= kTries) {
        live_[e.id] = 0;
        --outstanding_;
        ++p.lost;
        pending_.pop_front();
        continue;
      }
      std::uint8_t buf[512];
      const auto& wire = stream_.query[qidx_[e.id]];
      std::memcpy(buf, wire.data(), wire.size());
      buf[0] = static_cast<std::uint8_t>(e.id >> 8);
      buf[1] = static_cast<std::uint8_t>(e.id & 0xff);
      if (::send(fd_, buf, wire.size(), 0) < 0) return;  // EAGAIN: next turn
      ++tries_[e.id];
      ++p.retransmits;
      sent_at_[e.id] = now;
      pending_.pop_front();
      pending_.push_back(Pending{e.id, now});
    }
  }

  /// When the oldest live transmission is due to be sent again.
  [[nodiscard]] std::int64_t next_retry() const {
    for (const Pending& e : pending_) {
      if (live_[e.id] && sent_at_[e.id] == e.at) return e.at + kRetryNs;
    }
    return std::numeric_limits<std::int64_t>::max();
  }

  /// Reads every reply waiting on the socket and checks its bytes against
  /// the expected reply; records latency where the phase keeps it.
  void receive(Phase& p) {
    for (;;) {
      const int r = ::recvmmsg(fd_, rmsg_, kBatch, MSG_DONTWAIT, nullptr);
      if (r <= 0) return;
      const std::int64_t at = host::now_ns();
      for (int k = 0; k < r; ++k) {
        const std::size_t len = rmsg_[k].msg_len;
        if (len < 2) continue;
        const auto id =
            static_cast<std::uint16_t>((rbuf_[k][0] << 8) | rbuf_[k][1]);
        if (!live_[id]) continue;  // late reply to a query counted lost
        live_[id] = 0;
        --outstanding_;
        const auto& want = stream_.reply[qidx_[id]];
        if (len != want.size() ||
            std::memcmp(rbuf_[k] + 2, want.data() + 2, len - 2) != 0) {
          ++p.mismatched;
          continue;
        }
        ++p.answered;
        if (seq_[id] < p.latency_ms.size()) {
          p.latency_ms[seq_[id]] = static_cast<double>(at - due_[id]) * 1e-6;
        }
      }
    }
  }

  /// Waits until a reply arrives or `until` passes.
  void wait(std::int64_t now, std::int64_t until) const {
    if (until <= now) return;
    const std::int64_t w = until - now;
    const timespec ts{w / 1'000'000'000, w % 1'000'000'000};
    pollfd pfd{fd_, POLLIN, 0};
    ::ppoll(&pfd, 1, &ts, nullptr);
  }

  Phase open_loop(double rate, double seconds) {
    Phase p;
    p.seconds = seconds;
    const auto n = static_cast<std::uint64_t>(rate * seconds);
    p.latency_ms.assign(n, kLostLatencyMs);
    p.lateness_us.assign(n, 0.0);
    outstanding_ = 0;
    const Start s0 = begin();
    const double gap_ns = 1e9 / rate;
    const std::int64_t start = host::now_ns() + 200'000;
    auto due = [&](std::uint64_t j) {
      return start + static_cast<std::int64_t>(static_cast<double>(j) * gap_ns);
    };
    std::uint64_t i = 0;
    std::int64_t drain_until = 0;
    for (;;) {
      std::int64_t now = host::now_ns();
      int b = 0;
      while (i + static_cast<std::uint64_t>(b) < n && b < kBatch &&
             due(i + static_cast<std::uint64_t>(b)) <= now) {
        ++b;
      }
      if (b > 0) i += send(i, b, due, now, p);
      receive(p);
      now = host::now_ns();
      retry(now, p);
      if (now > due(n) + kStuckNs) {
        throw std::runtime_error{"generator could not send its queries"};
      }
      if (i == n) {
        if (outstanding_ == 0) break;
        if (drain_until == 0) drain_until = now + kDrainNs;
        if (now >= drain_until) break;
      }
      wait(now, std::min(i < n ? due(i) : drain_until, next_retry()));
    }
    next_query_ += n;
    finish(s0, start, p);
    return p;
  }

  Phase closed_loop(std::uint64_t window, double seconds) {
    Phase p;
    p.seconds = seconds;
    outstanding_ = 0;
    const Start s0 = begin();
    const std::int64_t start = host::now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t i = 0;
    for (;;) {
      std::int64_t now = host::now_ns();
      if (now >= end) break;
      receive(p);
      retry(now, p);
      while (outstanding_ < window) {
        const int b = static_cast<int>(
            std::min<std::uint64_t>(kBatch, window - outstanding_));
        const std::uint64_t sent =
            send(i, b, [&](std::uint64_t) { return now; }, now, p);
        if (sent == 0) break;
        i += sent;
      }
      const timespec nap{0, kCapacityNapNs};
      ::nanosleep(&nap, nullptr);
    }
    const std::int64_t drain_until = host::now_ns() + kDrainNs;
    for (;;) {
      receive(p);
      const std::int64_t now = host::now_ns();
      retry(now, p);
      if (outstanding_ == 0 || now >= drain_until) break;
      wait(now, std::min(drain_until, next_retry()));
    }
    next_query_ += i;
    finish(s0, start, p);
    return p;
  }

  struct Pending {
    std::uint16_t id;
    std::int64_t at;  ///< When this transmission was sent.
  };

  int fd_;
  const Stream& stream_;
  pid_t worker_;
  std::vector<std::int64_t> due_;
  std::vector<std::int64_t> sent_at_;
  std::vector<std::uint32_t> qidx_;
  std::vector<std::uint32_t> seq_;
  std::vector<std::uint8_t> tries_;
  std::vector<std::uint8_t> live_;
  std::deque<Pending> pending_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t next_query_ = 0;
  std::uint16_t next_id_ = 0;
  mmsghdr rmsg_[kBatch];
  iovec riov_[kBatch];
  std::uint8_t rbuf_[kBatch][1500];
};

std::vector<double> ladder_rates() {
  std::vector<double> r;
  for (double x = 20'000.0; x < 400'000.0; x *= 1.25) r.push_back(x);
  return r;
}

/// One ladder search, each step printed; returns its result.
LadderResult search(Generator& gen, Tracer& tracer, Result& res) {
  const Tracer::Scope s{tracer, "ladder"};
  return ladder_search(ladder_rates(), kLadderRefine, 2, [&](double rate) {
    const Tracer::Scope st{tracer, "ladder.step"};
    const Phase p = gen.run(rate, kStepSeconds);
    res.check(p.mismatched == 0, "server: reply bytes differ (ladder)");
    const StepOutcome o = judge_step(p);
    const auto w = p.windows(3);
    std::printf(
        "  step %8.0f q/s: answered %8.0f/s lost %llu; slice p99 ms %.3f "
        "%.3f %.3f; lateness p99 us %.0f %.0f %.0f; gen cpu %.2f%s%s\n",
        rate, p.achieved(), static_cast<unsigned long long>(p.lost),
        w[0].p99_ms, w[1].p99_ms, w[2].p99_ms, w[0].lateness_p99_us,
        w[1].lateness_p99_us, w[2].lateness_p99_us, p.gen_cpu_share,
        o.pass ? " pass" : " FAIL",
        o.generator_limited ? " [generator-limited]" : "");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return o;
  });
}


/// Fills the stream's expected replies from the live responder.
void expect_from(Stream& s, const authns::Responder& r) {
  s.reply.clear();
  s.reply.reserve(s.query.size());
  for (const auto& q : s.query) s.reply.push_back(expected_reply(r, q));
}

/// Answered queries per second of worker CPU in one capacity phase: what
/// one worker sustains when it has a CPU to itself. CPU time leaves out
/// the time the host keeps the worker off its CPU.
double capacity_qps(const Phase& p) {
  return static_cast<double>(p.answered) / p.worker_cpu_s;
}

/// Everything measured on the live server: the ladder, then rounds of a
/// capacity phase and a fixed-rate phase, so both spread over the time.
struct ServerRun {
  LadderResult ladder;
  std::vector<double> capacity;
  std::uint64_t capacity_sent = 0;
  std::uint64_t capacity_failed = 0;
  std::uint64_t retransmits = 0;  ///< Capacity and fixed-rate phases.
  std::vector<Phase> fixed;

  // Fixed-rate totals and the medians over its 0.5 s slices.
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  double worker_cpu_s = 0.0;
  double worker_wait_s = 0.0;
  double gen_cpu_share = 0.0;
  double seconds = 0.0;
  double socket_p50_ms = 0.0;
  double socket_p99_ms = 0.0;
  double lateness_p99_us = 0.0;

  /// Queries of the capacity and fixed-rate phases, and those of them
  /// unanswered after every transmission or answered wrongly.
  [[nodiscard]] std::uint64_t attempted() const { return sent + capacity_sent; }
  [[nodiscard]] std::uint64_t all_failed() const {
    return failed + capacity_failed;
  }
};

/// Sums the fixed-rate phases and prints the round-up.
void summarize(ServerRun& r, Result& res) {
  std::vector<double> p50, p99, late;
  for (const Phase& p : r.fixed) {
    res.check(p.mismatched == 0, "live: reply bytes differ (fixed rate)");
    r.sent += p.sent;
    r.answered += p.answered;
    r.failed += p.lost + p.mismatched;
    r.retransmits += p.retransmits;
    r.worker_cpu_s += p.worker_cpu_s;
    r.worker_wait_s += p.worker_wait_s;
    r.gen_cpu_share += p.gen_cpu_share * p.seconds;
    r.seconds += p.seconds;
    for (const auto& w : p.windows(std::max<std::size_t>(
             1, static_cast<std::size_t>(p.seconds / 0.5)))) {
      p50.push_back(w.p50_ms);
      p99.push_back(w.p99_ms);
      late.push_back(w.lateness_p99_us);
    }
  }
  r.gen_cpu_share /= r.seconds;
  r.socket_p50_ms = stats::median(p50);
  r.socket_p99_ms = stats::median(p99);
  r.lateness_p99_us = stats::median(late);
  res.check(r.answered > 0, "live: nothing answered at the fixed rate");
  std::vector<double> all;
  for (const Phase& p : r.fixed) {
    all.insert(all.end(), p.latency_ms.begin(), p.latency_ms.end());
  }
  const double top = top_percentile(all.size());
  std::printf(
      "  fixed %.0f q/s, %zu rounds: sent %llu answered %llu failed %llu; "
      "%zu samples: p50 %.4f ms p99 %.4f ms p%g %.4f ms; median of %zu "
      "slices: p50 %.4f ms p99 %.4f ms, lateness p99 %.1f us; gen cpu "
      "%.2f\n",
      kFixedRate, r.fixed.size(), static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.answered),
      static_cast<unsigned long long>(r.failed), all.size(),
      stats::quantile(all, 0.50), stats::quantile(all, 0.99), top,
      stats::quantile(all, top / 100.0), p99.size(), r.socket_p50_ms,
      r.socket_p99_ms, r.lateness_p99_us, r.gen_cpu_share);
  std::printf("  capacity: %zu closed-loop phases, %llu outstanding, sent "
              "%llu failed %llu; median %.0f answered per worker cpu second:",
              r.capacity.size(),
              static_cast<unsigned long long>(kCapacityWindow),
              static_cast<unsigned long long>(r.capacity_sent),
              static_cast<unsigned long long>(r.capacity_failed),
              stats::median(r.capacity));
  for (const double c : r.capacity) std::printf(" %.0f", c);
  std::printf("\n  %llu retransmissions over %llu queries\n",
              static_cast<unsigned long long>(r.retransmits),
              static_cast<unsigned long long>(r.attempted()));
}

ServerRun measure(Live& live, const Stream& stream, Tracer& tracer,
                  Result& res) {
  ServerRun r;
  Generator gen{live.server->port(), stream, live.worker_tid};
  r.ladder = search(gen, tracer, res);
  for (std::size_t k = 0; k < kRounds; ++k) {
    {
      const Tracer::Scope s{tracer, "capacity"};
      const Phase p = gen.run_closed(kCapacityWindow, kCapacitySeconds);
      res.check(p.mismatched == 0, "live: reply bytes differ (capacity)");
      r.capacity_sent += p.sent;
      r.capacity_failed += p.lost + p.mismatched;
      r.retransmits += p.retransmits;
      r.capacity.push_back(capacity_qps(p));
    }
    const Tracer::Scope s{tracer, "fixed_rate"};
    r.fixed.push_back(gen.run(kFixedRate, kFixedSeconds));
  }
  summarize(r, res);
  return r;
}

}  // namespace

void measure_live(const std::vector<std::vector<std::uint8_t>>& queries,
                  std::uint64_t seed, Tracer& tracer, Result& res) {
  if (queries.empty()) throw std::runtime_error{"live: no logged queries"};
  const Tracer::Scope root{tracer, "live"};
  const std::string nl_text = nl_zone_text(kDelegations, seed);
  std::printf("live: %zu logged queries, %zu delegations, %zu bytes of zone "
              "text\n",
              queries.size(), kDelegations, nl_text.size());
  Stream stream;
  stream.query = queries;
  Live live = load(nl_text, stream.query.front(), tracer);
  expect_from(stream, *live.responder);
  const ServerRun run = measure(live, stream, tracer, res);

  std::vector<BoundaryQuery> replayed;
  const std::size_t stride =
      std::max<std::size_t>(stream.query.size() / kReplayMessages, 1);
  for (std::size_t i = 0; i < stream.query.size(); i += stride) {
    replayed.push_back(BoundaryQuery{live.responder.get(), stream.query[i]});
  }
  const ReplayCost cost = replay(replayed, 3, tracer);
  const netio::ServerStats stats = live.server->stats();
  live.server->stop();

  res.attempted += run.attempted();
  res.failed += run.all_failed();
  auto& m = res.metrics;
  m["authns.zone_index_s"] = live.from_text_s - live.parse_s;
  m["authns.zone_mb"] = live.zone_mb;
  m["dnscore.zone_parse_s"] = live.parse_s;
  m["netio.ladder_qps"] = run.ladder.best_achieved;
  m["netio.capacity_qps"] = stats::median(run.capacity);
  m["netio.p50_ms"] = run.socket_p50_ms;
  m["netio.p99_ms"] = run.socket_p99_ms;
  m["netio.syscall_us_per_query"] =
      per_query(run.worker_cpu_s * 1e6, run.answered) -
      (cost.decode_ns + cost.answer_ns) * 1e-3;
  m["netio.runqueue_wait_us_per_query"] =
      per_query(run.worker_wait_s * 1e6, run.answered);
  m["netio.dropped"] = static_cast<double>(stats.dropped);
  m["netio.retransmit_ratio"] =
      per_query(static_cast<double>(run.retransmits), run.attempted());
  m["loadgen.lateness_p99_us"] = run.lateness_p99_us;
  m["loadgen.cpu_share"] = run.gen_cpu_share;
  m["loadgen.limited_steps"] = static_cast<double>(run.ladder.limited_steps);
}

}  // namespace perfbench
