// Recursive resolver bound to a simulated network node.
//
// Implements full iterative resolution the way production resolvers do:
// start from root hints, follow referrals downwards, cache NS sets, glue
// and answers, and pick among a zone's authoritative addresses with a
// pluggable ServerSelector fed by the InfraCache. Handles retransmission
// with adaptive timeouts, server failover, SERVFAIL/REFUSED lameness,
// CNAME chasing, negative caching, and client query coalescing.
//
// One RecursiveResolver models one "recursive" of the paper (an R box in
// Figure 1); its selection policy is drawn from the population mixture.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "dnscore/name_table.hpp"
#include "net/address_list.hpp"
#include "net/network.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/record_cache.hpp"
#include "resolver/selection.hpp"
#include "stats/node_pool.hpp"

namespace recwild::resolver {

/// Bootstrap knowledge: the root NS addresses (a hints file).
struct RootHint {
  dns::Name ns_name;
  net::IpAddress address;
};

/// Which address records of an NS a resolver uses for upstream queries.
/// Dual-stack resolvers treat the v4 and v6 addresses of a nameserver as
/// separate candidate servers, as BIND/Unbound do (the paper verified its
/// findings hold over IPv6, §3.1).
enum class AddressFamily : unsigned char { V4Only, V6Only, Dual };

struct ResolverConfig {
  std::string name = "resolver";
  PolicyKind policy = PolicyKind::BindSrtt;
  AddressFamily family = AddressFamily::V4Only;
  SelectionConfig selection{};
  InfraCacheConfig infra{};
  RecordCacheConfig cache{};

  /// Per-transmission timeout bounds. With SRTT knowledge the base timeout
  /// is 3 x srtt; without it, initial_timeout. Consecutive timeouts
  /// against the same address double it (jitterless exponential backoff).
  /// Every path — SRTT, no-SRTT failover, the TCP retry — is clamped to
  /// [min_timeout, max_timeout]; max_timeout is a hard ceiling.
  net::Duration initial_timeout = net::Duration::millis(750);
  net::Duration min_timeout = net::Duration::millis(500);
  net::Duration max_timeout = net::Duration::seconds(2);

  /// Bounded work: a hard deadline on one client resolution. Whatever a
  /// fault schedule does to the servers, the job finishes (SERVFAIL) at
  /// this age. Far above the normal worst case — max_upstream_queries
  /// transmissions of max_timeout each — so it only fires as a safety net.
  net::Duration max_resolution_time = net::Duration::seconds(60);

  /// Upper bound on upstream transmissions for one client query. Referral
  /// depth plus CNAME chases has a fixed bound of 12.
  int max_upstream_queries = 16;

  /// NXNS defense (docs/ATTACKS.md), Unbound MAX_TARGET_COUNT-style: total
  /// glueless-NS address fetches one client resolution may spawn across
  /// its whole delegation walk (children included). 0 = unlimited.
  int max_fetches_per_resolution = 0;
  /// NXNS defense, BIND fetches-per-zone-style: upstream queries allowed
  /// to be outstanding against one zone at a time; at the cap further
  /// sends fail fast with SERVFAIL. 0 = unlimited.
  int fetches_per_zone = 0;

  bool use_edns = true;

  /// QNAME minimization (RFC 7816): expose only one more label to each
  /// zone's servers (NS queries for the next label) instead of the full
  /// query name. Off by default, like the resolvers of the paper's era.
  bool qname_minimization = false;

  /// Pipelined front door (ZDNS-style bulk resolution): client resolutions
  /// admitted in flight at once. Above the cap, new questions wait in a
  /// FIFO admission queue and are started as slots free up; duplicates of
  /// an in-flight or queued (qname, qtype) coalesce onto its waiter list
  /// and never consume a slot, and questions a live cached RRset can answer
  /// bypass admission entirely (they complete synchronously from cache).
  /// Internal NS-address fetches also bypass admission — gating them behind
  /// the very resolutions that spawned them would deadlock. Queue wait is
  /// excluded from ResolveOutcome::elapsed (the clock starts at admission).
  /// 0 = unlimited, no admission control (the default).
  int max_inflight_resolutions = 0;
  /// Admission-queue depth bound; at the cap new resolutions fail fast
  /// with SERVFAIL (resolver.admission.rejected). 0 = unbounded queue.
  /// Only meaningful with max_inflight_resolutions > 0.
  int max_queued_resolutions = 0;
};

/// Final result delivered to the caller of resolve().
struct ResolveOutcome {
  dns::Rcode rcode = dns::Rcode::ServFail;
  std::vector<dns::ResourceRecord> answers;
  /// Total wall-clock the resolution took.
  net::Duration elapsed = net::Duration::zero();
  /// Upstream queries this resolution caused (0 = pure cache hit).
  int upstream_queries = 0;
};

using ResolveCallback = std::function<void(const ResolveOutcome&)>;

class RecursiveResolver {
 public:
  RecursiveResolver(net::Network& network, net::NodeId node,
                    net::IpAddress address, ResolverConfig config,
                    std::vector<RootHint> hints, stats::Rng rng);
  ~RecursiveResolver();
  RecursiveResolver(const RecursiveResolver&) = delete;
  RecursiveResolver& operator=(const RecursiveResolver&) = delete;

  /// Starts serving: client port 53 and the upstream socket.
  void start();
  void stop();

  /// Resolves a question on behalf of a local caller (no client-side
  /// network hop). Identical path to network clients otherwise.
  void resolve(const dns::Question& q, ResolveCallback cb);

  // Fetch-limit counters (0 when the knobs are off).
  [[nodiscard]] std::uint64_t ns_fetches_spawned() const noexcept {
    return ns_fetches_spawned_;
  }

  /// Admitted client resolutions currently in flight (0 unless the
  /// pipelined front door is on; joins and internal fetches don't count).
  [[nodiscard]] std::size_t inflight_resolutions() const noexcept {
    return client_inflight_;
  }
  /// Client resolutions waiting in the admission queue.
  [[nodiscard]] std::size_t queued_resolutions() const noexcept {
    return admission_queue_.size();
  }

  [[nodiscard]] net::IpAddress address() const noexcept { return address_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }
  [[nodiscard]] PolicyKind policy() const noexcept { return config_.policy; }

  [[nodiscard]] InfraCache& infra() noexcept { return infra_; }
  [[nodiscard]] RecordCache& cache() noexcept { return cache_; }

  /// Simulates a restart / cache flush (cold-cache condition).
  void flush_caches();

  // Counters.
  [[nodiscard]] std::uint64_t client_queries() const noexcept {
    return client_queries_;
  }
  [[nodiscard]] std::uint64_t upstream_sent() const noexcept {
    return upstream_sent_;
  }
  [[nodiscard]] std::uint64_t upstream_timeouts() const noexcept {
    return upstream_timeouts_;
  }
  [[nodiscard]] std::uint64_t servfails() const noexcept {
    return servfails_;
  }
  [[nodiscard]] std::uint64_t tcp_retries() const noexcept {
    return tcp_retries_;
  }
  /// The interned-qname table is compacted down to the live transmissions'
  /// names when it holds at least this many names and more than four times
  /// as many as there are live transmissions. That keeps it within
  /// max(kQnameCompactMin, 4 x in flight + 4) names under cache-busting
  /// workloads where every query carries a fresh subdomain; compaction
  /// reuses the table's storage, so the low floor costs no allocations.
  static constexpr std::size_t kQnameCompactMin = 64;
  /// Distinct upstream qnames currently interned (see kQnameCompactMin).
  [[nodiscard]] std::size_t interned_qnames() const noexcept {
    return qnames_.size();
  }

 private:
  /// One resolution and its one upstream transmission, in a slot of jobs_.
  struct Job;
  /// Names a job by its slot in jobs_ and its generation, a count of the
  /// jobs this resolver started: a reference kept past the job's slot
  /// being freed (a deadline batch member, a parked parent) names nothing.
  struct JobRef {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
    friend bool operator==(JobRef, JobRef) noexcept = default;
  };

  /// A network client waiting for its reply, which is built in tx_ — a
  /// client needs no callback object, so it holds no capture on the heap.
  /// `question` is the client's own (its qname's case is echoed).
  struct ClientReply {
    dns::Question question;
    net::Endpoint client{};
    std::uint16_t id = 0;
    bool rd = false;
  };
  /// Who hears how a resolution ended: a resolve() caller through its
  /// callback, a network client, or a job parked on this NS-address fetch.
  using Waiter =
      std::variant<std::monostate, ResolveCallback, ClientReply, JobRef>;
  /// A resolution's waiters in arrival order: the first inline, later
  /// joins (coalesced duplicates) in a vector.
  class Waiters {
   public:
    void add(Waiter w) {
      if (std::holds_alternative<std::monostate>(first_)) {
        first_ = std::move(w);
      } else {
        more_.push_back(std::move(w));
      }
    }
    void add_all(Waiters&& o) {
      o.for_each([this](Waiter& w) { add(std::move(w)); });
    }
    template <class F>
    void for_each(F&& f) {
      if (std::holds_alternative<std::monostate>(first_)) return;
      f(first_);
      for (auto& w : more_) f(w);
    }

   private:
    Waiter first_;
    std::vector<Waiter> more_;
  };

  /// Counts a client query and hands it to the front door.
  void accept(const dns::Question& q, Waiter w);
  /// resolve() plus a shared NS-fetch budget carried into the new job, so
  /// glueless chains nested under an NXNS-style referral spend their
  /// parent's max_fetches_per_resolution allowance, not a fresh one.
  /// Takes the job's whole waiter list up front: an admission-queue entry
  /// drains with every coalesced waiter it accumulated, and a chain that
  /// completes synchronously (cache hit) must answer all of them.
  /// `admitted` marks a resolution holding an admission slot — finish()
  /// releases it and drains the queue.
  void resolve_internal(const dns::Question& q, Waiters waiters,
                        std::shared_ptr<std::uint32_t> fetch_budget,
                        bool admitted);
  /// The pipelined front door: join / cache-bypass / start / queue /
  /// reject, in that order (see ResolverConfig::max_inflight_resolutions).
  void admit(const dns::Question& q, Waiters waiters);
  /// Tells one waiter how its resolution ended.
  void notify(Waiter& w, const ResolveOutcome& outcome);
  /// Starts queued resolutions while slots are free (called from finish;
  /// reentrancy-guarded, so synchronous completions don't recurse).
  void drain_admission_queue();
  /// A free slot of jobs_ (a new one when none is free), and the job a
  /// live reference names (nullptr once it finished or its slot was freed).
  Job& new_job();
  Job* live_job(JobRef ref) noexcept;
  /// Frees the slot of a job that is done and whose transmission has ended.
  void free_job(Job& job);
  /// Registers `job` on the deadline batch expiring at started_at +
  /// max_resolution_time. Jobs starting at the same instant share one
  /// simulation event, so N pipelined chains don't multiply queue churn.
  void arm_deadline(Job& job);
  void fire_deadline_batch(std::int64_t key);
  /// Adds `n` to a counter registered on its first use (see
  /// obs_fetch_spawned_).
  void count_lazily(obs::Counter*& counter, std::string_view name,
                    std::uint64_t n = 1);

  void on_client_datagram(const net::Datagram& dgram);
  void on_upstream_datagram(const net::Datagram& dgram);
  /// Matches a decoded upstream response to its transmission and acts on
  /// it.
  void on_upstream_response(const net::Datagram& dgram,
                            const dns::Message& resp);

  /// Advances a job: cache checks, zone-cut discovery, upstream send.
  void step(Job& job);
  /// Finds the deepest zone cut with cached/known server addresses for
  /// `qname`. Fills `zone` and `servers`; falls back to root hints.
  void find_zone_cut(const dns::Name& qname, dns::Name& zone,
                     net::AddressList& servers);
  /// Sends `job`'s one transmission to `server`, which serves the job's
  /// current_zone; current_zone stays put until the transmission ends.
  void send_upstream(Job& job, net::IpAddress server, bool via_tcp = false);
  /// The per-transmission timeout for `server` right now: base (SRTT or
  /// initial), TCP handshake doubling, exponential backoff per consecutive
  /// timeout, then one final clamp to [min_timeout, max_timeout]. The
  /// single funnel for all timeout arithmetic.
  [[nodiscard]] net::Duration retransmit_timeout(net::IpAddress server,
                                                 net::SimTime now,
                                                 bool via_tcp);
  void on_upstream_timeout(JobRef ref);
  /// Rebuilds qnames_ and by_qname_ from the live transmissions. Keeps the
  /// intern table bounded under high-cardinality (random-subdomain)
  /// workloads where names never repeat.
  void compact_qnames();
  /// Interns `job`'s transmission qname and links it into by_qname_.
  void link_transmission(Job& job);
  /// Ends `job`'s transmission: unlinks it and drops the fetches_per_zone
  /// slot send_upstream took for it.
  void end_transmission(Job& job);
  struct Transmission;
  void handle_response(Job& job, const dns::Message& resp,
                       const Transmission& tx);
  void finish(Job& job, dns::Rcode rcode);
  void cache_message_records(const dns::Message& resp,
                             const dns::Name& server_zone);
  /// NXNS handling: when a referral into `child_zone` names only servers
  /// we hold no addresses for, spawns bounded side-resolutions for their
  /// A/AAAA records and parks the job until they land. Returns true when
  /// it took ownership of the job (spawned fetches or finished it).
  bool maybe_fetch_ns_addresses(Job& job, const dns::Name& child_zone,
                                const dns::Message& resp);
  /// Family-aware: does the cache hold a usable address for this NS host?
  [[nodiscard]] bool has_cached_address(const dns::Name& ns_name,
                                        net::SimTime now);

  net::Network& network_;
  net::NodeId node_;
  net::IpAddress address_;
  ResolverConfig config_;
  std::vector<RootHint> hints_;
  stats::Rng rng_;
  std::unique_ptr<ServerSelector> selector_;
  InfraCache infra_;
  RecordCache cache_;

  net::Endpoint client_ep_;
  net::Endpoint upstream_ep_;
  bool listening_ = false;

  /// The job table: every resolution lives in one slot, and nothing else
  /// owns it. A slot is freed when its job is done AND its transmission
  /// has ended — a transmission outlives its job when the deadline fires
  /// first, and its late reply or timeout still feeds infra_ and selector_.
  /// Slots never move (waiters re-enter resolve() while finish() holds a
  /// Job&), and an empty table allocates nothing. Up to kSpareJobs free
  /// slots keep their storage (spare_jobs_); past that a freed slot gives
  /// it back (free_jobs_), as stats::NodePool does, so a table that drains
  /// after a burst does not hold its peak.
  static constexpr std::size_t kSpareJobs = 16;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::uint32_t> spare_jobs_;
  std::vector<std::uint32_t> free_jobs_;
  std::uint32_t jobs_started_ = 0;
  /// Live transmissions (qname compaction is sized against them).
  std::size_t live_transmissions_ = 0;
  /// Live transmissions per target zone, maintained only while
  /// fetches_per_zone > 0 so default-config worlds pay nothing.
  struct ZoneHash {
    std::size_t operator()(const dns::Name& n) const noexcept {
      return n.hash();
    }
  };
  std::unordered_map<dns::Name, int, ZoneHash> zone_outstanding_;
  /// Interns every upstream qname once at send time; a response's qname is
  /// looked up once and matched against live ids (a miss means no query of
  /// ours ever asked that name — drop, like a failed scan would).
  dns::NameTable qnames_;
  /// Per qnames_ id, the first slot of an intrusive list (through
  /// Transmission::next) of the live transmissions carrying that qname.
  /// A response takes the first entry whose txid, server endpoint and
  /// qtype match.
  static constexpr std::uint32_t kNoJob = 0xffffffffu;
  std::vector<std::uint32_t> by_qname_;

  // Query coalescing: (qname,type) -> job waiting upstream. Lookups and
  // erases go through the borrowed PendingView so the per-query fast path
  // never copies a Name just to probe the map.
  struct PendingKey {
    dns::Name name;
    dns::RRType type;
  };
  struct PendingView {
    const dns::Name& name;
    dns::RRType type;
  };
  struct PendingKeyHash {
    using is_transparent = void;
    std::size_t operator()(const PendingKey& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) << 1);
    }
    std::size_t operator()(const PendingView& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) << 1);
    }
  };
  struct PendingKeyEq {
    using is_transparent = void;
    bool operator()(const PendingKey& a, const PendingKey& b) const {
      return a.type == b.type && a.name == b.name;
    }
    bool operator()(const PendingKey& a, const PendingView& b) const {
      return a.type == b.type && a.name == b.name;
    }
    bool operator()(const PendingView& a, const PendingKey& b) const {
      return b.type == a.type && b.name == a.name;
    }
  };
  /// Every unfinished job, by its question; finish() erases the entry.
  using InflightMap =
      std::unordered_map<PendingKey, JobRef, PendingKeyHash, PendingKeyEq>;
  InflightMap inflight_;
  stats::NodePool<InflightMap> inflight_nodes_;

  // Pipelined front door (max_inflight_resolutions > 0). The queue is a
  // deque so queued_ can hold stable pointers into it: push_back/pop_front
  // never move other elements. queued_ coalesces duplicates of a waiting
  // question onto its callback list instead of queueing it twice.
  struct QueuedResolution {
    dns::Question question;
    Waiters waiters;
  };
  std::deque<QueuedResolution> admission_queue_;
  std::unordered_map<PendingKey, QueuedResolution*, PendingKeyHash,
                     PendingKeyEq>
      queued_;
  /// Admitted client resolutions in flight (slots held).
  std::size_t client_inflight_ = 0;
  bool draining_ = false;

  /// Batched bounded-work deadlines: every job whose deadline lands on the
  /// same microsecond shares one simulation event, keyed by the absolute
  /// expiry time. `live` counts unfinished members; the last finish()
  /// cancels the event, so a batch of one schedules and cancels exactly
  /// like the per-job deadline it replaces. Members that finished early
  /// are skipped when the batch fires (see live_job).
  struct DeadlineBatch {
    net::EventId event = 0;
    std::vector<JobRef> jobs;
    int live = 0;
  };
  using DeadlineMap = std::unordered_map<std::int64_t, DeadlineBatch>;
  DeadlineMap deadline_batches_;
  stats::NodePool<DeadlineMap> deadline_nodes_;

  /// This node's receive and transmit messages: every datagram decodes
  /// into rx_ and every query or reply it sends is built in tx_, reusing
  /// their capacity. A decoded message is valid only until the handler
  /// that decoded it returns; nothing scheduled may capture either.
  dns::Message rx_;
  dns::Message tx_;

  std::uint64_t client_queries_ = 0;
  std::uint64_t upstream_sent_ = 0;
  std::uint64_t upstream_timeouts_ = 0;
  std::uint64_t servfails_ = 0;
  std::uint64_t tcp_retries_ = 0;
  std::uint64_t ns_fetches_spawned_ = 0;

  // Observability: cached handles into the simulation's MetricRegistry and
  // its DecisionTrace (see src/obs). Set once in the constructor.
  obs::DecisionTrace* trace_ = nullptr;
  obs::Counter* obs_client_queries_ = nullptr;
  obs::Counter* obs_upstream_sent_ = nullptr;
  obs::Counter* obs_upstream_timeouts_ = nullptr;
  obs::Counter* obs_servfails_ = nullptr;
  obs::Counter* obs_tcp_fallbacks_ = nullptr;
  obs::Counter* obs_failovers_ = nullptr;
  obs::Counter* obs_backoff_applied_ = nullptr;
  obs::Counter* obs_backoff_capped_ = nullptr;
  obs::Counter* obs_deadline_expired_ = nullptr;
  obs::Histogram* obs_rtt_hist_ = nullptr;
  obs::Histogram* obs_resolve_hist_ = nullptr;
  // Fetch-limit counters, resolved lazily on first use (the obs_formerr_
  // pattern): glueless referrals never occur in the committed fixture
  // worlds, and an eagerly registered always-zero counter would invalidate
  // their byte-identity snapshots.
  obs::Counter* obs_fetch_spawned_ = nullptr;
  obs::Counter* obs_fetch_resolution_capped_ = nullptr;
  obs::Counter* obs_fetch_zone_capped_ = nullptr;
  /// High-water mark of admitted in-flight client resolutions (gauge:
  /// point-in-time level, excluded from shard merges; eager registration
  /// is fixture-safe because committed snapshots are MergeSafe).
  obs::Gauge* obs_inflight_ = nullptr;
  // Pipelining counters, resolved lazily (the obs_formerr_ pattern):
  // admission is off in every committed fixture world, and coalescing is
  // workload-dependent — always-zero eager rows would invalidate fixtures.
  obs::Counter* obs_coalesced_ = nullptr;
  obs::Counter* obs_admission_queued_ = nullptr;
  obs::Counter* obs_admission_rejected_ = nullptr;
};

}  // namespace recwild::resolver
