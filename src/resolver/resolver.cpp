#include "resolver/resolver.hpp"

#include <algorithm>
#include <cassert>

#include "obs/names.hpp"

namespace recwild::resolver {

namespace {

constexpr net::Port kUpstreamPort = 10'053;

/// Records per section the reused receive message keeps room for between
/// upstream responses: a lone answer or SOA. A larger reply's storage
/// (a referral's NS set and glue) is released once it has been handled.
constexpr std::size_t kRetainedRecords = 1;

/// With SRTT knowledge, the base retransmission timeout is this many SRTTs.
constexpr double kRetransFactor = 3.0;
/// Upper bound on referral depth + CNAME chases of one resolution.
constexpr int kMaxIndirections = 12;

}  // namespace

/// One upstream query, live from send_upstream until its reply matches or
/// its timeout fires.
struct RecursiveResolver::Transmission {
  dns::Name qname;
  net::SimTime sent_at;
  net::EventId timeout_event = 0;
  net::IpAddress server;
  /// qname's id in qnames_ — response matching compares this 32-bit id
  /// instead of walking label vectors per transmission.
  dns::NameRef qname_ref;
  /// The next slot on this qname's by_qname_ list.
  std::uint32_t next = kNoJob;
  /// The destination port the query was sent to. Response matching
  /// requires the source endpoint — address AND port — to be the one we
  /// queried; accepting any port on the right address lets an off-path
  /// host that never saw the query inject from an unprivileged socket.
  net::Port server_port = net::kDnsPort;
  dns::RRType qtype{};
  std::uint16_t txid = 0;
  bool minimized = false;  // qname/qtype differ from the client question
  bool via_tcp = false;
};

struct RecursiveResolver::Job {
  /// This slot and its current generation.
  JobRef ref;
  dns::Question original;
  dns::Name current_name;
  /// QNAME minimization: minimum label count to expose next (grows past
  /// empty non-terminals, RFC 7816 §3).
  std::size_t min_labels = 0;
  std::vector<dns::ResourceRecord> chain;
  Waiters waiters;
  net::SimTime started_at;
  int upstream_count = 0;
  int indirections = 0;
  bool done = false;
  /// Holds an admission slot (pipelined front door); finish() releases it.
  bool admitted = false;
  /// The transmission below is in flight. It outlives the job (done) when
  /// the deadline fires first.
  bool tx_live = false;
  dns::Name current_zone;
  std::vector<net::IpAddress> failed_servers;
  /// Bounded-work safety net: key of the shared DeadlineBatch this job is
  /// registered on (absolute expiry, microseconds).
  std::int64_t deadline_key = 0;
  /// Glueless-NS address fetches this job is parked on; stepped again when
  /// the last one lands (see maybe_fetch_ns_addresses).
  int pending_fetches = 0;
  /// NXNS defense: fetch spend shared across the whole resolution tree —
  /// children inherit the pointer, so max_fetches_per_resolution bounds the
  /// walk end to end. Allocated lazily at the first glueless referral.
  std::shared_ptr<std::uint32_t> fetch_budget;
  /// The job's one upstream transmission, valid while tx_live.
  Transmission tx;
};

RecursiveResolver::RecursiveResolver(net::Network& network, net::NodeId node,
                                     net::IpAddress address,
                                     ResolverConfig config,
                                     std::vector<RootHint> hints,
                                     stats::Rng rng)
    : network_(network),
      node_(node),
      address_(address),
      config_(std::move(config)),
      hints_(std::move(hints)),
      rng_(rng),
      selector_(make_selector(config_.policy, config_.selection)),
      infra_(config_.infra),
      cache_(config_.cache),
      client_ep_{address, net::kDnsPort},
      upstream_ep_{address, kUpstreamPort} {
  obs::MetricRegistry& m = network_.sim().metrics();
  trace_ = &network_.sim().trace();
  obs_client_queries_ = &m.counter(obs::names::kResolverClientQueries);
  obs_upstream_sent_ = &m.counter(obs::names::kResolverUpstreamSent);
  obs_upstream_timeouts_ = &m.counter(obs::names::kResolverUpstreamTimeouts);
  obs_servfails_ = &m.counter(obs::names::kResolverServfails);
  obs_tcp_fallbacks_ = &m.counter(obs::names::kResolverTcpFallbacks);
  obs_failovers_ = &m.counter(obs::names::kResolverFailovers);
  obs_backoff_applied_ = &m.counter(obs::names::kResolverBackoffApplied);
  obs_backoff_capped_ = &m.counter(obs::names::kResolverBackoffCapped);
  obs_deadline_expired_ = &m.counter(obs::names::kResolverDeadlineExpired);
  // 10 ms bins to 1 s for upstream RTTs; 50 ms bins to 5 s end-to-end.
  obs_rtt_hist_ =
      &m.histogram(obs::names::kResolverUpstreamRttMs, 0.0, 1000.0, 100);
  obs_resolve_hist_ =
      &m.histogram(obs::names::kResolverResolveMs, 0.0, 5000.0, 100);
  obs_inflight_ = &m.gauge(obs::names::kResolverInflight);
  infra_.attach_metrics(m);
  cache_.attach_metrics(m);
  selector_->attach_obs(trace_, &m, config_.name);
}

RecursiveResolver::~RecursiveResolver() { stop(); }

void RecursiveResolver::start() {
  if (listening_) return;
  network_.listen(node_, client_ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_client_datagram(d);
                  });
  network_.listen(node_, upstream_ep_,
                  [this](const net::Datagram& d, net::NodeId) {
                    on_upstream_datagram(d);
                  });
  listening_ = true;
}

void RecursiveResolver::stop() {
  if (!listening_) return;
  network_.unlisten(node_, client_ep_);
  network_.unlisten(node_, upstream_ep_);
  listening_ = false;
}

void RecursiveResolver::flush_caches() {
  cache_.clear();
  infra_.clear();
  compact_qnames();
}

void RecursiveResolver::compact_qnames() {
  qnames_.clear();
  by_qname_.clear();
  for (const auto& job : jobs_) {
    if (job && job->tx_live) link_transmission(*job);
  }
}

void RecursiveResolver::link_transmission(Job& job) {
  Transmission& tx = job.tx;
  tx.qname_ref = qnames_.intern(tx.qname);
  if (by_qname_.size() <= tx.qname_ref.value) {
    by_qname_.resize(tx.qname_ref.value + 1, kNoJob);
  }
  tx.next = by_qname_[tx.qname_ref.value];
  by_qname_[tx.qname_ref.value] = job.ref.index;
}

void RecursiveResolver::end_transmission(Job& job) {
  std::uint32_t* link = &by_qname_[job.tx.qname_ref.value];
  while (*link != job.ref.index) link = &jobs_[*link]->tx.next;
  *link = job.tx.next;
  job.tx_live = false;
  --live_transmissions_;
  if (config_.fetches_per_zone > 0) {
    const auto it = zone_outstanding_.find(job.current_zone);
    if (it != zone_outstanding_.end() && --it->second <= 0) {
      zone_outstanding_.erase(it);
    }
  }
}

RecursiveResolver::Job& RecursiveResolver::new_job() {
  auto index = static_cast<std::uint32_t>(jobs_.size());
  if (!spare_jobs_.empty()) {
    index = spare_jobs_.back();
    spare_jobs_.pop_back();
  } else if (!free_jobs_.empty()) {
    index = free_jobs_.back();
    free_jobs_.pop_back();
    jobs_[index] = std::make_unique<Job>();
  } else {
    jobs_.push_back(std::make_unique<Job>());
  }
  // Generations start at 1: a spare slot's {0, 0} matches no reference.
  jobs_[index]->ref = JobRef{index, ++jobs_started_};
  return *jobs_[index];
}

RecursiveResolver::Job* RecursiveResolver::live_job(JobRef ref) noexcept {
  Job* job = jobs_[ref.index].get();
  return job != nullptr && job->ref == ref && !job->done ? job : nullptr;
}

void RecursiveResolver::free_job(Job& job) {
  assert(job.done && !job.tx_live);
  const std::uint32_t index = job.ref.index;
  if (spare_jobs_.size() < kSpareJobs) {
    job = Job{};
    spare_jobs_.push_back(index);
  } else {
    jobs_[index].reset();
    free_jobs_.push_back(index);
  }
}

void RecursiveResolver::resolve(const dns::Question& q, ResolveCallback cb) {
  accept(q, std::move(cb));
}

void RecursiveResolver::accept(const dns::Question& q, Waiter w) {
  obs_client_queries_->add(1, network_.sim().now());
  Waiters waiters;
  waiters.add(std::move(w));
  if (config_.max_inflight_resolutions <= 0) {
    resolve_internal(q, std::move(waiters), nullptr, /*admitted=*/false);
    return;
  }
  admit(q, std::move(waiters));
}

void RecursiveResolver::count_lazily(obs::Counter*& counter,
                                     std::string_view name,
                                     std::uint64_t n) {
  if (counter == nullptr) counter = &network_.sim().metrics().counter(name);
  counter->add(n, network_.sim().now());
}

void RecursiveResolver::admit(const dns::Question& q, Waiters waiters) {
  const net::SimTime now = network_.sim().now();
  // Duplicate of an in-flight chain: join its waiter list — one upstream
  // fetch tree answers everyone, and the join never consumes a slot.
  if (inflight_.find(PendingView{q.qname, q.qtype}) != inflight_.end()) {
    count_lazily(obs_coalesced_, obs::names::kResolverCoalesced);
    resolve_internal(q, std::move(waiters), nullptr, /*admitted=*/false);
    return;
  }
  // A live cached RRset answers synchronously: bypass admission (queueing
  // a pure cache hit behind upstream-bound work would be pointless).
  // peek() is metrics/LRU-neutral and uses the SAME expiry boundary as
  // get() (expires_at <= now is expired): a question arriving exactly at
  // expiry must take the admitted upstream path, never this bypass — a
  // disagreement would leak unadmitted upstream chains past the cap.
  if (cache_.peek(q.qname, q.qtype, now) != nullptr) {
    resolve_internal(q, std::move(waiters), nullptr, /*admitted=*/false);
    return;
  }
  if (client_inflight_ >=
      static_cast<std::size_t>(config_.max_inflight_resolutions)) {
    // Duplicate of a queued question: coalesce onto the queue entry.
    if (const auto it = queued_.find(PendingView{q.qname, q.qtype});
        it != queued_.end()) {
      count_lazily(obs_coalesced_, obs::names::kResolverCoalesced);
      it->second->waiters.add_all(std::move(waiters));
      return;
    }
    if (config_.max_queued_resolutions > 0 &&
        admission_queue_.size() >=
            static_cast<std::size_t>(config_.max_queued_resolutions)) {
      count_lazily(obs_admission_rejected_,
                   obs::names::kResolverAdmissionRejected);
      const ResolveOutcome outcome;  // SERVFAIL, zero elapsed/upstream
      waiters.for_each([&](Waiter& w) { notify(w, outcome); });
      return;
    }
    admission_queue_.push_back(QueuedResolution{q, std::move(waiters)});
    queued_.insert_or_assign(PendingKey{q.qname, q.qtype},
                             &admission_queue_.back());
    count_lazily(obs_admission_queued_, obs::names::kResolverAdmissionQueued);
    return;
  }
  ++client_inflight_;
  obs_inflight_->max_of(static_cast<double>(client_inflight_), now);
  resolve_internal(q, std::move(waiters), nullptr, /*admitted=*/true);
}

void RecursiveResolver::drain_admission_queue() {
  // Reentrancy guard: an admitted resolution that completes synchronously
  // (negative cache, dead delegation) finishes inside resolve_internal and
  // calls back into this function; the outer loop already owns the drain.
  if (draining_ || admission_queue_.empty()) return;
  draining_ = true;
  while (!admission_queue_.empty() &&
         client_inflight_ <
             static_cast<std::size_t>(config_.max_inflight_resolutions)) {
    QueuedResolution next = std::move(admission_queue_.front());
    queued_.erase(
        queued_.find(PendingView{next.question.qname, next.question.qtype}));
    admission_queue_.pop_front();
    // An identical chain may have started while this entry waited (internal
    // NS fetches bypass admission); joining it consumes no slot.
    const bool join =
        inflight_.find(PendingView{next.question.qname,
                                   next.question.qtype}) != inflight_.end();
    if (!join) {
      ++client_inflight_;
      obs_inflight_->max_of(static_cast<double>(client_inflight_),
                            network_.sim().now());
    }
    resolve_internal(next.question, std::move(next.waiters), nullptr,
                     /*admitted=*/!join);
  }
  draining_ = false;
}

void RecursiveResolver::arm_deadline(Job& job) {
  // Bounded work: no resolution outlives max_resolution_time, whatever a
  // fault schedule does to the servers. Jobs expiring on the same
  // microsecond share one simulation event (pipelined chains would
  // otherwise schedule N identical deadlines); the batch's last finish()
  // cancels it, so a batch of one costs exactly the per-job event it
  // replaces.
  const net::SimTime expiry =
      network_.sim().now() + config_.max_resolution_time;
  const std::int64_t key = expiry.count_micros();
  auto [it, created] = deadline_nodes_.try_emplace(deadline_batches_, key);
  DeadlineBatch& batch = it->second;
  if (created) {
    batch.event = network_.sim().at(
        expiry, [this, key] { fire_deadline_batch(key); });
  }
  job.deadline_key = key;
  batch.jobs.push_back(job.ref);
  ++batch.live;
}

void RecursiveResolver::fire_deadline_batch(std::int64_t key) {
  const auto it = deadline_batches_.find(key);
  if (it == deadline_batches_.end()) return;
  DeadlineBatch batch = std::move(it->second);
  deadline_nodes_.erase(deadline_batches_, it);
  for (const JobRef ref : batch.jobs) {
    Job* job = live_job(ref);
    if (job == nullptr) continue;  // finished before the deadline
    obs_deadline_expired_->add(1, network_.sim().now());
    finish(*job, dns::Rcode::ServFail);
  }
  // One cancel per batch, after the entry is gone (finish() skipped it):
  // the same schedule/cancel bookkeeping as a normally-finished batch.
  network_.sim().cancel(batch.event);
}

void RecursiveResolver::resolve_internal(
    const dns::Question& q, Waiters waiters,
    std::shared_ptr<std::uint32_t> fetch_budget, bool admitted) {
  // Coalesce identical in-flight questions.
  if (const auto it = inflight_.find(PendingView{q.qname, q.qtype});
      it != inflight_.end()) {
    jobs_[it->second.index]->waiters.add_all(std::move(waiters));
    return;
  }
  Job& job = new_job();
  job.original = q;
  job.current_name = q.qname;
  job.waiters = std::move(waiters);
  job.started_at = network_.sim().now();
  job.fetch_budget = std::move(fetch_budget);
  job.admitted = admitted;
  inflight_nodes_.try_emplace(inflight_, PendingKey{q.qname, q.qtype})
      .first->second = job.ref;
  arm_deadline(job);
  step(job);
}

void RecursiveResolver::on_client_datagram(const net::Datagram& dgram) {
  dns::Message& query = rx_;
  try {
    dns::decode_message(dgram.payload, query);
  } catch (const dns::WireError&) {
    return;
  }
  if (query.header.qr || query.questions.empty()) return;
  ++client_queries_;

  // CHAOS-class identity queries are answered locally by the recursive —
  // the very reason the paper could not use them to identify which
  // *authoritative* answered (§3.1).
  const dns::Question& q = query.question();
  if (q.qclass == dns::RRClass::CH) {
    dns::Message& resp = tx_;
    resp.reset_response(query);
    resp.header.ra = true;
    static const dns::Name kHostnameBind = dns::Name::parse("hostname.bind");
    static const dns::Name kIdServer = dns::Name::parse("id.server");
    if (q.qtype == dns::RRType::TXT &&
        (q.qname == kHostnameBind || q.qname == kIdServer)) {
      resp.answers.push_back(dns::ResourceRecord{
          q.qname, dns::RRClass::CH, 0, dns::TxtRdata{{config_.name}}});
    } else {
      resp.header.rcode = dns::Rcode::Refused;
    }
    network_.send(node_, client_ep_, dgram.src, dns::encode_message(resp));
    return;
  }

  accept(q, ClientReply{q, dgram.src, query.header.id, query.header.rd});
}

void RecursiveResolver::notify(Waiter& w, const ResolveOutcome& outcome) {
  if (auto* cb = std::get_if<ResolveCallback>(&w)) {
    (*cb)(outcome);
    return;
  }
  if (const auto* parent = std::get_if<JobRef>(&w)) {
    // One NS-address fetch of a parked job landed; the last one steps it.
    if (Job* job = live_job(*parent);
        job != nullptr && --job->pending_fetches == 0) {
      step(*job);
    }
    return;
  }
  const ClientReply& c = std::get<ClientReply>(w);
  dns::Message& resp = tx_;
  resp.reset_query(c.id, c.question.qname, c.question.qtype,
                   c.question.qclass);
  resp.header.qr = true;
  resp.header.rd = c.rd;
  resp.header.ra = true;
  resp.header.rcode = outcome.rcode;
  resp.answers = outcome.answers;
  network_.send(node_, client_ep_, c.client, dns::encode_message(resp));
}

void RecursiveResolver::find_zone_cut(const dns::Name& qname, dns::Name& zone,
                                      net::AddressList& servers) {
  const net::SimTime now = network_.sim().now();
  // Deepest cached NS set with at least one resolvable address wins.
  for (std::size_t depth = qname.label_count(); depth > 0; --depth) {
    const dns::Name candidate = qname.suffix(depth);
    const CacheHit ns_set = cache_.get(candidate, dns::RRType::NS, now);
    if (!ns_set) continue;
    servers.clear();
    for (const dns::RdataView ns : *ns_set.rrset) {
      const dns::Name ns_name = ns.target();
      if (config_.family != AddressFamily::V4Only) {
        if (const CacheHit aaaa =
                cache_.get(ns_name, dns::RRType::AAAA, now)) {
          for (const dns::RdataView ard : *aaaa.rrset) {
            if (auto addr = net::IpAddress::from_mapped_ipv6(ard.aaaa())) {
              servers.push_back(*addr);
            }
          }
        }
      }
      if (config_.family != AddressFamily::V6Only) {
        if (const CacheHit a = cache_.get(ns_name, dns::RRType::A, now)) {
          for (const dns::RdataView ard : *a.rrset) {
            servers.push_back(ard.a());
          }
        }
      }
    }
    if (!servers.empty()) {
      zone = candidate;
      return;
    }
  }
  // Fall back to the root hints.
  zone = dns::Name{};
  servers.clear();
  for (const auto& h : hints_) servers.push_back(h.address);
}

void RecursiveResolver::step(Job& job) {
  if (job.done) return;
  const net::SimTime now = network_.sim().now();

  // Cache walk: negative entries, direct answers, CNAME chases.
  for (;;) {
    if (auto neg = cache_.get_negative(job.current_name,
                                       job.original.qtype, now)) {
      if (trace_->enabled()) {
        trace_->record({now, obs::TraceKind::NegCacheHit, config_.name,
                        job.current_name.to_string(),
                        std::string{dns::to_string(job.original.qtype)},
                        0.0});
      }
      finish(job, *neg);
      return;
    }
    if (const CacheHit set =
            cache_.get(job.current_name, job.original.qtype, now)) {
      if (trace_->enabled()) {
        trace_->record({now, obs::TraceKind::CacheHit, config_.name,
                        job.current_name.to_string(),
                        std::string{dns::to_string(job.original.qtype)},
                        0.0});
      }
      set.append_records(job.chain);
      finish(job, dns::Rcode::NoError);
      return;
    }
    if (job.original.qtype != dns::RRType::CNAME) {
      if (const CacheHit cname = cache_.get(job.current_name,
                                            dns::RRType::CNAME, now)) {
        cname.append_records(job.chain);
        job.current_name = cname.rrset->front().target();
        job.min_labels = 0;  // restart minimization for the new target
        if (++job.indirections > kMaxIndirections) {
          finish(job, dns::Rcode::ServFail);
          return;
        }
        continue;
      }
    }
    break;
  }

  if (job.upstream_count >= config_.max_upstream_queries) {
    finish(job, dns::Rcode::ServFail);
    return;
  }

  dns::Name zone;
  net::AddressList servers;
  find_zone_cut(job.current_name, zone, servers);
  if (servers.empty()) {
    finish(job, dns::Rcode::ServFail);
    return;
  }
  if (!(zone == job.current_zone)) {
    job.failed_servers.clear();
    job.current_zone = zone;
  }
  // Avoid servers that already failed this round, when alternatives exist.
  // Forwarder-style policies instead retry the same server.
  net::AddressList candidates;
  if (selector_->prefers_retry_same()) {
    candidates = servers;
  } else {
    for (const auto& s : servers) {
      if (std::find(job.failed_servers.begin(), job.failed_servers.end(),
                    s) == job.failed_servers.end()) {
        candidates.push_back(s);
      }
    }
    if (candidates.empty()) {
      job.failed_servers.clear();  // second round: retry everyone
      candidates = servers;
    }
  }
  if (trace_->enabled()) {
    trace_->record({now, obs::TraceKind::CacheMiss, config_.name,
                    job.current_name.to_string(),
                    std::string{dns::to_string(job.original.qtype)}, 0.0});
  }
  // Hold-down (see InfraCache): servers that kept failing through repeated
  // probations are removed from selection; when one's probe timer is due,
  // this query is routed to it as the probe — which is how a recovered
  // server gets noticed before the hold-down lapses. Lowest address wins
  // so the choice is deterministic. When every candidate is held down and
  // no probe is due, selection proceeds over the full list (a resolver
  // must send somewhere; the selectors' own usable() filter agrees).
  net::IpAddress probe_target{};
  bool probe_due = false;
  {
    net::AddressList healthy;
    for (const auto& s : candidates) {
      const ServerStats* st = infra_.get(s, now);
      if (st == nullptr || !st->in_holddown(now)) {
        healthy.push_back(s);
      } else if (st->probe_due(now) && (!probe_due || s < probe_target)) {
        probe_target = s;
        probe_due = true;
      }
    }
    if (!healthy.empty()) candidates = std::move(healthy);
  }
  if (probe_due) infra_.note_probe(probe_target, now);
  const net::IpAddress server =
      probe_due ? probe_target
                : selector_->select(zone, candidates, infra_, now, rng_);
  if (trace_->enabled()) {
    const ServerStats* st = infra_.get(server, now);
    trace_->record({now, obs::TraceKind::SelectServer, config_.name,
                    server.to_string(), zone.to_string(),
                    st != nullptr ? st->srtt_ms : -1.0});
  }
  send_upstream(job, server);
}

void RecursiveResolver::send_upstream(Job& job, net::IpAddress server,
                                      bool via_tcp) {
  assert(!job.tx_live);  // a job has at most one transmission
  const net::SimTime now = network_.sim().now();
  const dns::Name& zone = job.current_zone;

  // fetches-per-zone defense: when the target zone already carries the
  // configured number of in-flight transmissions, fail fast instead of
  // piling on (what BIND's fetches-per-zone quota does under NXNS floods).
  if (config_.fetches_per_zone > 0) {
    int& in_flight = zone_outstanding_[zone];
    if (in_flight >= config_.fetches_per_zone) {
      count_lazily(obs_fetch_zone_capped_,
                   obs::names::kResolverFetchZoneCapped);
      finish(job, dns::Rcode::ServFail);
      return;
    }
    ++in_flight;
  }

  Transmission& tx = job.tx;
  tx.txid = static_cast<std::uint16_t>(rng_.next());

  // QNAME minimization: reveal only the next label to this zone's servers
  // and ask for the delegation (NS) instead of the real question.
  tx.qname = job.current_name;
  tx.qtype = job.original.qtype;
  tx.minimized = false;
  if (config_.qname_minimization &&
      zone.label_count() < job.current_name.label_count()) {
    const std::size_t depth =
        std::max(zone.label_count() + 1, job.min_labels);
    if (depth < job.current_name.label_count()) {
      tx.qname = job.current_name.suffix(depth);
      tx.qtype = dns::RRType::NS;
      tx.minimized = true;
    }
  }

  ++job.upstream_count;
  ++upstream_sent_;
  obs_upstream_sent_->add(1, now);

  // Adaptive retransmission timeout from the infra cache (one funnel for
  // all paths, clamped inside — see retransmit_timeout).
  const net::Duration timeout = retransmit_timeout(server, now, via_tcp);

  // Compaction is deterministic per resolver (a pure function of its own
  // table and live transmissions), and NameRef ids never leave the
  // resolver, so renumbering cannot perturb byte-identity.
  if (qnames_.size() >= kQnameCompactMin &&
      qnames_.size() / 4 > live_transmissions_) {
    compact_qnames();
  }
  tx.server = server;
  tx.via_tcp = via_tcp;
  tx.sent_at = now;
  const net::Endpoint dst{server, net::kDnsPort};
  tx.server_port = dst.port;
  tx.timeout_event = network_.sim().after(
      timeout, [this, ref = job.ref] { on_upstream_timeout(ref); });
  job.tx_live = true;
  ++live_transmissions_;
  link_transmission(job);

  tx_.reset_query(tx.txid, tx.qname, tx.qtype);
  if (config_.use_edns) tx_.edns = dns::EdnsInfo{};
  auto wire = dns::encode_message(tx_);
  if (via_tcp) {
    network_.send_stream(node_, upstream_ep_, dst, std::move(wire));
  } else {
    network_.send(node_, upstream_ep_, dst, std::move(wire));
  }
}

net::Duration RecursiveResolver::retransmit_timeout(net::IpAddress server,
                                                    net::SimTime now,
                                                    bool via_tcp) {
  // max_timeout is the authoritative hard ceiling; guard against a
  // misconfigured min above it (std::clamp requires lo <= hi).
  const net::Duration hi = config_.max_timeout;
  const net::Duration lo = std::min(config_.min_timeout, hi);
  net::Duration timeout = config_.initial_timeout;
  int streak = 0;
  if (const ServerStats* st = infra_.get(server, now)) {
    timeout = net::Duration::millis(st->srtt_ms * kRetransFactor);
    streak = st->consecutive_timeouts;
  }
  if (via_tcp) timeout += timeout;  // handshake costs an extra round trip
  if (streak > 0) {
    // Jitterless exponential backoff: each consecutive timeout against
    // this address doubles the next timeout, up to the ceiling.
    obs_backoff_applied_->add(1, now);
    for (int i = 0; i < streak && timeout < hi; ++i) timeout += timeout;
    if (timeout > hi) obs_backoff_capped_->add(1, now);
  }
  return std::clamp(timeout, lo, hi);
}

void RecursiveResolver::on_upstream_timeout(JobRef ref) {
  // A matched reply cancels this event: the transmission is still live.
  Job& job = *jobs_[ref.index];
  assert(job.ref == ref && job.tx_live);
  end_transmission(job);
  ++upstream_timeouts_;
  const net::SimTime now = network_.sim().now();
  obs_upstream_timeouts_->add(1, now);
  const net::IpAddress server = job.tx.server;
  if (trace_->enabled()) {
    trace_->record({now, obs::TraceKind::UpstreamTimeout, config_.name,
                    server.to_string(), job.current_zone.to_string(),
                    (now - job.tx.sent_at).ms()});
  }
  infra_.report_timeout(server, now);
  selector_->on_timeout(job.current_zone, server);
  if (job.done) {
    free_job(job);
    return;
  }
  job.failed_servers.push_back(server);
  step(job);
}

void RecursiveResolver::on_upstream_datagram(const net::Datagram& dgram) {
  try {
    dns::decode_message(dgram.payload, rx_);
  } catch (const dns::WireError&) {
    return;
  }
  on_upstream_response(dgram, rx_);
  // A referral carries an NS set and its glue. Keep room for a typical
  // reply only: otherwise each resolver of a population would hold the
  // largest reply it ever saw.
  rx_.trim(kRetainedRecords);
}

void RecursiveResolver::on_upstream_response(const net::Datagram& dgram,
                                             const dns::Message& resp) {
  if (!resp.header.qr || resp.questions.empty()) return;

  // Match a live transmission: id + server endpoint + question. The
  // source PORT is part of the key — a response from the right address but
  // the wrong port did not come from the socket we queried, so it is
  // off-path injection (or a confused middlebox) and must not be accepted.
  // The response qname is interned once (lookup-only); only the
  // transmissions on that id's list are compared, first match wins.
  const auto ref = qnames_.find(resp.question().qname);
  if (!ref) return;  // we never asked for this name: late or spoofed
  std::uint32_t index = by_qname_[ref->value];
  for (; index != kNoJob; index = jobs_[index]->tx.next) {
    const Transmission& tx = jobs_[index]->tx;
    if (tx.txid == resp.header.id && tx.server == dgram.src.addr &&
        tx.server_port == dgram.src.port &&
        tx.qtype == resp.question().qtype) {
      break;
    }
  }
  if (index == kNoJob) return;  // late or spoofed: ignore

  Job& job = *jobs_[index];
  end_transmission(job);
  network_.sim().cancel(job.tx.timeout_event);
  const Transmission tx = std::move(job.tx);

  const net::SimTime now = network_.sim().now();
  // TCP exchanges include handshake time; don't let them poison the
  // (UDP) SRTT estimate the selection policies rely on.
  if (!tx.via_tcp) {
    infra_.report_rtt(tx.server, now - tx.sent_at, now);
    obs_rtt_hist_->observe((now - tx.sent_at).ms(), now);
  }
  if (job.done) {
    free_job(job);
    return;
  }

  // Truncated over UDP: retry the same server over TCP (RFC 1035 §4.2.2).
  if (resp.header.tc && !tx.via_tcp) {
    ++tcp_retries_;
    obs_tcp_fallbacks_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::TcpFallback, config_.name,
                      tx.server.to_string(), job.current_zone.to_string(),
                      0.0});
    }
    if (job.upstream_count < config_.max_upstream_queries) {
      send_upstream(job, tx.server, /*via_tcp=*/true);
      return;
    }
  }
  handle_response(job, resp, tx);
}

void RecursiveResolver::cache_message_records(const dns::Message& resp,
                                              const dns::Name& server_zone) {
  const net::SimTime now = network_.sim().now();
  auto in_bailiwick = [&](const dns::Name& owner) {
    return owner.is_subdomain_of(server_zone);
  };
  dns::for_each_rrset(resp.answers, [&](dns::RRset&& set) {
    if (in_bailiwick(set.name)) cache_.put(std::move(set), now);
  });
  dns::for_each_rrset(resp.authorities, [&](dns::RRset&& set) {
    if ((set.type == dns::RRType::NS || set.type == dns::RRType::SOA) &&
        in_bailiwick(set.name)) {
      cache_.put(std::move(set), now);
    }
  });
  dns::for_each_rrset(resp.additionals, [&](dns::RRset&& set) {
    if ((set.type == dns::RRType::A || set.type == dns::RRType::AAAA) &&
        in_bailiwick(set.name)) {
      cache_.put(std::move(set), now);
    }
  });
}

void RecursiveResolver::handle_response(Job& job, const dns::Message& resp,
                                        const Transmission& tx) {
  const net::IpAddress server = tx.server;
  const net::SimTime now = network_.sim().now();
  // A lame, broken or useless answer: count it against the server and let
  // the next step pick another.
  const auto fail_over = [&](std::string_view why) {
    obs_failovers_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Failover, config_.name,
                      server.to_string(), std::string{why}, 0.0});
    }
    selector_->on_timeout(job.current_zone, server);
    job.failed_servers.push_back(server);
    step(job);
  };

  if (resp.header.rcode == dns::Rcode::ServFail ||
      resp.header.rcode == dns::Rcode::Refused ||
      resp.header.rcode == dns::Rcode::NotImp ||
      resp.header.rcode == dns::Rcode::FormErr) {
    fail_over(dns::to_string(resp.header.rcode));
    return;
  }

  if (resp.header.rcode == dns::Rcode::NxDomain) {
    dns::Ttl neg_ttl = 300;
    for (const auto& rr : resp.authorities) {
      if (rr.type() == dns::RRType::SOA) {
        neg_ttl = std::min(rr.ttl, rr.rdata().soa_minimum());
      }
    }
    cache_message_records(resp, job.current_zone);
    // NXDOMAIN on a minimized prefix means the full name cannot exist
    // either (RFC 8020).
    cache_.put_negative(tx.qname, tx.qtype, dns::Rcode::NxDomain,
                        neg_ttl, now);
    finish(job, dns::Rcode::NxDomain);
    return;
  }

  // NOERROR.
  if (!resp.answers.empty()) {
    cache_message_records(resp, job.current_zone);
    if (++job.indirections > kMaxIndirections) {
      finish(job, dns::Rcode::ServFail);
      return;
    }
    step(job);  // the cache walk picks up answers and chases CNAMEs
    return;
  }

  // Referral: NS records for a zone deeper than the one we queried.
  const dns::ResourceRecord* referral_ns = nullptr;
  for (const auto& rr : resp.authorities) {
    if (rr.type() == dns::RRType::NS) {
      referral_ns = &rr;
      break;
    }
  }
  if (referral_ns != nullptr) {
    const bool deeper =
        referral_ns->name.label_count() > job.current_zone.label_count() &&
        referral_ns->name.is_subdomain_of(job.current_zone) &&
        job.current_name.is_subdomain_of(referral_ns->name);
    if (deeper) {
      cache_message_records(resp, job.current_zone);
      if (++job.indirections > kMaxIndirections) {
        finish(job, dns::Rcode::ServFail);
        return;
      }
      // Glueless referral (the NXNS lever): no cached address for any of
      // the child zone's servers. Fetch them as bounded side-resolutions
      // instead of bouncing off the parent until max_indirections.
      if (maybe_fetch_ns_addresses(job, referral_ns->name, resp)) return;
      step(job);
      return;
    }
    fail_over("lame_referral");  // sideways/upwards referral
    return;
  }

  // NODATA: name exists, no records of this type.
  dns::Ttl neg_ttl = 300;
  bool saw_soa = false;
  for (const auto& rr : resp.authorities) {
    if (rr.type() == dns::RRType::SOA) {
      neg_ttl = std::min(rr.ttl, rr.rdata().soa_minimum());
      saw_soa = true;
    }
  }
  if (saw_soa || resp.header.aa) {
    cache_message_records(resp, job.current_zone);
    cache_.put_negative(tx.qname, tx.qtype, dns::Rcode::NoError, neg_ttl,
                        now);
    if (tx.minimized) {
      // The minimized prefix is an empty non-terminal: expose one more
      // label on the next round (RFC 7816 §3).
      job.min_labels = tx.qname.label_count() + 1;
      step(job);
      return;
    }
    finish(job, dns::Rcode::NoError);
    return;
  }
  // Empty, non-authoritative, no referral.
  fail_over("useless_answer");
}

bool RecursiveResolver::has_cached_address(const dns::Name& ns_name,
                                           net::SimTime now) {
  // Mirrors the family filter of find_zone_cut: an address only counts if
  // the zone-cut walk could actually use it. peek(), not get(): this is
  // fetch-limit bookkeeping, not a client lookup — it must not count
  // hits/misses or reorder the LRU.
  if (config_.family != AddressFamily::V4Only) {
    if (const auto* aaaa_set = cache_.peek(ns_name, dns::RRType::AAAA, now)) {
      for (const dns::RdataView rd : *aaaa_set) {
        if (net::IpAddress::from_mapped_ipv6(rd.aaaa())) {
          return true;
        }
      }
    }
  }
  if (config_.family != AddressFamily::V6Only) {
    if (cache_.peek(ns_name, dns::RRType::A, now) != nullptr) return true;
  }
  return false;
}

bool RecursiveResolver::maybe_fetch_ns_addresses(Job& job,
                                                  const dns::Name& child_zone,
                                                  const dns::Message& resp) {
  const net::SimTime now = network_.sim().now();
  const dns::RRType addr_type = config_.family == AddressFamily::V6Only
                                    ? dns::RRType::AAAA
                                    : dns::RRType::A;
  // Collect the referral's NS targets. Any cached address means the normal
  // zone-cut walk proceeds on its own — the glued case, i.e. every
  // committed fixture world; this function then changes nothing.
  bool saw_target = false;
  std::vector<dns::Name> targets;
  for (const auto& rr : resp.authorities) {
    if (rr.type() != dns::RRType::NS || !(rr.name == child_zone)) continue;
    saw_target = true;
    const dns::Name target = rr.rdata().target();
    if (has_cached_address(target, now)) return false;
    // A target below the cut can only be resolved by the very servers we
    // lack addresses for; fetching it would loop. Skip it (missing glue).
    if (target.is_subdomain_of(child_zone)) continue;
    targets.push_back(target);
  }
  if (!saw_target) return false;

  // Per-resolution budget (Unbound's MAX_TARGET_COUNT): the whole walk —
  // this job and every child fetch it spawned — shares one allowance.
  // Truncation runs BEFORE the negative-cache filter: the allowance buys
  // the first N servers of the NS RRset, not N fresh probes per query.
  // Filtering first would let every repeat query march further down the
  // attacker's target list, turning the cap into cap-per-query.
  if (config_.max_fetches_per_resolution > 0) {
    if (!job.fetch_budget) {
      job.fetch_budget = std::make_shared<std::uint32_t>(0);
    }
    const auto cap =
        static_cast<std::uint32_t>(config_.max_fetches_per_resolution);
    const std::uint32_t used = *job.fetch_budget;
    const std::size_t allowed = used >= cap ? 0 : cap - used;
    if (targets.size() > allowed) {
      count_lazily(obs_fetch_resolution_capped_,
                   obs::names::kResolverFetchResolutionCapped,
                   targets.size() - allowed);
      targets.resize(allowed);
    }
  }
  // Already known not to exist: spawning would return instantly with the
  // same negative entry — and re-spawning per query is exactly the
  // amplification the negative cache kills between attack waves. Budget is
  // only charged for fetches actually spawned.
  std::erase_if(targets, [&](const dns::Name& t) {
    return cache_.get_negative(t, addr_type, now).has_value();
  });
  if (targets.empty()) {
    // Every usable server of the child zone is refuted knowledge:
    // negative-cached, glueless-in-bailiwick, or beyond the fetch budget.
    // Dead delegation; fail fast.
    finish(job, dns::Rcode::ServFail);
    return true;
  }
  if (config_.max_fetches_per_resolution > 0) {
    *job.fetch_budget += static_cast<std::uint32_t>(targets.size());
  }

  // Pre-commit the full count before the first resolve_internal: a child
  // that completes synchronously (cached CNAME chain, instant SERVFAIL)
  // must not see pending_fetches hit zero while siblings are unspawned.
  job.pending_fetches += static_cast<int>(targets.size());
  for (const auto& target : targets) {
    ++ns_fetches_spawned_;
    count_lazily(obs_fetch_spawned_, obs::names::kResolverFetchSpawned);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::NsFetch, config_.name,
                      target.to_string(), child_zone.to_string(), 0.0});
    }
    Waiters waiters;
    waiters.add(job.ref);
    // Internal fetches bypass admission (admitted=false): gating them
    // behind the client resolutions that spawned them would deadlock.
    // The parent may finish inside the last call; nothing below uses it.
    resolve_internal(dns::Question{target, addr_type, dns::RRClass::IN},
                     std::move(waiters), job.fetch_budget,
                     /*admitted=*/false);
  }
  return true;
}

void RecursiveResolver::finish(Job& job, dns::Rcode rcode) {
  if (job.done) return;
  job.done = true;
  // Leave the deadline batch; the last member out cancels the event. A
  // fired batch already erased its entry (and cancels once itself).
  if (const auto it = deadline_batches_.find(job.deadline_key);
      it != deadline_batches_.end() && --it->second.live <= 0) {
    network_.sim().cancel(it->second.event);
    // The parked node keeps the member list's capacity for the next batch.
    deadline_nodes_.erase(deadline_batches_, it, [](DeadlineBatch& b) {
      b.event = 0;
      b.jobs.clear();
      b.live = 0;
    });
  }
  if (job.admitted) {
    job.admitted = false;
    --client_inflight_;
  }
  const net::SimTime now = network_.sim().now();
  if (rcode == dns::Rcode::ServFail) {
    ++servfails_;
    obs_servfails_->add(1, now);
    if (trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Servfail, config_.name,
                      job.original.qname.to_string(),
                      std::string{dns::to_string(job.original.qtype)},
                      0.0});
    }
  }
  obs_resolve_hist_->observe((now - job.started_at).ms(), now);
  ResolveOutcome outcome;
  outcome.rcode = rcode;
  outcome.answers = std::move(job.chain);  // a finished job needs no chain
  outcome.elapsed = network_.sim().now() - job.started_at;
  outcome.upstream_queries = job.upstream_count;
  const auto it =
      inflight_.find(PendingView{job.original.qname, job.original.qtype});
  assert(it != inflight_.end() && it->second == job.ref);
  inflight_nodes_.erase(inflight_, it);
  job.waiters.for_each([&](Waiter& w) { notify(w, outcome); });
  job.waiters = Waiters{};
  drain_admission_queue();
  // A transmission still in flight frees the slot when it ends.
  if (!job.tx_live) free_job(job);
}

}  // namespace recwild::resolver
