#include "experiment/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "attack/generator.hpp"
#include "experiment/sharding.hpp"
#include "obs/names.hpp"

namespace recwild::experiment {

namespace {

/// The attack traffic of world.config().attack for the bot VPs one shard
/// owns. Bots are the `bots` lowest-index VPs of each event — a global,
/// partition-independent set — and every attack qname is drawn from an RNG
/// forked per (event, bot, query), so the stream a bot fires is
/// byte-identical at any shard count.
///
/// Each bot's shots are a chain: the constructor reserves one event
/// sequence number per shot, in (event, bot, shot) order, and arms shot 0;
/// every shot arms the next under its reserved number and draws its qname
/// when it fires. The queue holds one pending shot per bot, yet every shot
/// keeps the (time, seq) key that scheduling them all up front gives it.
/// Must stay where it was built until the simulation has run.
class AttackTraffic {
 public:
  AttackTraffic(Testbed& world, const std::vector<std::size_t>& vp_indices)
      : world_(world) {
    const attack::AttackSchedule& schedule = world.config().attack;
    if (schedule.empty()) return;
    auto& sim = world.sim();
    auto& pop = world.population();
    victim_ = dns::Name::parse(schedule.zone().victim_domain);
    // Registered whenever the schedule is armed — in every shard replica,
    // bots owned or not — so all replicas carry an identical registry.
    injected_ = &sim.metrics().counter(obs::names::kAttackQueriesInjected);

    const stats::Rng attack_rng = sim.rng().fork("attack-campaign");
    for (std::size_t e = 0; e < schedule.events().size(); ++e) {
      const attack::AttackEvent& ev = schedule.events()[e];
      const stats::Rng event_rng = attack_rng.fork(e);
      for (const std::size_t v : vp_indices) {
        if (v >= static_cast<std::size_t>(ev.bots)) continue;
        client::VantagePoint* vp = pop.by_probe(v);
        const stats::Rng bot_rng = event_rng.fork(vp->probe_id);
        // Identity-keyed phase offset de-synchronises the bots.
        const net::Duration phase = net::Duration::millis(
            bot_rng.fork("phase").uniform(0.0, ev.interval.ms()));
        const net::SimTime first = ev.start + phase;
        std::uint64_t shots = 0;
        for (net::SimTime at = first; at < ev.end; at = at + ev.interval) {
          ++shots;
        }
        if (shots == 0) continue;
        bots_.push_back({vp, &ev, bot_rng, first, sim.reserve(shots)});
      }
    }
    for (Bot& bot : bots_) arm(&bot, 0, bot.first);
  }
  AttackTraffic(const AttackTraffic&) = delete;
  AttackTraffic& operator=(const AttackTraffic&) = delete;

 private:
  struct Bot {
    client::VantagePoint* vp;
    const attack::AttackEvent* ev;
    stats::Rng rng;
    net::SimTime first;
    std::uint64_t first_seq;
  };

  void arm(Bot* bot, std::uint64_t k, net::SimTime at) {
    world_.sim().at_reserved(at, bot->first_seq + k,
                             [this, bot, k] { fire(bot, k); });
  }

  void fire(Bot* bot, std::uint64_t k) {
    const net::SimTime now = world_.sim().now();
    const net::SimTime next = now + bot->ev->interval;
    if (next < bot->ev->end) arm(bot, k + 1, next);
    injected_->add(1, now);
    stats::Rng query_rng = bot->rng.fork(k);
    const dns::Name qname =
        bot->ev->kind == attack::AttackKind::Nxns
            ? attack::nxns_query_name(world_.config().attack.zone(),
                                      query_rng)
            : attack::water_torture_query_name(victim_, query_rng);
    // Fire-and-forget: a bot never cares about the answer.
    bot->vp->stub->query(qname, dns::RRType::A,
                         [](const client::StubResult&) {});
  }

  Testbed& world_;
  dns::Name victim_;
  obs::Counter* injected_ = nullptr;
  /// Filled before any shot is armed; shots point into it.
  std::vector<Bot> bots_;
};

/// The campaign probes of one shard. Each VP gets a block of
/// queries_per_vp reserved event sequence numbers, in VP-major order, and
/// only its next probe is pending: probe k arms probe k+1 when it fires.
/// Every probe thus fires under the (time, seq) key that scheduling all of
/// them up front gives it — the pop order, ties included, is unchanged —
/// while the queue holds one probe per VP instead of queries_per_vp.
/// Must stay where it was built until the simulation has run.
class CampaignProbes {
 public:
  struct VpState {
    client::VantagePoint* vp = nullptr;
    net::Duration phase;
    /// Reserved sequence number of probe 0; probe k fires under first_seq+k.
    std::uint64_t first_seq = 0;
    std::vector<int> sequence;
    /// (recursive address, queries served) pairs. VPs use 1-2 recursives;
    /// a flat vector beats the hash map it replaced on both memory and
    /// lookup time, and — unlike the map — iterates deterministically.
    std::vector<std::pair<net::IpAddress, std::size_t>> recursive_use;
  };

  CampaignProbes(Testbed& world, const CampaignConfig& config,
                 const std::vector<std::size_t>& vp_indices)
      : world_(world),
        domain_(world.test_domain()),
        interval_(config.interval),
        queries_per_vp_(config.queries_per_vp),
        // Rank-indexed (position in vp_indices), NOT probe-indexed: a
        // partition-scoped shard must not pay memory for the whole fleet.
        states_(vp_indices.size()) {
    auto& sim = world.sim();
    obs::MetricRegistry& m = sim.metrics();
    q_sent_ = &m.counter(obs::names::kCampaignQueriesSent);
    q_answered_ = &m.counter(obs::names::kCampaignQueriesAnswered);
    q_unanswered_ = &m.counter(obs::names::kCampaignQueriesUnanswered);
    // Stamped at the origin: every shard schedules before any event runs.
    m.counter(obs::names::kCampaignVps)
        .add(vp_indices.size(), net::SimTime::origin());
    trace_ = &sim.trace();

    const stats::Rng campaign_rng = sim.rng().fork("campaign");
    for (std::size_t r = 0; r < vp_indices.size(); ++r) {
      VpState& st = states_[r];
      st.vp = world.population().by_probe(vp_indices[r]);
      if (st.vp == nullptr) {
        throw std::logic_error{
            "run_campaign_shard: VP not materialized on this world"};
      }
      stats::Rng vp_rng = campaign_rng.fork(st.vp->probe_id);
      st.phase = config.phase_jitter
                     ? net::Duration::millis(
                           vp_rng.uniform(0.0, config.interval.ms()))
                     : net::Duration::zero();
      st.first_seq = sim.reserve(queries_per_vp_);
      if (queries_per_vp_ > 0) arm(&st, 0);
    }
  }
  CampaignProbes(const CampaignProbes&) = delete;
  CampaignProbes& operator=(const CampaignProbes&) = delete;

  /// Per-VP results, rank-indexed; read them once the simulation has run.
  [[nodiscard]] std::vector<VpState>& states() noexcept { return states_; }

 private:
  void arm(VpState* st, std::size_t k) {
    const net::SimTime at =
        net::SimTime::origin() + st->phase + interval_ * double(k);
    world_.sim().at_reserved(at, st->first_seq + k,
                             [this, st, k] { fire(st, k); });
  }

  void fire(VpState* st, std::size_t k) {
    if (k + 1 < queries_per_vp_) arm(st, k + 1);
    q_sent_->add(1, world_.sim().now());
    const dns::Name qname = domain_.prefixed(
        "q" + std::to_string(st->vp->probe_id) + "x" + std::to_string(k));
    st->vp->stub->query(qname, dns::RRType::TXT,
                        [this, st](const client::StubResult& r) {
                          on_answer(st, r);
                        });
  }

  void on_answer(VpState* st, const client::StubResult& r) {
    const net::SimTime now = world_.sim().now();
    int idx = -1;
    if (!r.timed_out && !r.txt.empty()) {
      idx = world_.test_index_of(r.txt.front());
    }
    if (idx >= 0) {
      q_answered_->add(1, now);
    } else {
      q_unanswered_->add(1, now);
    }
    st->sequence.push_back(idx);
    const auto& recursives = st->vp->stub->recursives();
    if (r.recursive_index < recursives.size()) {
      const net::IpAddress raddr = recursives[r.recursive_index];
      auto it = std::find_if(
          st->recursive_use.begin(), st->recursive_use.end(),
          [raddr](const auto& p) { return p.first == raddr; });
      if (it == st->recursive_use.end()) {
        st->recursive_use.emplace_back(raddr, 1);
      } else {
        ++it->second;
      }
    }
    // Per-VP progress (never per-shard: the trace must not know how the
    // schedule was partitioned).
    if (st->sequence.size() == queries_per_vp_ && trace_->enabled()) {
      trace_->record({now, obs::TraceKind::Progress, "campaign",
                      "probe" + std::to_string(st->vp->probe_id), "done",
                      static_cast<double>(queries_per_vp_)});
    }
  }

  Testbed& world_;
  const dns::Name& domain_;
  net::Duration interval_;
  std::size_t queries_per_vp_;
  obs::Counter* q_sent_ = nullptr;
  obs::Counter* q_answered_ = nullptr;
  obs::Counter* q_unanswered_ = nullptr;
  obs::DecisionTrace* trace_ = nullptr;
  std::vector<VpState> states_;
};

/// Schedules the campaign queries of the VPs in `vp_indices` (ascending) on
/// `world`, runs its simulation to completion, and returns one observation
/// per scheduled VP, in `vp_indices` order. `world` may be a
/// partition-scoped replica, as long as it materializes every VP listed.
///
/// All randomness is keyed per VP (phase jitter forks on the probe id), so
/// the observations a VP produces depend only on the seed and on the VPs it
/// shares a recursive with — never on how the schedule was sharded.
std::vector<VpObservation> run_campaign_shard(
    Testbed& world, const CampaignConfig& config,
    const std::vector<std::size_t>& vp_indices) {
  auto& network = world.network();
  const auto& services = world.test_services();

  CampaignProbes probes{world, config, vp_indices};
  // Reserves after the probes, so attack shots number after them exactly
  // as when both were scheduled up front.
  AttackTraffic attack{world, vp_indices};

  world.sim().run();

  auto& states = probes.states();
  std::vector<VpObservation> observations;
  observations.reserve(vp_indices.size());
  for (std::size_t r = 0; r < vp_indices.size(); ++r) {
    const client::VantagePoint* vp = states[r].vp;
    VpObservation obs;
    obs.probe_id = vp->probe_id;
    obs.continent = vp->continent;
    obs.sequence = std::move(states[r].sequence);

    // Primary recursive: the one that served the most queries. Equal counts
    // break by lowest address, a total order, so the choice never depends
    // on the pairs' insertion order.
    net::IpAddress primary{};
    std::size_t best = 0;
    for (const auto& [addr, n] : states[r].recursive_use) {
      if (n > best || (n == best && n > 0 && addr < primary)) {
        best = n;
        primary = addr;
      }
    }
    obs.recursive_addr = primary;

    const net::NodeId rnode = world.recursive_node(primary);
    obs.rtt_ms.resize(services.size(), 0.0);
    if (rnode != net::kInvalidNode) {
      for (std::size_t s = 0; s < services.size(); ++s) {
        obs.rtt_ms[s] =
            network.base_rtt_to(rnode, services[s].address()).ms();
      }
    }
    observations.push_back(std::move(obs));
  }
  return observations;
}

/// Estimated query volume per VP group (WorldSnapshot::vp_groups) under
/// `config`: campaign probes plus the attack-bot traffic of `schedule`
/// (bots are the lowest-index VPs, so attack-heavy groups weigh more).
/// The shard packer balances on this rather than on raw VP counts.
std::vector<double> campaign_group_weights(
    const std::vector<std::vector<std::size_t>>& groups,
    const CampaignConfig& config, const attack::AttackSchedule& schedule) {
  std::vector<double> weights(groups.size(), 0.0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    double w = static_cast<double>(groups[g].size()) *
               static_cast<double>(config.queries_per_vp);
    for (const attack::AttackEvent& ev : schedule.events()) {
      // Shots per bot, ignoring the sub-interval phase offset: the exact
      // count per bot is phase-dependent but within ±1 of this.
      const double shots =
          std::floor((ev.end - ev.start).ms() / ev.interval.ms()) + 1.0;
      for (const std::size_t v : groups[g]) {
        if (v < static_cast<std::size_t>(ev.bots)) w += shots;
      }
    }
    weights[g] = w;
  }
  return weights;
}

}  // namespace

CampaignResult run_campaign(Testbed& testbed, const CampaignConfig& config) {
  CampaignResult result;
  for (const auto& svc : testbed.test_services()) {
    result.service_codes.push_back(svc.name());
  }

  // Part 0 runs on the caller's testbed (keeping its logs and caches
  // useful to callers); the rest materialize partition-scoped replicas of
  // the caller's world: services and zones shared, only their own VPs'
  // client state instantiated.
  auto per_shard = run_sharded(
      testbed, config.shards, vp_items(testbed), ReplicaScope::Partition,
      config.run_stats,
      [&](std::size_t shards) {
        const auto& groups = testbed.world()->vp_groups;
        return pack_groups(
            groups,
            campaign_group_weights(groups, config, testbed.config().attack),
            shards);
      },
      no_replica_state,
      [&config](Testbed& world, const std::vector<std::size_t>& part, auto*) {
        return run_campaign_shard(world, config, part);
      });

  // Fold back in probe order: output is independent of the partition.
  result.vps = std::move(per_shard[0]);
  for (std::size_t i = 1; i < per_shard.size(); ++i) {
    std::move(per_shard[i].begin(), per_shard[i].end(),
              std::back_inserter(result.vps));
  }
  std::sort(result.vps.begin(), result.vps.end(),
            [](const VpObservation& a, const VpObservation& b) {
              return a.probe_id < b.probe_id;
            });
  result.metrics = testbed.sim().metrics().snapshot();
  return result;
}

}  // namespace recwild::experiment
