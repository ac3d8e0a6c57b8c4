// The pipelined resolver front door (ResolverConfig::max_inflight_resolutions):
//  * admission-queue overflow rejects with an immediate SERVFAIL and never
//    touches the network;
//  * duplicate in-flight qname/qtype chains coalesce onto ONE upstream
//    fetch tree, and every waiter is answered;
//  * the bounded-work deadline cancels every coalesced waiter, not just
//    the first;
//  * max_fetches_per_resolution budgets the logical resolution — waiters
//    joining the chain do not buy extra fetches;
//  * an attacked campaign with pipelined resolvers stays byte-identical
//    across shard counts 1/2/4 (the engine's determinism contract).
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/schedule.hpp"
#include "authns/server.hpp"
#include "experiment/campaign.hpp"
#include "experiment/testbed.hpp"
#include "obs/names.hpp"
#include "resolver/resolver.hpp"

namespace recwild::resolver {
namespace {

// Mini-Internet with full glue: root -> nl -> test.nl, one authoritative
// serving a wildcard TXT ("A1"). Kept local so pipeline knobs can differ
// per test without touching the shared resolver_test harness.
struct PipeWorld {
  net::Simulation sim{4242};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<authns::AuthServer> root;
  std::unique_ptr<authns::AuthServer> tld;
  std::unique_ptr<authns::AuthServer> auth;
  net::IpAddress root_addr, tld_addr, auth_addr;
  std::unique_ptr<RecursiveResolver> resolver;

  explicit PipeWorld(ResolverConfig rcfg = {}, double loss = 0.0) {
    params.loss_rate = loss;
    net_ = std::make_unique<net::Network>(sim, params);
    const auto loc = [](const char* code) {
      return net::find_location(code)->point;
    };
    root_addr = net_->allocate_address();
    tld_addr = net_->allocate_address();
    auth_addr = net_->allocate_address();

    authns::Zone root_zone{dns::Name{}};
    dns::SoaRdata soa;
    soa.minimum = 60;
    root_zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
    root_zone.add({dns::Name{}, dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
    root_zone.add({dns::Name::parse("a.root-servers.net"), dns::RRClass::IN,
                   86400, dns::ARdata{root_addr}});
    root_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
    root_zone.add({dns::Name::parse("ns1.dns.nl"), dns::RRClass::IN, 86400,
                   dns::ARdata{tld_addr}});

    authns::Zone nl_zone{dns::Name::parse("nl")};
    nl_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400, soa});
    nl_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400,
                 dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
    nl_zone.add({dns::Name::parse("ns1.dns.nl"), dns::RRClass::IN, 86400,
                 dns::ARdata{tld_addr}});
    nl_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
                 dns::NsRdata{dns::Name::parse("ns1.test.nl")}});
    nl_zone.add({dns::Name::parse("ns1.test.nl"), dns::RRClass::IN, 86400,
                 dns::ARdata{auth_addr}});

    authns::Zone test_zone{dns::Name::parse("test.nl")};
    dns::SoaRdata s;
    s.minimum = 30;
    test_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400, s});
    test_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("ns1.test.nl")}});
    test_zone.add({dns::Name::parse("ns1.test.nl"), dns::RRClass::IN, 86400,
                   dns::ARdata{auth_addr}});
    test_zone.add({dns::Name::parse("*.test.nl"), dns::RRClass::IN, 5,
                   dns::TxtRdata{{"A1"}}});

    auto server = [&](const char* name, const char* city,
                      net::IpAddress addr) {
      const net::NodeId node = net_->add_node(name, loc(city));
      authns::AuthServerConfig cfg;
      cfg.identity = name;
      return std::make_unique<authns::AuthServer>(
          *net_, node, net::Endpoint{addr, net::kDnsPort}, cfg);
    };
    root = server("root", "IAD", root_addr);
    root->add_zone(std::move(root_zone));
    root->start();
    tld = server("nl-tld", "AMS", tld_addr);
    tld->add_zone(std::move(nl_zone));
    tld->start();
    auth = server("auth", "FRA", auth_addr);
    auth->add_zone(std::move(test_zone));
    auth->start();

    const net::NodeId rnode = net_->add_node("recursive", loc("AMS"));
    rcfg.name = "pipe-recursive";
    resolver = std::make_unique<RecursiveResolver>(
        *net_, rnode, net_->allocate_address(), rcfg,
        std::vector<RootHint>{
            {dns::Name::parse("a.root-servers.net"), root_addr}},
        stats::Rng{555});
    resolver->start();
  }

  void issue(const char* name, std::vector<ResolveOutcome>& sink) {
    resolver->resolve(
        dns::Question{dns::Name::parse(name), dns::RRType::TXT,
                      dns::RRClass::IN},
        [&sink](const ResolveOutcome& o) { sink.push_back(o); });
  }

  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return sim.metrics().snapshot().counter_value(name);
  }
};

ResolverConfig pipelined(int inflight, int queue = 0) {
  ResolverConfig cfg;
  cfg.max_inflight_resolutions = inflight;
  cfg.max_queued_resolutions = queue;
  return cfg;
}

TEST(ResolverPipeline, AdmissionQueueOverflowRejectsImmediately) {
  PipeWorld world{pipelined(/*inflight=*/1, /*queue=*/1)};
  std::vector<ResolveOutcome> first, second, third;
  world.issue("a.test.nl", first);   // admitted
  world.issue("b.test.nl", second);  // queued
  world.issue("c.test.nl", third);   // queue full -> rejected now

  // Rejection is synchronous, before any simulated time passes, and does
  // not touch the network.
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].rcode, dns::Rcode::ServFail);
  EXPECT_EQ(third[0].upstream_queries, 0);
  EXPECT_EQ(world.resolver->inflight_resolutions(), 1u);
  EXPECT_EQ(world.resolver->queued_resolutions(), 1u);

  world.sim.run();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].rcode, dns::Rcode::NoError);
  EXPECT_EQ(second[0].rcode, dns::Rcode::NoError);
  EXPECT_EQ(world.resolver->inflight_resolutions(), 0u);
  EXPECT_EQ(world.resolver->queued_resolutions(), 0u);
  EXPECT_EQ(world.counter(obs::names::kResolverAdmissionQueued), 1u);
  EXPECT_EQ(world.counter(obs::names::kResolverAdmissionRejected), 1u);
}

TEST(ResolverPipeline, DuplicateQnamesCoalesceOntoOneFetchTree) {
  PipeWorld world{pipelined(/*inflight=*/8)};
  std::vector<ResolveOutcome> outcomes;
  for (int i = 0; i < 4; ++i) world.issue("same.test.nl", outcomes);
  world.sim.run();

  // Every waiter answered, all from the single upstream chain.
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.rcode, dns::Rcode::NoError);
    ASSERT_FALSE(o.answers.empty());
    EXPECT_EQ(*o.answers[0].rdata().txt().begin(),
              "A1");
  }
  EXPECT_EQ(world.root->queries_received(), 1u);
  EXPECT_EQ(world.tld->queries_received(), 1u);
  EXPECT_EQ(world.auth->queries_received(), 1u);
  EXPECT_EQ(world.counter(obs::names::kResolverCoalesced), 3u);
  // Joining waiters consume no admission slots: one logical resolution.
  EXPECT_EQ(world.counter(obs::names::kResolverAdmissionQueued), 0u);
}

TEST(ResolverPipeline, QueuedDuplicatesJoinTheQueuedEntry) {
  PipeWorld world{pipelined(/*inflight=*/1, /*queue=*/4)};
  std::vector<ResolveOutcome> head, dup;
  world.issue("head.test.nl", head);
  world.issue("dup.test.nl", dup);
  world.issue("dup.test.nl", dup);  // joins the queued entry, not a new one
  EXPECT_EQ(world.resolver->queued_resolutions(), 1u);
  world.sim.run();
  ASSERT_EQ(head.size(), 1u);
  ASSERT_EQ(dup.size(), 2u);
  EXPECT_EQ(dup[0].rcode, dns::Rcode::NoError);
  EXPECT_EQ(dup[1].rcode, dns::Rcode::NoError);
  EXPECT_EQ(world.counter(obs::names::kResolverCoalesced), 1u);
  EXPECT_EQ(world.counter(obs::names::kResolverAdmissionQueued), 1u);
}

TEST(ResolverPipeline, DeadlineCancelsEveryCoalescedWaiter) {
  // 100% loss: no resolution can ever complete; the bounded-work deadline
  // must fail the job — and with it, every waiter that joined the chain.
  ResolverConfig cfg = pipelined(/*inflight=*/8);
  cfg.max_resolution_time = net::Duration::seconds(2);
  PipeWorld world{cfg, /*loss=*/1.0};
  std::vector<ResolveOutcome> outcomes;
  for (int i = 0; i < 3; ++i) world.issue("dead.test.nl", outcomes);
  world.sim.run();

  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.rcode, dns::Rcode::ServFail);
    EXPECT_EQ(o.elapsed, net::Duration::seconds(2));
  }
  // One logical resolution expired, and its admission slot was released.
  EXPECT_EQ(world.counter(obs::names::kResolverDeadlineExpired), 1u);
  EXPECT_EQ(world.resolver->inflight_resolutions(), 0u);
  EXPECT_EQ(world.counter(obs::names::kResolverCoalesced), 2u);
}

TEST(ResolverPipeline, CacheHitBypassesAdmission) {
  PipeWorld world{pipelined(/*inflight=*/1, /*queue=*/0)};
  std::vector<ResolveOutcome> warm, a, b, c;
  world.issue("warm.test.nl", warm);
  world.sim.run();
  ASSERT_EQ(warm.size(), 1u);

  // The cached answer (TTL 5) completes synchronously without a slot even
  // while the only slot is held by a cold resolution — so a burst of
  // repeats is never rejected.
  world.issue("cold.test.nl", a);  // takes the slot
  world.issue("warm.test.nl", b);
  world.issue("warm.test.nl", c);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(b[0].upstream_queries, 0);
  EXPECT_EQ(world.counter(obs::names::kResolverAdmissionRejected), 0u);
  world.sim.run();
  ASSERT_EQ(a.size(), 1u);
}

TEST(ResolverPipeline, WaiterAtExactRecordExpiryGoesUpstream) {
  // Regression for the peek/get TTL boundary: RecordCache treats
  // expires_at <= now as expired in BOTH peek (the admission bypass probe)
  // and get (the resolution path). A waiter arriving exactly at expiry
  // must take the admitted upstream path — if peek said "live" while get
  // said "expired", the resolution would run upstream without ever having
  // been admitted, leaking past the inflight cap.
  PipeWorld world{pipelined(/*inflight=*/4)};
  std::vector<ResolveOutcome> warm;
  world.issue("edge.test.nl", warm);
  world.sim.run();
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_EQ(warm[0].rcode, dns::Rcode::NoError);

  // The wildcard TXT has TTL 5s and was inserted when the first answer
  // arrived (elapsed after origin); jump to the exact expiry instant.
  const net::SimTime expiry =
      net::SimTime::origin() + warm[0].elapsed + net::Duration::seconds(5);
  ASSERT_LE(world.sim.now(), expiry);
  world.sim.run_until(expiry);
  const dns::Name qname = dns::Name::parse("edge.test.nl");
  EXPECT_EQ(world.resolver->cache().peek(qname, dns::RRType::TXT,
                                         world.sim.now()),
            nullptr)
      << "peek must treat expires_at == now as expired";

  std::vector<ResolveOutcome> edge;
  world.issue("edge.test.nl", edge);
  EXPECT_EQ(world.resolver->inflight_resolutions(), 1u)
      << "expiry-instant waiter must be admitted, not cache-bypassed";
  world.sim.run();
  ASSERT_EQ(edge.size(), 1u);
  EXPECT_EQ(edge[0].rcode, dns::Rcode::NoError);
  EXPECT_GT(edge[0].upstream_queries, 0);
  EXPECT_EQ(world.resolver->inflight_resolutions(), 0u);
}

// Glueless variant: test.nl delegates to four nameservers under farm.
// (out-of-bailiwick, no glue anywhere), and the root server is also
// authoritative for farm. — resolving any ns*.farm costs one root query.
// With `silent_farm` the root instead delegates farm. to an address no
// server listens on, so every NS-address fetch goes unanswered, and nl.
// also delegates other.nl to ns5.farm.
struct GluelessWorld {
  net::Simulation sim{4243};
  net::LatencyParams params;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<authns::AuthServer> root;
  std::unique_ptr<authns::AuthServer> tld;
  std::unique_ptr<authns::AuthServer> auth;
  net::IpAddress root_addr, tld_addr, auth_addr;
  std::unique_ptr<RecursiveResolver> resolver;

  explicit GluelessWorld(ResolverConfig rcfg, bool silent_farm = false) {
    params.loss_rate = 0.0;
    net_ = std::make_unique<net::Network>(sim, params);
    const auto loc = [](const char* code) {
      return net::find_location(code)->point;
    };
    root_addr = net_->allocate_address();
    tld_addr = net_->allocate_address();
    auth_addr = net_->allocate_address();

    authns::Zone root_zone{dns::Name{}};
    dns::SoaRdata soa;
    soa.minimum = 60;
    root_zone.add({dns::Name{}, dns::RRClass::IN, 86400, soa});
    root_zone.add({dns::Name{}, dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
    root_zone.add({dns::Name::parse("a.root-servers.net"), dns::RRClass::IN,
                   86400, dns::ARdata{root_addr}});
    root_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
    root_zone.add({dns::Name::parse("ns1.dns.nl"), dns::RRClass::IN, 86400,
                   dns::ARdata{tld_addr}});

    // Root answers authoritatively for farm. (kept at the root to avoid a
    // second TLD): A records for the glueless NS targets.
    authns::Zone farm_zone{dns::Name::parse("farm")};
    farm_zone.add({dns::Name::parse("farm"), dns::RRClass::IN, 86400, soa});
    farm_zone.add({dns::Name::parse("farm"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
    for (int i = 1; i <= 4; ++i) {
      farm_zone.add({dns::Name::parse("ns" + std::to_string(i) + ".farm"),
                     dns::RRClass::IN, 86400, dns::ARdata{auth_addr}});
    }
    if (silent_farm) {
      root_zone.add({dns::Name::parse("farm"), dns::RRClass::IN, 86400,
                     dns::NsRdata{dns::Name::parse("ns.farm")}});
      root_zone.add({dns::Name::parse("ns.farm"), dns::RRClass::IN, 86400,
                     dns::ARdata{net_->allocate_address()}});
    } else {
      root_zone.add({dns::Name::parse("farm"), dns::RRClass::IN, 86400,
                     dns::NsRdata{dns::Name::parse("a.root-servers.net")}});
    }

    authns::Zone nl_zone{dns::Name::parse("nl")};
    nl_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400, soa});
    nl_zone.add({dns::Name::parse("nl"), dns::RRClass::IN, 86400,
                 dns::NsRdata{dns::Name::parse("ns1.dns.nl")}});
    nl_zone.add({dns::Name::parse("ns1.dns.nl"), dns::RRClass::IN, 86400,
                 dns::ARdata{tld_addr}});
    for (int i = 1; i <= 4; ++i) {
      nl_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{
                       dns::Name::parse("ns" + std::to_string(i) + ".farm")}});
    }
    if (silent_farm) {
      nl_zone.add({dns::Name::parse("other.nl"), dns::RRClass::IN, 86400,
                   dns::NsRdata{dns::Name::parse("ns5.farm")}});
    }

    authns::Zone test_zone{dns::Name::parse("test.nl")};
    dns::SoaRdata s;
    s.minimum = 30;
    test_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400, s});
    for (int i = 1; i <= 4; ++i) {
      test_zone.add({dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
                     dns::NsRdata{dns::Name::parse("ns" + std::to_string(i) +
                                                   ".farm")}});
    }
    test_zone.add({dns::Name::parse("*.test.nl"), dns::RRClass::IN, 5,
                   dns::TxtRdata{{"A1"}}});

    auto server = [&](const char* name, const char* city,
                      net::IpAddress addr) {
      const net::NodeId node = net_->add_node(name, loc(city));
      authns::AuthServerConfig cfg;
      cfg.identity = name;
      return std::make_unique<authns::AuthServer>(
          *net_, node, net::Endpoint{addr, net::kDnsPort}, cfg);
    };
    root = server("root", "IAD", root_addr);
    root->add_zone(std::move(root_zone));
    if (!silent_farm) root->add_zone(std::move(farm_zone));
    root->start();
    tld = server("nl-tld", "AMS", tld_addr);
    tld->add_zone(std::move(nl_zone));
    tld->start();
    auth = server("auth", "FRA", auth_addr);
    auth->add_zone(std::move(test_zone));
    auth->start();

    const net::NodeId rnode = net_->add_node("recursive", loc("AMS"));
    rcfg.name = "glueless-recursive";
    resolver = std::make_unique<RecursiveResolver>(
        *net_, rnode, net_->allocate_address(), rcfg,
        std::vector<RootHint>{
            {dns::Name::parse("a.root-servers.net"), root_addr}},
        stats::Rng{555});
    resolver->start();
  }
};

std::uint64_t fetches_spawned_for(int waiters, ResolverConfig cfg) {
  GluelessWorld world{cfg};
  std::vector<ResolveOutcome> outcomes;
  for (int i = 0; i < waiters; ++i) {
    world.resolver->resolve(
        dns::Question{dns::Name::parse("abc.test.nl"), dns::RRType::TXT,
                      dns::RRClass::IN},
        [&outcomes](const ResolveOutcome& o) { outcomes.push_back(o); });
  }
  world.sim.run();
  EXPECT_EQ(outcomes.size(), static_cast<std::size_t>(waiters));
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.rcode, dns::Rcode::NoError);
  }
  return world.sim.metrics().snapshot().counter_value(
      obs::names::kResolverFetchSpawned);
}

TEST(ResolverPipeline, GluelessWorldResolvesWithoutPipelining) {
  // Sanity for the harness itself: the glueless walk completes with the
  // pipeline off, so any failure below is the pipeline's.
  const std::uint64_t spawned = fetches_spawned_for(1, ResolverConfig{});
  EXPECT_GT(spawned, 0u);
}

TEST(ResolverPipeline, FetchBudgetIsPerLogicalResolutionNotPerWaiter) {
  // Four glueless NS targets, budget 2: the chain spawns exactly as many
  // NS-address fetches with three coalesced waiters as with one. If each
  // waiter bought its own budget, the 3-waiter run would spawn more.
  ResolverConfig cfg = pipelined(/*inflight=*/8);
  cfg.max_fetches_per_resolution = 2;
  const std::uint64_t solo = fetches_spawned_for(1, cfg);
  const std::uint64_t trio = fetches_spawned_for(3, cfg);
  EXPECT_GT(solo, 0u);
  EXPECT_LE(solo, 2u);
  EXPECT_EQ(solo, trio);
}

TEST(ResolverPipeline, DeadlineFinishesAJobParkedOnSilentFetchesOnce) {
  // The parent parks on four NS-address fetches that never get an answer.
  // Its deadline fires first: the resolution fails exactly once, every
  // coalesced waiter hears it once, and the fetches — finished later by
  // their own deadlines — step neither the parent nor the job that took
  // over its slot.
  ResolverConfig cfg = pipelined(/*inflight=*/8);
  cfg.max_resolution_time = net::Duration::seconds(3);
  GluelessWorld world{cfg, /*silent_farm=*/true};
  world.sim.trace().set_enabled(true);
  const auto ask = [&](const char* name, std::vector<ResolveOutcome>& sink) {
    world.resolver->resolve(
        dns::Question{dns::Name::parse(name), dns::RRType::TXT,
                      dns::RRClass::IN},
        [&sink](const ResolveOutcome& o) { sink.push_back(o); });
  };
  std::vector<ResolveOutcome> parent;
  for (int i = 0; i < 3; ++i) ask("abc.test.nl", parent);
  const net::SimTime parent_deadline =
      net::SimTime::origin() + cfg.max_resolution_time;
  world.sim.run_until(parent_deadline);
  ASSERT_EQ(parent.size(), 3u);
  const auto counter = [&](std::string_view name) {
    return world.sim.metrics().snapshot().counter_value(name);
  };
  EXPECT_EQ(counter(obs::names::kResolverFetchSpawned), 4u);
  EXPECT_EQ(counter(obs::names::kResolverDeadlineExpired), 1u);

  // Started now, this resolution takes the parent's freed slot (the only
  // free one) and parks on a fetch of its own, for ns5.farm. The parent's
  // fetches land while it waits; they must not count for it.
  std::vector<ResolveOutcome> reuse;
  ask("xyz.other.nl", reuse);
  world.sim.run();

  for (const auto& o : parent) {
    EXPECT_EQ(o.rcode, dns::Rcode::ServFail);
    EXPECT_EQ(o.elapsed, cfg.max_resolution_time);
  }
  ASSERT_EQ(reuse.size(), 1u);
  EXPECT_EQ(reuse[0].rcode, dns::Rcode::ServFail);
  EXPECT_EQ(reuse[0].elapsed, cfg.max_resolution_time);
  // The fetches outlived the parent and failed by their own deadlines.
  std::size_t parent_servfails = 0;
  std::size_t late_fetch_servfails = 0;
  std::size_t reuse_steps = 0;
  for (const auto& e : world.sim.trace().events()) {
    if (e.actor != world.resolver->name()) continue;
    if (e.subject == "abc.test.nl.") {
      EXPECT_LE(e.at, parent_deadline) << "the parent was stepped again";
      if (e.kind == obs::TraceKind::Servfail) ++parent_servfails;
    } else if (e.subject == "xyz.other.nl." &&
               e.kind == obs::TraceKind::CacheMiss) {
      ++reuse_steps;
    } else if (e.kind == obs::TraceKind::Servfail &&
               e.subject.ends_with(".farm.") && e.at > parent_deadline) {
      ++late_fetch_servfails;
    }
  }
  EXPECT_EQ(parent_servfails, 1u);
  EXPECT_GE(late_fetch_servfails, 4u);
  // One step sent it to nl.; it then waited, unstepped, for ns5.farm.
  EXPECT_EQ(reuse_steps, 1u);
  EXPECT_EQ(world.resolver->inflight_resolutions(), 0u);
  EXPECT_EQ(world.sim.pending(), 0u);
}

TEST(ResolverPipeline, LateReplyOfAFinishedJobStillFeedsSrtt) {
  // The deadline is shorter than the root's round trip, so the first
  // resolution fails while its query to the root is in flight. A second
  // resolution of the same name, started in that window with the test.nl
  // delegation cached, sends the same qname to the nearby authoritative.
  // Both transmissions are live on one qname at once: each reply must
  // reach its own, the late root reply must still update the root's SRTT,
  // and the second resolution must complete untouched.
  ResolverConfig cfg;
  cfg.max_resolution_time = net::Duration::millis(40);
  PipeWorld world{cfg};
  std::vector<ResolveOutcome> first;
  world.issue("late.test.nl", first);
  world.sim.run_until(net::SimTime::origin() + net::Duration::millis(45));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].rcode, dns::Rcode::ServFail);
  EXPECT_EQ(first[0].upstream_queries, 1);
  // Selection seeded the root's entry; its reply is still in flight.
  const ServerStats* root =
      world.resolver->infra().get(world.root_addr, world.sim.now());
  ASSERT_NE(root, nullptr);
  const net::SimTime seeded_at = root->last_update;
  ASSERT_LT(seeded_at, world.sim.now());

  std::vector<dns::ResourceRecord> delegation{
      {dns::Name::parse("test.nl"), dns::RRClass::IN, 86400,
       dns::NsRdata{dns::Name::parse("ns1.test.nl")}},
      {dns::Name::parse("ns1.test.nl"), dns::RRClass::IN, 86400,
       dns::ARdata{world.auth_addr}}};
  dns::for_each_rrset(delegation, [&](dns::RRset&& set) {
    world.resolver->cache().put(std::move(set), world.sim.now());
  });
  std::vector<ResolveOutcome> second;
  world.issue("late.test.nl", second);
  world.sim.run();

  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].rcode, dns::Rcode::NoError);
  EXPECT_EQ(second[0].upstream_queries, 1);
  ASSERT_EQ(second[0].answers.size(), 1u);
  EXPECT_EQ(*second[0].answers[0].rdata().txt().begin(), "A1");
  root = world.resolver->infra().get(world.root_addr, world.sim.now());
  ASSERT_NE(root, nullptr);
  EXPECT_GT(root->last_update, net::SimTime::origin() + net::Duration::millis(45))
      << "the late root reply did not reach the infra cache";
  EXPECT_EQ(world.counter(obs::names::kResolverUpstreamTimeouts), 0u);
  EXPECT_EQ(world.counter(obs::names::kResolverDeadlineExpired), 1u);
  EXPECT_EQ(world.sim.pending(), 0u);
}

// --- sharded campaign determinism with pipelined resolvers ----------------

experiment::TestbedConfig pipelined_attacked_config() {
  experiment::TestbedConfig cfg;
  cfg.seed = 77;
  cfg.population.probes = 48;
  cfg.test_sites = {"DUB", "FRA"};
  cfg.population.resolver_template.max_inflight_resolutions = 4;
  cfg.population.resolver_template.max_queued_resolutions = 64;
  cfg.population.resolver_template.max_fetches_per_resolution = 2;

  attack::AttackSchedule sched;
  sched.zone().chains = 4;
  sched.zone().fanout = 8;
  attack::AttackEvent nxns;
  nxns.kind = attack::AttackKind::Nxns;
  nxns.start = net::SimTime::origin() + net::Duration::minutes(1);
  nxns.end = net::SimTime::origin() + net::Duration::minutes(4);
  nxns.interval = net::Duration::seconds(5);
  nxns.bots = 8;
  sched.add(nxns);
  cfg.attack = sched;
  return cfg;
}

std::string pipelined_attacked_metrics(std::size_t shards) {
  experiment::Testbed tb{pipelined_attacked_config()};
  experiment::CampaignConfig cc;
  cc.interval = net::Duration::minutes(2);
  cc.queries_per_vp = 4;
  cc.shards = shards;
  const auto result = run_campaign(tb, cc);
  return result.metrics.to_json(obs::SnapshotStyle::MergeSafe);
}

TEST(ResolverPipeline, AttackedPipelinedCampaignIsShardInvariant) {
  const std::string serial = pipelined_attacked_metrics(1);
  EXPECT_NE(serial.find("resolver."), std::string::npos);
  EXPECT_EQ(serial, pipelined_attacked_metrics(2));
  EXPECT_EQ(serial, pipelined_attacked_metrics(4));
}

}  // namespace
}  // namespace recwild::resolver
