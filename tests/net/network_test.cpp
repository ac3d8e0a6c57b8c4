#include "net/network.hpp"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "obs/names.hpp"

namespace recwild::net {
namespace {

GeoPoint point(const char* code) { return find_location(code)->point; }

struct Fixture {
  Simulation sim{123};
  LatencyParams params;
  Fixture() { params.loss_rate = 0.0; }
};

TEST(Network, AddNodeAssignsSequentialIds) {
  Fixture f;
  Network net{f.sim, f.params};
  EXPECT_EQ(net.add_node("a", point("FRA")), 0u);
  EXPECT_EQ(net.add_node("b", point("IAD")), 1u);
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.node(0).name, "a");
  EXPECT_THROW(net.node(5), std::out_of_range);
}

TEST(Network, AllocateAddressIsUnique) {
  Fixture f;
  Network net{f.sim, f.params};
  const auto a = net.allocate_address();
  const auto b = net.allocate_address();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.to_string().substr(0, 3), "10.");
}

TEST(Network, DeliversDatagramWithLatency) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId sender = net.add_node("sender", point("FRA"));
  const NodeId receiver = net.add_node("receiver", point("IAD"));
  const Endpoint dst{net.allocate_address(), 53};

  bool delivered = false;
  SimTime at;
  net.listen(receiver, dst, [&](const Datagram& d, NodeId node) {
    delivered = true;
    at = f.sim.now();
    EXPECT_EQ(node, receiver);
    EXPECT_EQ(d.payload.size(), 3u);
    EXPECT_EQ(d.sent_at, SimTime::origin());
  });

  EXPECT_TRUE(net.send(sender, Endpoint{net.allocate_address(), 1000}, dst,
                       {1, 2, 3}));
  f.sim.run();
  EXPECT_TRUE(delivered);
  // One-way FRA->IAD should be tens of ms.
  EXPECT_GT(at.ms(), 10.0);
  EXPECT_LT(at.ms(), 300.0);
}

TEST(Network, UnroutableReturnsFalse) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId sender = net.add_node("sender", point("FRA"));
  EXPECT_FALSE(net.send(sender, Endpoint{}, Endpoint{IpAddress{42}, 53}, {}));
  EXPECT_EQ(net.unroutable(), 1u);
}

TEST(Network, UnlistenMakesUnroutable) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId a = net.add_node("a", point("FRA"));
  const NodeId b = net.add_node("b", point("IAD"));
  const Endpoint ep{net.allocate_address(), 53};
  net.listen(b, ep, [](const Datagram&, NodeId) {});
  EXPECT_TRUE(net.send(a, Endpoint{}, ep, {}));
  net.unlisten(b, ep);
  EXPECT_FALSE(net.send(a, Endpoint{}, ep, {}));
}

TEST(Network, RebindReplacesHandler) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId a = net.add_node("a", point("FRA"));
  const NodeId b = net.add_node("b", point("AMS"));
  const Endpoint ep{net.allocate_address(), 53};
  int first = 0;
  int second = 0;
  net.listen(b, ep, [&](const Datagram&, NodeId) { ++first; });
  net.listen(b, ep, [&](const Datagram&, NodeId) { ++second; });
  net.send(a, Endpoint{}, ep, {});
  f.sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Network, FullLossDropsEverything) {
  Fixture f;
  f.params.loss_rate = 1.0;
  Network net{f.sim, f.params};
  const NodeId a = net.add_node("a", point("FRA"));
  const NodeId b = net.add_node("b", point("AMS"));
  const Endpoint ep{net.allocate_address(), 53};
  bool delivered = false;
  net.listen(b, ep, [&](const Datagram&, NodeId) { delivered = true; });
  EXPECT_TRUE(net.send(a, Endpoint{}, ep, {9}));  // sent, then lost
  f.sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped(), 1u);
  EXPECT_EQ(net.delivered(), 0u);
}

TEST(Network, AnycastRoutesToNearestSite) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client_eu = net.add_node("client-eu", point("AMS"));
  const NodeId client_au = net.add_node("client-au", point("MEL"));
  const NodeId site_eu = net.add_node("site-eu", point("FRA"));
  const NodeId site_au = net.add_node("site-au", point("SYD"));
  const Endpoint anycast{net.allocate_address(), 53};

  NodeId hit = kInvalidNode;
  auto handler = [&](const Datagram&, NodeId node) { hit = node; };
  net.listen(site_eu, anycast, handler);
  net.listen(site_au, anycast, handler);

  net.send(client_eu, Endpoint{}, anycast, {});
  f.sim.run();
  EXPECT_EQ(hit, site_eu);

  net.send(client_au, Endpoint{}, anycast, {});
  f.sim.run();
  EXPECT_EQ(hit, site_au);
}

TEST(Network, RouteReportsCatchment) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId site_eu = net.add_node("site-eu", point("FRA"));
  const NodeId site_us = net.add_node("site-us", point("SFO"));
  const IpAddress addr = net.allocate_address();
  auto handler = [](const Datagram&, NodeId) {};
  net.listen(site_eu, Endpoint{addr, 53}, handler);
  net.listen(site_us, Endpoint{addr, 53}, handler);
  EXPECT_EQ(net.route(client, addr), site_eu);
  EXPECT_EQ(net.route(client, IpAddress{777}), kInvalidNode);
}

TEST(Network, BoundNodesListsAllSites) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId s1 = net.add_node("s1", point("FRA"));
  const NodeId s2 = net.add_node("s2", point("SYD"));
  const IpAddress addr = net.allocate_address();
  auto handler = [](const Datagram&, NodeId) {};
  net.listen(s1, Endpoint{addr, 53}, handler);
  net.listen(s2, Endpoint{addr, 53}, handler);
  const auto nodes = net.bound_nodes(addr);
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(Network, BaseRttToUsesCatchment) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId near_site = net.add_node("near", point("FRA"));
  const NodeId far_site = net.add_node("far", point("SYD"));
  const IpAddress addr = net.allocate_address();
  auto handler = [](const Datagram&, NodeId) {};
  net.listen(near_site, Endpoint{addr, 53}, handler);
  net.listen(far_site, Endpoint{addr, 53}, handler);
  const Duration rtt = net.base_rtt_to(client, addr);
  EXPECT_EQ(rtt, net.base_rtt(client, near_site));
  EXPECT_LT(rtt, net.base_rtt(client, far_site));
}

/// Scriptable routing-plane hook: a fixed per-node state table.
struct StubRouteHook final : RoutePolicyHook {
  IpAddress managed;
  std::map<NodeId, RouteState> states;
  std::vector<NodeId> selections;

  RouteState route_state(IpAddress addr, NodeId node, SimTime) override {
    if (addr != managed) return RouteState::Announced;
    const auto it = states.find(node);
    return it == states.end() ? RouteState::Announced : it->second;
  }
  void on_selected(IpAddress addr, NodeId, NodeId site, SimTime) override {
    if (addr == managed) selections.push_back(site);
  }
};

TEST(Network, WithdrawnSiteLeavesSelection) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId near_site = net.add_node("near", point("FRA"));
  const NodeId far_site = net.add_node("far", point("SYD"));
  const IpAddress addr = net.allocate_address();
  NodeId hit = kInvalidNode;
  auto handler = [&](const Datagram&, NodeId node) { hit = node; };
  net.listen(near_site, Endpoint{addr, 53}, handler);
  net.listen(far_site, Endpoint{addr, 53}, handler);

  StubRouteHook hook;
  hook.managed = addr;
  hook.states[near_site] = RouteState::Withdrawn;
  net.add_route_hook(&hook);

  EXPECT_TRUE(net.send(client, Endpoint{}, Endpoint{addr, 53}, {}));
  f.sim.run();
  EXPECT_EQ(hit, far_site);  // nearest site withdrawn -> next best
  ASSERT_EQ(hook.selections.size(), 1u);
  EXPECT_EQ(hook.selections[0], far_site);
  net.remove_route_hook(&hook);
}

TEST(Network, SinkingSiteStillAttractsAndDrops) {
  // Withdrawn-but-unconverged: the sender still selects the dead site and
  // the packet dies there — the convergence-loss phase of a withdrawal.
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId near_site = net.add_node("near", point("FRA"));
  const NodeId far_site = net.add_node("far", point("SYD"));
  const IpAddress addr = net.allocate_address();
  bool delivered = false;
  auto handler = [&](const Datagram&, NodeId) { delivered = true; };
  net.listen(near_site, Endpoint{addr, 53}, handler);
  net.listen(far_site, Endpoint{addr, 53}, handler);

  StubRouteHook hook;
  hook.managed = addr;
  hook.states[near_site] = RouteState::Sinking;
  net.add_route_hook(&hook);

  EXPECT_TRUE(net.send(client, Endpoint{}, Endpoint{addr, 53}, {7}));
  f.sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped(), 1u);
  EXPECT_EQ(f.sim.metrics().snapshot().counter_value(
                obs::names::kAnycastLostInConvergence),
            1u);
  // The dead site was still the selection — convergence hasn't reached
  // the client's routers.
  ASSERT_EQ(hook.selections.size(), 1u);
  EXPECT_EQ(hook.selections[0], near_site);
  net.remove_route_hook(&hook);
}

TEST(Network, AllSitesWithdrawnIsUnroutable) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId site = net.add_node("site", point("FRA"));
  const IpAddress addr = net.allocate_address();
  net.listen(site, Endpoint{addr, 53}, [](const Datagram&, NodeId) {});

  StubRouteHook hook;
  hook.managed = addr;
  hook.states[site] = RouteState::Withdrawn;
  net.add_route_hook(&hook);
  EXPECT_FALSE(net.send(client, Endpoint{}, Endpoint{addr, 53}, {}));
  EXPECT_EQ(net.unroutable(), 1u);
  net.remove_route_hook(&hook);
}

TEST(Network, WorstRouteStateAcrossHooksWins) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId site = net.add_node("site", point("FRA"));
  const NodeId backup = net.add_node("backup", point("IAD"));
  const IpAddress addr = net.allocate_address();
  NodeId hit = kInvalidNode;
  auto handler = [&](const Datagram&, NodeId node) { hit = node; };
  net.listen(site, Endpoint{addr, 53}, handler);
  net.listen(backup, Endpoint{addr, 53}, handler);

  StubRouteHook says_ok;
  says_ok.managed = addr;  // all Announced
  StubRouteHook says_gone;
  says_gone.managed = addr;
  says_gone.states[site] = RouteState::Withdrawn;
  net.add_route_hook(&says_ok);
  net.add_route_hook(&says_gone);

  EXPECT_TRUE(net.send(client, Endpoint{}, Endpoint{addr, 53}, {}));
  f.sim.run();
  EXPECT_EQ(hit, backup);
  net.remove_route_hook(&says_ok);
  net.remove_route_hook(&says_gone);
}

TEST(Network, EqualRttTieBreaksOnLowestNodeName) {
  // Two sites at the same location (bit-identical RTT): selection must be
  // deterministic — lowest node name wins, regardless of bind order.
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId client = net.add_node("client", point("AMS"));
  const NodeId z_site = net.add_node("site-z", point("FRA"));
  const NodeId a_site = net.add_node("site-a", point("FRA"));
  const IpAddress addr = net.allocate_address();
  NodeId hit = kInvalidNode;
  auto handler = [&](const Datagram&, NodeId node) { hit = node; };
  net.listen(z_site, Endpoint{addr, 53}, handler);  // bound first
  net.listen(a_site, Endpoint{addr, 53}, handler);

  net.send(client, Endpoint{}, Endpoint{addr, 53}, {});
  f.sim.run();
  EXPECT_EQ(hit, a_site);
}

TEST(Network, CountersTrackTraffic) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId a = net.add_node("a", point("FRA"));
  const NodeId b = net.add_node("b", point("AMS"));
  const Endpoint ep{net.allocate_address(), 53};
  net.listen(b, ep, [](const Datagram&, NodeId) {});
  net.send(a, Endpoint{}, ep, {});
  net.send(a, Endpoint{}, ep, {});
  f.sim.run();
  EXPECT_EQ(net.sent(), 2u);
  EXPECT_EQ(net.delivered(), 2u);
}

TEST(WireBuffer, SizeClassesAreEveryPowerOfTwoAndTheStepBetween) {
  EXPECT_EQ(WireBufferPool::size_class(0), 32u);
  EXPECT_EQ(WireBufferPool::size_class(32), 32u);
  EXPECT_EQ(WireBufferPool::size_class(33), 48u);
  EXPECT_EQ(WireBufferPool::size_class(45), 48u);
  EXPECT_EQ(WireBufferPool::size_class(81), 96u);
  EXPECT_EQ(WireBufferPool::size_class(97), 128u);
  EXPECT_EQ(WireBufferPool::size_class(385), 512u);
  EXPECT_EQ(WireBufferPool::size_class(400), 512u);
  EXPECT_EQ(WireBufferPool::size_class(49152), 49152u);
  EXPECT_EQ(WireBufferPool::size_class(65536), 65536u);
  EXPECT_EQ(WireBufferPool::size_class(65537), 65537u);  // exact past 64K
}

TEST(Network, InFlightPacketsHoldTheirSizeClassNotTheEncoderScratch) {
  Fixture f;
  Network net{f.sim, f.params};
  const NodeId sender = net.add_node("sender", point("FRA"));
  const NodeId receiver = net.add_node("receiver", point("IAD"));
  const Endpoint src{net.allocate_address(), 1000};
  const Endpoint dst{net.allocate_address(), 53};

  // An encoder writes into 512-byte scratch; what flies is sized to it.
  auto encoded = [](std::size_t size) {
    WireBuffer b = WireBuffer::acquire();
    EXPECT_GE(b.bytes().capacity(), 512u);
    for (std::size_t i = 0; i < size; ++i) {
      b.bytes().push_back(static_cast<std::uint8_t>(i));
    }
    return b;
  };

  std::map<std::size_t, std::size_t> capacity_by_size;
  net.listen(receiver, dst, [&](const Datagram& d, NodeId) {
    for (std::size_t i = 0; i < d.payload.size(); ++i) {
      ASSERT_EQ(d.payload[i], static_cast<std::uint8_t>(i));
    }
    capacity_by_size[d.payload.size()] = d.payload.bytes().capacity();
  });

  ASSERT_TRUE(net.send(sender, src, dst, encoded(45)));    // a query
  ASSERT_TRUE(net.send(sender, src, dst, encoded(400)));   // a referral
  ASSERT_TRUE(net.send_stream(sender, src, dst, encoded(1500)));
  f.sim.run();

  ASSERT_EQ(capacity_by_size.size(), 3u);
  EXPECT_EQ(capacity_by_size[45], 48u);
  EXPECT_EQ(capacity_by_size[400], 512u);
  EXPECT_EQ(capacity_by_size[1500], 1536u);
  for (const auto& [size, capacity] : capacity_by_size) {
    EXPECT_LE(capacity, WireBufferPool::size_class(size)) << size;
  }
}

TEST(Address, ToStringFormatsOctets) {
  EXPECT_EQ(IpAddress::from_octets(10, 0, 1, 2).to_string(), "10.0.1.2");
  EXPECT_EQ(IpAddress::from_octets(255, 255, 255, 255).to_string(),
            "255.255.255.255");
  const Endpoint ep{IpAddress::from_octets(1, 2, 3, 4), 53};
  EXPECT_EQ(ep.to_string(), "1.2.3.4:53");
}

TEST(Address, ComparisonAndHash) {
  const IpAddress a{1};
  const IpAddress b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<IpAddress>{}(a), std::hash<IpAddress>{}(b));
  EXPECT_TRUE(IpAddress{}.is_unspecified());
  EXPECT_FALSE(a.is_unspecified());
}

}  // namespace
}  // namespace recwild::net
