#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace recwild::net {

Network::Network(Simulation& sim, LatencyParams params,
                 std::shared_ptr<const NodeCatalog> base)
    : sim_(sim),
      latency_(params, sim.rng().fork("latency-model")),
      flow_rng_parent_(sim.rng().fork("packet-rng")),
      base_(std::move(base)),
      base_count_(base_ != nullptr
                      ? static_cast<NodeId>(base_->node_count())
                      : 0),
      obs_sent_(&sim.metrics().counter(obs::names::kNetPacketsSent)),
      obs_delivered_(&sim.metrics().counter(obs::names::kNetPacketsDelivered)),
      obs_dropped_(&sim.metrics().counter(obs::names::kNetPacketsDropped)),
      obs_unroutable_(
          &sim.metrics().counter(obs::names::kNetPacketsUnroutable)),
      obs_stream_sent_(&sim.metrics().counter(obs::names::kNetStreamSent)),
      obs_udp_bytes_(&sim.metrics().counter(obs::names::kDatapathUdpBytes)),
      obs_stream_bytes_(
          &sim.metrics().counter(obs::names::kDatapathStreamBytes)) {
  if (base_ != nullptr) {
    if (base_->first_id != 0) {
      throw std::invalid_argument{
          "Network: a base catalog must start at node id 0"};
    }
    next_addr_ = base_->next_addr;
  }
}

namespace {

/// SplitMix64 finalizer: spreads the packed (from, to) key across the
/// table. Probe layout is invisible to the simulation — every stream is
/// forked from the never-advancing parent by key alone.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

stats::Rng& Network::flow_rng(NodeId from, NodeId to) {
  const std::uint64_t key = (std::uint64_t{from} << 32) | to;
  if (flow_slots_.empty()) flow_slots_.resize(1024);
  std::size_t mask = flow_slots_.size() - 1;
  std::size_t idx = mix64(key) & mask;
  while (flow_slots_[idx].key != kEmptyFlowKey) {
    if (flow_slots_[idx].key == key) return flow_slots_[idx].rng;
    idx = (idx + 1) & mask;
  }
  if ((flow_count_ + 1) * 4 > flow_slots_.size() * 3) {
    grow_flow_table();
    mask = flow_slots_.size() - 1;
    idx = mix64(key) & mask;
    while (flow_slots_[idx].key != kEmptyFlowKey) idx = (idx + 1) & mask;
  }
  FlowSlot& s = flow_slots_[idx];
  s.key = key;
  s.rng = flow_rng_parent_.fork(key);
  ++flow_count_;
  return s.rng;
}

void Network::grow_flow_table() {
  std::vector<FlowSlot> old = std::move(flow_slots_);
  flow_slots_.assign(old.size() * 2, FlowSlot{});
  const std::size_t mask = flow_slots_.size() - 1;
  for (FlowSlot& s : old) {
    if (s.key == kEmptyFlowKey) continue;
    std::size_t idx = mix64(s.key) & mask;
    while (flow_slots_[idx].key != kEmptyFlowKey) idx = (idx + 1) & mask;
    flow_slots_[idx] = std::move(s);
  }
}

NodeId Network::add_node(std::string name, GeoPoint point) {
  const NodeId id = base_count_ + static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{id, std::move(name), point});
  return id;
}

const NodeInfo& Network::node(NodeId id) const {
  if (id < base_count_) return base_->nodes[id];
  const NodeId local = id - base_count_;
  if (local >= nodes_.size()) {
    throw std::out_of_range{"Network::node: bad id"};
  }
  return nodes_[local];
}

IpAddress Network::allocate_address() {
  // 10.0.0.0/8 pool, skipping .0 and .255 host bytes for readability.
  std::uint32_t host = next_addr_++;
  return IpAddress{(10u << 24) | (host & 0x00ffffffu)};
}

IpAddress Network::allocate_address6() {
  std::uint32_t host = next_addr_++;
  return IpAddress{(253u << 24) | (host & 0x00ffffffu)};
}

void Network::listen(NodeId node, Endpoint ep, DatagramHandler handler) {
  if (node >= node_count()) throw std::out_of_range{"Network::listen"};
  auto shared = std::make_shared<const DatagramHandler>(std::move(handler));
  auto& list = bindings_[ep];
  for (auto& b : list) {
    if (b.node == node) {
      b.handler = std::move(shared);
      return;
    }
  }
  list.push_back(Binding{node, std::move(shared)});
  endpoint_index_dirty_ = true;
}

void Network::unlisten(NodeId node, Endpoint ep) {
  const auto it = bindings_.find(ep);
  if (it == bindings_.end()) return;
  auto& list = it->second;
  std::erase_if(list, [node](const Binding& b) { return b.node == node; });
  if (list.empty()) bindings_.erase(it);
  endpoint_index_dirty_ = true;
}

void Network::rebuild_endpoint_index() {
  endpoint_index_dirty_ = false;
  std::size_t slots = 64;
  while (slots < bindings_.size() * 2) slots *= 2;
  endpoint_slots_.assign(slots, EndpointSlot{});
  const std::size_t mask = slots - 1;
  for (auto& [ep, list] : bindings_) {
    std::size_t idx = mix64(pack_endpoint(ep)) & mask;
    while (endpoint_slots_[idx].key != kEmptyFlowKey) idx = (idx + 1) & mask;
    endpoint_slots_[idx] = EndpointSlot{pack_endpoint(ep), &list};
  }
}

void Network::add_route_hook(RoutePolicyHook* hook) {
  if (hook == nullptr) return;
  if (std::find(route_hooks_.begin(), route_hooks_.end(), hook) !=
      route_hooks_.end()) {
    return;
  }
  // Registered lazily (like RRL's counters): worlds without dynamic
  // routing keep their historical metric snapshots byte-for-byte.
  if (obs_lost_convergence_ == nullptr) {
    obs_lost_convergence_ =
        &sim_.metrics().counter(obs::names::kAnycastLostInConvergence);
  }
  route_hooks_.push_back(hook);
}

void Network::remove_route_hook(RoutePolicyHook* hook) {
  std::erase(route_hooks_, hook);
}

RouteState Network::route_state_of(IpAddress addr, NodeId node) {
  RouteState worst = RouteState::Announced;
  for (RoutePolicyHook* hook : route_hooks_) {
    const RouteState s = hook->route_state(addr, node, sim_.now());
    if (s == RouteState::Withdrawn) return RouteState::Withdrawn;
    if (s == RouteState::Sinking) worst = RouteState::Sinking;
  }
  return worst;
}

const Network::Binding* Network::select_binding(NodeId from, Endpoint dst) {
  if (endpoint_index_dirty_) rebuild_endpoint_index();
  if (endpoint_slots_.empty()) return nullptr;
  const std::uint64_t key = pack_endpoint(dst);
  const std::size_t mask = endpoint_slots_.size() - 1;
  std::size_t idx = mix64(key) & mask;
  while (endpoint_slots_[idx].key != key) {
    if (endpoint_slots_[idx].key == kEmptyFlowKey) return nullptr;
    idx = (idx + 1) & mask;
  }
  auto& list = *endpoint_slots_[idx].list;
  if (list.empty()) return nullptr;
  const bool dynamic_routes = !route_hooks_.empty();
  if (list.size() == 1) {
    if (dynamic_routes && route_state_of(dst.addr, list.front().node) ==
                              RouteState::Withdrawn) {
      return nullptr;
    }
    return &list.front();
  }
  // Anycast: nearest announcing site by stable path RTT. Withdrawn sites
  // have left the routing table; Sinking sites are still selected — the
  // sender's routers have not converged yet — and their packets die in
  // sink_packet(). Exact-RTT ties break toward the lexicographically
  // lowest node name (names embed the site code), which pins the catchment
  // independent of binding order.
  const Binding* best = nullptr;
  auto best_rtt = Duration::micros(std::numeric_limits<std::int64_t>::max());
  for (const auto& b : list) {
    if (dynamic_routes &&
        route_state_of(dst.addr, b.node) == RouteState::Withdrawn) {
      continue;
    }
    const Duration rtt = base_rtt(from, b.node);
    if (best == nullptr || rtt < best_rtt ||
        (rtt == best_rtt && node(b.node).name < node(best->node).name)) {
      best = &b;
      best_rtt = rtt;
    }
  }
  return best;
}

bool Network::sink_packet(NodeId from_node, const Endpoint& dst,
                          NodeId site) {
  for (RoutePolicyHook* hook : route_hooks_) {
    hook->on_selected(dst.addr, from_node, site, sim_.now());
  }
  if (route_state_of(dst.addr, site) != RouteState::Sinking) return false;
  ++dropped_;
  obs_dropped_->add(1, sim_.now());
  obs_lost_convergence_->add(1, sim_.now());
  if (sim_.trace().enabled()) {
    sim_.trace().record({sim_.now(), obs::TraceKind::PacketDrop,
                         node(from_node).name, node(site).name,
                         "route_convergence", 0.0});
  }
  return true;
}

bool Network::send(NodeId from_node, Endpoint src, Endpoint dst,
                   WireBuffer payload) {
  if (from_node >= node_count()) throw std::out_of_range{"Network::send"};
  ++sent_;
  obs_sent_->add(1, sim_.now());
  obs_udp_bytes_->add(payload.size(), sim_.now());
  const Binding* binding = select_binding(from_node, dst);
  if (binding == nullptr) {
    ++unroutable_;
    obs_unroutable_->add(1, sim_.now());
    return false;
  }
  if (!route_hooks_.empty() && sink_packet(from_node, dst, binding->node)) {
    return true;  // sent, but lost in a withdrawing site's convergence sink
  }
  Duration fault_delay = Duration::zero();
  if (fault_hook_ != nullptr) {
    const FaultVerdict verdict = fault_hook_->on_packet(
        from_node, binding->node, src, dst, /*via_stream=*/false, sim_.now());
    if (verdict.drop) {
      ++dropped_;
      obs_dropped_->add(1, sim_.now());
      if (sim_.trace().enabled()) {
        sim_.trace().record({sim_.now(), obs::TraceKind::PacketDrop,
                             node(from_node).name,
                             node(binding->node).name, "fault_injector",
                             0.0});
      }
      return true;  // sent, but eaten by an active fault
    }
    fault_delay = verdict.extra_delay;
  }
  stats::Rng& frng = flow_rng(from_node, binding->node);
  if (latency_.drop(frng)) {
    ++dropped_;
    obs_dropped_->add(1, sim_.now());
    if (sim_.trace().enabled()) {
      sim_.trace().record({sim_.now(), obs::TraceKind::PacketDrop,
                           node(from_node).name, node(binding->node).name,
                           "loss_model", 0.0});
    }
    return true;  // sent, but lost in transit
  }
  const NodeInfo& a = node(from_node);
  const NodeInfo& b = node(binding->node);
  const Duration delay =
      fault_delay + latency_.one_way(a.id, a.point, b.id, b.point, frng);
  Datagram dgram{src, dst, sim_.now(), std::move(payload).fit()};
  // Pin the handler: the binding may be replaced/unbound before delivery.
  // A shared_ptr bump, not a std::function copy — no allocation per packet.
  std::shared_ptr<const DatagramHandler> handler = binding->handler;
  const NodeId at_node = binding->node;
  sim_.after(delay, [handler = std::move(handler), dgram = std::move(dgram),
                     at_node, this]() mutable {
    ++delivered_;
    obs_delivered_->add(1, sim_.now());
    (*handler)(dgram, at_node);
  });
  return true;
}

bool Network::send_stream(NodeId from_node, Endpoint src, Endpoint dst,
                          WireBuffer payload) {
  if (from_node >= node_count()) {
    throw std::out_of_range{"Network::send_stream"};
  }
  ++sent_;
  obs_sent_->add(1, sim_.now());
  obs_stream_sent_->add(1, sim_.now());
  obs_stream_bytes_->add(payload.size(), sim_.now());
  const Binding* binding = select_binding(from_node, dst);
  if (binding == nullptr) {
    ++unroutable_;
    obs_unroutable_->add(1, sim_.now());
    return false;
  }
  if (!route_hooks_.empty() && sink_packet(from_node, dst, binding->node)) {
    return true;  // the SYN dies in the convergence sink; sender sees silence
  }
  // Faults hit streams too: a blackholed/partitioned connection never
  // completes (the sender sees silence, like a SYN into a null route), and
  // latency spikes stretch the handshake.
  Duration fault_delay = Duration::zero();
  if (fault_hook_ != nullptr) {
    const FaultVerdict verdict = fault_hook_->on_packet(
        from_node, binding->node, src, dst, /*via_stream=*/true, sim_.now());
    if (verdict.drop) {
      ++dropped_;
      obs_dropped_->add(1, sim_.now());
      if (sim_.trace().enabled()) {
        sim_.trace().record({sim_.now(), obs::TraceKind::PacketDrop,
                             node(from_node).name,
                             node(binding->node).name, "fault_injector",
                             0.0});
      }
      return true;
    }
    fault_delay = verdict.extra_delay;
  }
  // TCP is reliable: no drop. Cost model: SYN (one way) + SYN/ACK (one
  // way back) + payload (one way) = three one-way delays before the
  // message is in the receiver's hands.
  const NodeInfo& a = node(from_node);
  const NodeInfo& b = node(binding->node);
  stats::Rng& frng = flow_rng(from_node, binding->node);
  Duration delay = fault_delay;
  for (int leg = 0; leg < 3; ++leg) {
    delay += latency_.one_way(a.id, a.point, b.id, b.point, frng);
  }
  Datagram dgram{src, dst, sim_.now(), std::move(payload).fit(), true};
  std::shared_ptr<const DatagramHandler> handler = binding->handler;
  const NodeId at_node = binding->node;
  sim_.after(delay, [handler = std::move(handler), dgram = std::move(dgram),
                     at_node, this]() mutable {
    ++delivered_;
    obs_delivered_->add(1, sim_.now());
    (*handler)(dgram, at_node);
  });
  return true;
}

Duration Network::base_rtt(NodeId a, NodeId b) {
  const NodeInfo& na = node(a);
  const NodeInfo& nb = node(b);
  return latency_.base_rtt(na.id, na.point, nb.id, nb.point);
}

Duration Network::base_rtt_to(NodeId from, IpAddress addr) {
  const NodeId target = route(from, addr);
  if (target == kInvalidNode) return Duration::zero();
  return base_rtt(from, target);
}

NodeId Network::route(NodeId from, IpAddress addr) {
  // Any port bound on the address counts; DNS uses port 53 everywhere in
  // this library, so scan the canonical port first, then any binding.
  const Binding* b = select_binding(from, Endpoint{addr, kDnsPort});
  if (b != nullptr) return b->node;
  for (const auto& [ep, list] : bindings_) {
    if (ep.addr == addr && !list.empty()) {
      const Binding* alt = select_binding(from, ep);
      if (alt != nullptr) return alt->node;
    }
  }
  return kInvalidNode;
}

NodeId Network::find_node(std::string_view name) const {
  if (base_ != nullptr) {
    for (const NodeInfo& n : base_->nodes) {
      if (n.name == name) return n.id;
    }
  }
  for (const NodeInfo& n : nodes_) {
    if (n.name == name) return n.id;
  }
  return kInvalidNode;
}

std::vector<NodeId> Network::bound_nodes(IpAddress addr) const {
  std::vector<NodeId> out;
  for (const auto& [ep, list] : bindings_) {
    if (ep.addr != addr) continue;
    for (const auto& b : list) {
      if (std::find(out.begin(), out.end(), b.node) == out.end()) {
        out.push_back(b.node);
      }
    }
  }
  return out;
}

}  // namespace recwild::net
