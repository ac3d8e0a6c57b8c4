// Node recycling for node-based maps.
//
// A resolver's or stub's per-query maps (queries in flight, transmissions
// awaiting a reply, deadline batches) gain and lose one element per query,
// so a plain std::unordered_map allocates and frees a node every time.
// NodePool parks erased nodes and links them back in on insertion, so a
// map whose size moves within kMaxSpare of its high-water mark stops
// allocating. Past kMaxSpare parked nodes an erase frees its node: a map
// that drains after a burst (a scan's 1,024 resolutions in flight) gives
// that memory back instead of holding it for the node's lifetime. The map
// itself is unchanged — it links a reused node exactly where it would link
// a new one, so iteration order, and everything that depends on it, stays
// the same.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace recwild::stats {

template <class Map>
class NodePool {
 public:
  static constexpr std::size_t kMaxSpare = 16;

  using iterator = typename Map::iterator;
  using key_type = typename Map::key_type;
  using mapped_type = typename Map::mapped_type;

  /// Like map.try_emplace(key): a new element takes a parked node when
  /// there is one, with its value as erase() left it (a fresh value unless
  /// the scrub kept something, such as a vector's capacity).
  std::pair<iterator, bool> try_emplace(Map& map, const key_type& key) {
    if (spare_.empty()) return map.try_emplace(key);
    if (const auto it = map.find(key); it != map.end()) return {it, false};
    typename Map::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    const auto result = map.insert(std::move(node));
    return {result.position, true};
  }

  /// Erases the element at `it` and parks its node, after `scrub` has
  /// released what the value holds (references it must not keep alive).
  template <class Scrub>
  void erase(Map& map, iterator it, Scrub&& scrub) {
    if (spare_.size() >= kMaxSpare) {
      map.erase(it);
      return;
    }
    spare_.push_back(map.extract(it));
    scrub(spare_.back().mapped());
  }
  /// erase() that resets the value to a fresh one.
  void erase(Map& map, iterator it) {
    erase(map, it, [](mapped_type& v) { v = mapped_type{}; });
  }

 private:
  std::vector<typename Map::node_type> spare_;
};

}  // namespace recwild::stats
