// Record cache: the resolver's local cache of RRsets with TTL expiry and a
// bounded LRU (paper §2 "local cache"). Also stores negative answers
// (NXDOMAIN / NODATA) per RFC 2308, keyed by (name, type).
//
// The paper's measurement design defeats this cache on purpose (unique
// labels, TTL 5 s); the cache still matters because NS sets and glue stay
// cached between probes, which is exactly why only the test authoritatives
// see the probe traffic after the first resolution.
#pragma once

#include <list>
#include <optional>
#include <unordered_map>

#include "dnscore/record.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"

namespace recwild::resolver {

struct RecordCacheConfig {
  std::size_t max_entries = 100'000;
  /// TTL clamp bounds (many resolvers clamp; e.g. Unbound cache-max-ttl).
  dns::Ttl min_ttl = 0;
  dns::Ttl max_ttl = 86'400;
};

/// A cached positive RRset or negative marker.
struct CacheEntry {
  dns::RRset rrset;            // empty rdatas => negative entry
  bool negative = false;
  dns::Rcode negative_rcode = dns::Rcode::NoError;  // NXDOMAIN vs NODATA
  net::SimTime expires_at;
};

/// A positive lookup's result, borrowed from the cache: the live cached
/// RRset and the TTL remaining on it. Empty on miss/expired/negative. Valid
/// until the entry leaves the cache: do not hold it across put,
/// put_negative, clear, or a later lookup of the same (name, type).
struct CacheHit {
  const dns::RRset* rrset = nullptr;
  dns::Ttl ttl = 0;  // remaining at lookup time; rrset->ttl is the stored one

  explicit operator bool() const noexcept { return rrset != nullptr; }
  /// Appends the set's records, each carrying the remaining TTL.
  void append_records(std::vector<dns::ResourceRecord>& out) const;
};

class RecordCache {
 public:
  explicit RecordCache(RecordCacheConfig config = {}) : config_(config) {}

  /// Positive lookup without a copy (see CacheHit for the view's life).
  CacheHit get(const dns::Name& name, dns::RRType type, net::SimTime now);

  /// Negative lookup: returns the stored rcode when a negative entry for
  /// (name, type) is live.
  std::optional<dns::Rcode> get_negative(const dns::Name& name,
                                         dns::RRType type, net::SimTime now);

  /// Metrics- and LRU-neutral probe: the live positive RRset for
  /// (name, type), or nullptr on miss/expired/negative. Counts nothing and
  /// never reorders the LRU — for bookkeeping checks (e.g. the resolver's
  /// fetch-limit glue test) that must not perturb cache-metric fixtures.
  /// The returned TTL is the stored one, not decremented to now.
  [[nodiscard]] const dns::RRset* peek(const dns::Name& name,
                                       dns::RRType type,
                                       net::SimTime now) const;

  /// Inserts/overwrites a positive RRset (TTL clamped to config bounds).
  void put(const dns::RRset& rrset, net::SimTime now);

  /// Inserts a negative entry with the zone's negative TTL.
  void put_negative(const dns::Name& name, dns::RRType type, dns::Rcode rcode,
                    dns::Ttl ttl, net::SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  void clear();

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Mirrors hit/miss/eviction counts into `registry` (obs::names::kRrcache*)
  /// from this call on. Optional; without it the cache records nothing.
  void attach_metrics(obs::MetricRegistry& registry);

 private:
  struct Key {
    dns::Name name;
    dns::RRType type;
    bool operator==(const Key& o) const {
      return type == o.type && name == o.name;
    }
  };
  /// Borrowed key for transparent lookups: find() probes with the caller's
  /// Name instead of copying its label vector into a fresh Key per lookup
  /// (that copy used to top the campaign profile).
  struct KeyView {
    const dns::Name& name;
    dns::RRType type;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Key& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) * 0x9e3779b9);
    }
    std::size_t operator()(const KeyView& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) * 0x9e3779b9);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const Key& a, const Key& b) const { return a == b; }
    bool operator()(const Key& a, const KeyView& b) const {
      return a.type == b.type && a.name == b.name;
    }
    bool operator()(const KeyView& a, const Key& b) const {
      return b.type == a.type && b.name == a.name;
    }
  };
  struct Slot {
    CacheEntry entry;
    std::list<const Key*>::iterator lru_pos;
  };

  CacheEntry* find_live(const dns::Name& name, dns::RRType type,
                        net::SimTime now);
  void touch(Slot& slot);
  void insert(Key key, CacheEntry entry, net::SimTime now);
  void evict_one(net::SimTime now);

  RecordCacheConfig config_;
  std::unordered_map<Key, Slot, KeyHash, KeyEq> entries_;
  /// Keys of entries_ in recency order, front = most recent. Each points
  /// at its map node's key, which stays put until that entry is erased.
  std::list<const Key*> lru_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  // Optional registry mirrors (null until attach_metrics).
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_negative_hits_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
};

}  // namespace recwild::resolver
