// Record cache: the resolver's local cache of RRsets with TTL expiry and a
// bounded LRU (paper §2 "local cache"). Also stores negative answers
// (NXDOMAIN / NODATA) per RFC 2308, keyed by (name, type).
//
// The paper's measurement design defeats this cache on purpose (unique
// labels, TTL 5 s); the cache still matters because NS sets and glue stay
// cached between probes, which is exactly why only the test authoritatives
// see the probe traffic after the first resolution.
//
// Layout: entries live in a slab of slots with a free list, each slot
// holding the entry, its key hash and the intrusive prev/next indices of
// the LRU list. An entry's key is its own rrset.name/rrset.type. The slab
// grows in fixed chunks that never move, so an entry stays put until it is
// erased, and a small cache wastes at most one partial chunk. A
// linear-probing index maps keys to slot ids; each bucket also keeps the
// key hash, so a probe compares slots only when the hashes agree and a miss
// never reads a slot. Erasing shifts later buckets back, so the index holds
// no tombstones.
//
// Expiry: a lookup erases the expired entry it finds, but a probe's unique
// label is never looked up again, so insert also sweeps. When a new key
// finds the size at twice what the last sweep left (at least 16, the
// index's first size), one walk of the LRU list erases every entry expired
// at that instant, in amortized O(1) per insert; freed slots are reused.
// A sweep removes only entries a lookup would miss and keeps the LRU order
// of the rest, so below max_entries it changes no lookup, hit, miss or
// eviction: only size() and bytes() fall.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

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
  dns::RRset rrset;            // no RDATA => negative entry
  net::SimTime expires_at;
  bool negative = false;
  dns::Rcode negative_rcode = dns::Rcode::NoError;  // NXDOMAIN vs NODATA
};

/// A positive lookup's result, borrowed from the cache: the live cached
/// RRset and the TTL remaining on it. Empty on miss/expired/negative. Valid
/// until the entry leaves the cache: do not hold it across put,
/// put_negative, clear, or a later lookup of the same (name, type). Lookups
/// of other keys keep it valid, even one that erases an expired entry, and
/// a sweep erases only entries expired at the sweeping put's time.
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
  /// Pass an rvalue to hand the set's storage to the cache without a copy.
  void put(dns::RRset rrset, net::SimTime now);

  /// Inserts a negative entry with the zone's negative TTL.
  void put_negative(const dns::Name& name, dns::RRType type, dns::Rcode rcode,
                    dns::Ttl ttl, net::SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Heap bytes the cache holds: slab chunks and their table, the index,
  /// and the spilled names and RDATA blocks of its entries (allocator
  /// overhead excluded).
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Calls `fn(const CacheEntry&)` for every entry, expired ones included,
  /// most recently used first. Counts nothing and touches no LRU order.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    for (SlotId id = lru_head_; id != kNone; id = slot(id).next) {
      fn(slot(id).entry);
    }
  }
  void clear();

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Mirrors hit/miss/eviction counts into `registry` (obs::names::kRrcache*)
  /// from this call on. Optional; without it the cache records nothing.
  void attach_metrics(obs::MetricRegistry& registry);

 private:
  using SlotId = std::uint32_t;
  static constexpr SlotId kNone = ~SlotId{0};

  struct Slot {
    /// Lets the fields below share the entry's tail padding.
    [[no_unique_address]] CacheEntry entry;
    std::uint32_t hash = 0;
    /// LRU neighbours, towards the front (more recent) and the back. A free
    /// slot links the free list through `next`.
    SlotId prev = kNone;
    SlotId next = kNone;
  };
  static_assert(sizeof(Slot) == 104);
  struct Bucket {
    SlotId slot = kNone;  // kNone = empty
    std::uint32_t hash = 0;
  };

  static std::uint32_t hash_of(const dns::Name& name,
                               dns::RRType type) noexcept;
  /// Index position of (name, type), or kNotFound.
  [[nodiscard]] std::size_t find(const dns::Name& name, dns::RRType type,
                                 std::uint32_t hash) const noexcept;
  [[nodiscard]] std::size_t home(std::uint32_t hash) const noexcept {
    return hash >> shift_;
  }
  [[nodiscard]] Slot& slot(SlotId id) noexcept {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot(SlotId id) const noexcept {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  CacheEntry* find_live(const dns::Name& name, dns::RRType type,
                        net::SimTime now);
  void insert(CacheEntry entry, net::SimTime now);
  /// Drops the entry at index position `pos` from the index, the LRU list
  /// and the slab.
  void erase_at(std::size_t pos);
  /// Index position of the entry in slot `id`.
  [[nodiscard]] std::size_t pos_of(SlotId id) const noexcept;
  void evict_one(net::SimTime now);
  /// Erases every entry expired at `now` and sets the next sweep's size.
  void sweep(net::SimTime now);
  void place(SlotId id, std::uint32_t hash);
  void grow_index();
  /// Moves the entry to the front of the LRU list.
  void touch(SlotId id);
  void link_front(SlotId id);
  void unlink(SlotId id);

  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr SlotId kChunkSlots = 16;
  static constexpr std::size_t kMinSweepAt = 16;

  RecordCacheConfig config_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  SlotId slots_used_ = 0;  // slots ever handed out; the rest are unused
  std::vector<Bucket> index_;  // size a power of two (or 0), load <= 3/4
  unsigned shift_ = 32;        // home(hash) = hash >> shift_
  std::size_t size_ = 0;
  std::size_t sweep_at_ = kMinSweepAt;  // a new key at this size sweeps
  SlotId free_head_ = kNone;
  SlotId lru_head_ = kNone;  // most recently used
  SlotId lru_tail_ = kNone;  // next eviction victim
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
