#include "resolver/record_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <list>
#include <random>
#include <string>
#include <unordered_map>

namespace recwild::resolver {
namespace {

net::SimTime at_s(double s) {
  return net::SimTime::origin() + net::Duration::seconds(s);
}

/// The uncompressed wire form of `rdata`, as an RRset stores it.
std::vector<std::uint8_t> wire_of(const dns::Rdata& rdata) {
  const dns::ResourceRecord rr{dns::Name{}, dns::RRClass::IN, 0, rdata};
  return {rr.rdata().wire().begin(), rr.rdata().wire().end()};
}

dns::RRset a_set(const char* name, dns::Ttl ttl, std::uint32_t ip = 1) {
  dns::RRset set;
  set.name = dns::Name::parse(name);
  set.type = dns::RRType::A;
  set.ttl = ttl;
  set.add(wire_of(dns::ARdata{net::IpAddress{ip}}));
  return set;
}

TEST(RecordCache, MissOnEmpty) {
  RecordCache cache;
  EXPECT_FALSE(
      cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(0)));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RecordCache, HitReturnsStoredSet) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const auto hit = cache.get(dns::Name::parse("x.nl"), dns::RRType::A,
                             at_s(1));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.rrset->size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(RecordCache, TtlCountsDown) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const auto hit = cache.get(dns::Name::parse("x.nl"), dns::RRType::A,
                             at_s(100));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.ttl, 200u);
  EXPECT_EQ(hit.rrset->ttl, 300u);  // the stored set is not rewritten
}

TEST(RecordCache, ExpiresAtTtl) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  EXPECT_TRUE(cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(299)));
  EXPECT_FALSE(cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(300)));
  EXPECT_EQ(cache.size(), 0u);  // expired entry evicted on access
}

TEST(RecordCache, PeekAndGetAgreeOnTheExpiryBoundary) {
  // Regression guard for the resolver's pipelined front door: peek is the
  // admission-bypass probe and get is the resolution path. They must share
  // the `expires_at <= now` boundary — if peek called an entry live one
  // instant longer than get, a waiter arriving exactly at expiry would
  // bypass admission, then miss in get and run upstream without ever
  // holding an inflight slot.
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const dns::Name name = dns::Name::parse("x.nl");
  EXPECT_NE(cache.peek(name, dns::RRType::A, at_s(299)), nullptr);
  EXPECT_TRUE(cache.get(name, dns::RRType::A, at_s(299)));
  // peek first (metrics/LRU-neutral, so it cannot evict), then get.
  cache.put(a_set("x.nl", 300), at_s(0));
  EXPECT_EQ(cache.peek(name, dns::RRType::A, at_s(300)), nullptr);
  EXPECT_FALSE(cache.get(name, dns::RRType::A, at_s(300)));
}

TEST(RecordCache, PeekIsMetricsAndLruNeutral) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  const auto hits = cache.hits();
  const auto misses = cache.misses();
  (void)cache.peek(dns::Name::parse("x.nl"), dns::RRType::A, at_s(1));
  (void)cache.peek(dns::Name::parse("absent.nl"), dns::RRType::A, at_s(1));
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
}

TEST(RecordCache, TtlClampedToMax) {
  RecordCacheConfig cfg;
  cfg.max_ttl = 100;
  RecordCache cache{cfg};
  cache.put(a_set("x.nl", 999'999), at_s(0));
  EXPECT_FALSE(cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(101)));
}

TEST(RecordCache, KeyIncludesType) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300), at_s(0));
  EXPECT_FALSE(cache.get(dns::Name::parse("x.nl"), dns::RRType::TXT, at_s(1)));
}

TEST(RecordCache, KeyIsCaseInsensitive) {
  RecordCache cache;
  cache.put(a_set("X.NL", 300), at_s(0));
  EXPECT_TRUE(cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(1)));
}

TEST(RecordCache, OverwriteReplacesEntry) {
  RecordCache cache;
  cache.put(a_set("x.nl", 300, 1), at_s(0));
  cache.put(a_set("x.nl", 300, 2), at_s(1));
  const auto hit =
      cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(2));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.rrset->front().a(), net::IpAddress{2});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RecordCache, OneTxtEntryCostsAtMost160Bytes) {
  // A campaign's caches hold mostly probe answers: one short TXT at a
  // unique name. Each must cost at most 160 bytes, counting its slab slot
  // and its share of the index and of the chunk table.
  RecordCache cache{RecordCacheConfig{.max_entries = 1'000'000}};
  constexpr std::size_t kEntries = 100'000;
  for (std::size_t i = 0; i < kEntries; ++i) {
    dns::RRset set{
        dns::Name::parse("p" + std::to_string(i) + ".ourtestdomain.nl"),
        dns::RRClass::IN, dns::RRType::TXT, 5, {}};
    set.add(wire_of(dns::TxtRdata{{"FRA"}}));
    cache.put(std::move(set), at_s(0));
  }
  ASSERT_EQ(cache.size(), kEntries);
  const double per_entry = double(cache.bytes()) / double(kEntries);
  std::printf("one-TXT cache entry: %.1f bytes\n", per_entry);
  EXPECT_LE(per_entry, 160.0);
}

TEST(RecordCache, LruEvictionAtCapacity) {
  RecordCacheConfig cfg;
  cfg.max_entries = 3;
  RecordCache cache{cfg};
  cache.put(a_set("a.nl", 300), at_s(0));
  cache.put(a_set("b.nl", 300), at_s(0));
  cache.put(a_set("c.nl", 300), at_s(0));
  // Touch a.nl so b.nl becomes the LRU victim.
  (void)cache.get(dns::Name::parse("a.nl"), dns::RRType::A, at_s(1));
  cache.put(a_set("d.nl", 300), at_s(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get(dns::Name::parse("a.nl"), dns::RRType::A, at_s(3)));
  EXPECT_FALSE(cache.get(dns::Name::parse("b.nl"), dns::RRType::A, at_s(3)));
}

TEST(RecordCache, NegativeEntriesStoreRcode) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("gone.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  const auto neg = cache.get_negative(dns::Name::parse("gone.nl"),
                                      dns::RRType::A, at_s(1));
  ASSERT_TRUE(neg.has_value());
  EXPECT_EQ(*neg, dns::Rcode::NxDomain);
  // A negative entry is not a positive hit.
  EXPECT_FALSE(cache.get(dns::Name::parse("gone.nl"), dns::RRType::A,
                         at_s(1)));
}

TEST(RecordCache, NegativeEntriesExpire) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("gone.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  EXPECT_FALSE(cache.get_negative(dns::Name::parse("gone.nl"),
                                  dns::RRType::A, at_s(61))
                   .has_value());
}

TEST(RecordCache, NodataNegativeUsesNoError) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("x.nl"), dns::RRType::MX,
                     dns::Rcode::NoError, 60, at_s(0));
  EXPECT_EQ(cache.get_negative(dns::Name::parse("x.nl"), dns::RRType::MX,
                               at_s(1)),
            dns::Rcode::NoError);
}

TEST(RecordCache, PositiveOverwritesNegative) {
  RecordCache cache;
  cache.put_negative(dns::Name::parse("x.nl"), dns::RRType::A,
                     dns::Rcode::NxDomain, 60, at_s(0));
  cache.put(a_set("x.nl", 300), at_s(1));
  EXPECT_TRUE(cache.get(dns::Name::parse("x.nl"), dns::RRType::A, at_s(2)));
  EXPECT_FALSE(cache.get_negative(dns::Name::parse("x.nl"), dns::RRType::A,
                                  at_s(2))
                   .has_value());
}

TEST(RecordCache, ClearEmptiesEverything) {
  RecordCache cache;
  cache.put(a_set("a.nl", 300), at_s(0));
  cache.put(a_set("b.nl", 300), at_s(0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(dns::Name::parse("a.nl"), dns::RRType::A, at_s(1)));
}

TEST(RecordCache, HitSurvivesALookupThatErasesAnotherExpiredEntry) {
  // find_zone_cut's access pattern: it holds the NS set's CacheHit while it
  // looks up each server's addresses, and those lookups lazily erase
  // expired entries. Erasing must not move the entry the hit points at.
  RecordCache cache;
  dns::RRset ns;
  ns.name = dns::Name::parse("nl");
  ns.type = dns::RRType::NS;
  ns.ttl = 3600;
  for (const char* host : {"ns1.dns.nl", "ns2.dns.nl", "ns3.dns.nl"}) {
    ns.add(wire_of(dns::NsRdata{dns::Name::parse(host)}));
  }
  cache.put(ns, at_s(0));
  for (int i = 0; i < 40; ++i) {
    const std::string name = "gone" + std::to_string(i) + ".nl";
    cache.put(a_set(name.c_str(), 5, std::uint32_t(i)), at_s(0));
  }
  const CacheHit hit =
      cache.get(dns::Name::parse("nl"), dns::RRType::NS, at_s(10));
  ASSERT_TRUE(hit);
  const dns::RRset* held = hit.rrset;
  for (int i = 0; i < 40; ++i) {
    const std::string name = "gone" + std::to_string(i) + ".nl";
    EXPECT_FALSE(
        cache.get(dns::Name::parse(name), dns::RRType::A, at_s(10)));
    ASSERT_EQ(hit.rrset, held);
    ASSERT_EQ(hit.rrset->size(), 3u);
    EXPECT_EQ((*std::next(hit.rrset->begin(), 2)).target(),
              dns::Name::parse("ns3.dns.nl"));
  }
  EXPECT_EQ(cache.size(), 1u);
}

// The cache as it was built on std::unordered_map + std::list, kept as the
// reference the slab cache must match result for result. It sweeps expired
// entries by the slab cache's rule unless built with Sweep::kNever, which
// keeps them until a lookup finds them, as the cache once did.
class ReferenceCache {
 public:
  enum class Sweep { kAtDoubling, kNever };

  explicit ReferenceCache(RecordCacheConfig config,
                          Sweep sweep = Sweep::kAtDoubling)
      : config_(config), sweep_(sweep) {}

  std::optional<std::pair<dns::RRset, dns::Ttl>> get(const dns::Name& name,
                                                     dns::RRType type,
                                                     net::SimTime now) {
    CacheEntry* e = find_live(name, type, now);
    if (e == nullptr || e->negative) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    const double remaining = (e->expires_at - now).sec();
    return std::pair{e->rrset,
                     static_cast<dns::Ttl>(std::max(0.0, remaining))};
  }

  std::optional<dns::Rcode> get_negative(const dns::Name& name,
                                         dns::RRType type,
                                         net::SimTime now) {
    CacheEntry* e = find_live(name, type, now);
    if (e == nullptr || !e->negative) return std::nullopt;
    return e->negative_rcode;
  }

  const dns::RRset* peek(const dns::Name& name, dns::RRType type,
                         net::SimTime now) const {
    const auto it = entries_.find(Key{name, type});
    if (it == entries_.end()) return nullptr;
    const CacheEntry& e = it->second.entry;
    if (e.expires_at <= now || e.negative) return nullptr;
    return &e.rrset;
  }

  void put(const dns::RRset& rrset, net::SimTime now) {
    CacheEntry entry;
    entry.rrset = rrset;
    entry.rrset.ttl = std::clamp(rrset.ttl, config_.min_ttl, config_.max_ttl);
    entry.expires_at = now + net::Duration::seconds(entry.rrset.ttl);
    insert(Key{rrset.name, rrset.type}, std::move(entry), now);
  }

  void put_negative(const dns::Name& name, dns::RRType type,
                    dns::Rcode rcode, dns::Ttl ttl, net::SimTime now) {
    CacheEntry entry;
    entry.negative = true;
    entry.negative_rcode = rcode;
    entry.rrset.name = name;
    entry.rrset.type = type;
    entry.expires_at =
        now + net::Duration::seconds(
                  std::clamp(ttl, config_.min_ttl, config_.max_ttl));
    insert(Key{name, type}, std::move(entry), now);
  }

  void clear() {
    entries_.clear();
    lru_.clear();
    sweep_at_ = 16;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct Key {
    dns::Name name;
    dns::RRType type;
    bool operator==(const Key& o) const {
      return type == o.type && name == o.name;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return k.name.hash() ^ (static_cast<std::size_t>(k.type) * 0x9e3779b9);
    }
  };
  struct Slot {
    CacheEntry entry;
    std::list<Key>::iterator lru_pos;
  };

  CacheEntry* find_live(const dns::Name& name, dns::RRType type,
                        net::SimTime now) {
    auto it = entries_.find(Key{name, type});
    if (it == entries_.end()) return nullptr;
    if (it->second.entry.expires_at <= now) {
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second.entry;
  }

  void insert(Key key, CacheEntry entry, net::SimTime now) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.entry = std::move(entry);
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    if (sweep_ == Sweep::kAtDoubling && entries_.size() >= sweep_at_) {
      for (auto pos = lru_.begin(); pos != lru_.end();) {
        const auto found = entries_.find(*pos);
        if (found->second.entry.expires_at > now) {
          ++pos;
          continue;
        }
        entries_.erase(found);
        pos = lru_.erase(pos);
      }
      sweep_at_ = std::max<std::size_t>(16, 2 * entries_.size());
    }
    while (entries_.size() >= config_.max_entries) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++evictions_;
    }
    lru_.push_front(key);
    entries_.emplace(std::move(key), Slot{std::move(entry), lru_.begin()});
  }

  RecordCacheConfig config_;
  Sweep sweep_;
  std::size_t sweep_at_ = 16;
  std::unordered_map<Key, Slot, KeyHash> entries_;
  std::list<Key> lru_;  // front = most recent
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

void expect_same_set(const dns::RRset& got, const dns::RRset& want,
                     const std::string& where) {
  // Case kept as written: an overwrite stores the newest spelling.
  EXPECT_EQ(got.name.to_string(), want.name.to_string()) << where;
  EXPECT_EQ(got.type, want.type) << where;
  EXPECT_EQ(got.ttl, want.ttl) << where;
  EXPECT_TRUE(std::ranges::equal(got.block.bytes(), want.block.bytes()))
      << where;
}

/// Runs 60 seeded streams of 3,000 random operations on the slab cache and
/// on `reference` in step, and checks every lookup result and the hit, miss
/// and eviction counts after each operation. With the sweeping reference
/// the sizes must match too; the never-sweeping one only bounds them.
/// Counts in `smaller` the operations that left the slab cache smaller.
void run_against(ReferenceCache::Sweep reference, std::uint64_t& smaller) {
  // A pool of names, each spelt in random case per operation, so keys
  // collide across spellings; short TTLs make expiry frequent, both as
  // erase-on-lookup and in sweeps.
  static constexpr const char* kNames[] = {
      "a.nl", "b.nl", "www.a.nl", "ns1.dns.nl", "x.example", "nl",
      "c.b.a.nl", "q1x2.ourtestdomain.nl", "y.example", "z.example",
      "deep.er.name.example", "m.nl"};
  static constexpr dns::RRType kTypes[] = {dns::RRType::A, dns::RRType::AAAA,
                                           dns::RRType::NS, dns::RRType::TXT};
  const bool same_rule = reference == ReferenceCache::Sweep::kAtDoubling;
  std::uint64_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 gen{seed};
    const auto pick = [&gen](std::uint64_t n) { return gen() % n; };
    const auto name = [&] {
      std::string s = pick(2) == 0 ? kNames[pick(std::size(kNames))]
                                   : "h" + std::to_string(pick(40)) + ".nl";
      for (char& c : s) {
        if (pick(2) == 0) c = static_cast<char>(std::toupper(c));
      }
      return dns::Name::parse(s);
    };
    RecordCacheConfig cfg;
    // The sweeping reference: mostly tiny, so evictions and slot reuse are
    // constant; every third run large enough to grow the index and sweep.
    // The never-sweeping one: a cap no run reaches, as in a campaign.
    cfg.max_entries = seed % 3 == 0 ? 60 + pick(100) : 1 + pick(6);
    if (!same_rule) cfg.max_entries = 1'000'000;
    cfg.max_ttl = 6;
    RecordCache cache{cfg};
    ReferenceCache ref{cfg, reference};
    double now_s = 0;
    for (int op = 0; op < 3'000; ++op) {
      now_s += double(pick(4)) * 0.5;
      const net::SimTime now = at_s(now_s);
      const dns::Name n = name();
      const dns::RRType type = kTypes[pick(std::size(kTypes))];
      const std::string where = "seed " + std::to_string(seed) + " op " +
                                std::to_string(op) + " " + n.to_string();
      switch (pick(10)) {
        case 0:
        case 1: {
          dns::RRset set;
          set.name = n;
          set.type = type;
          set.ttl = static_cast<dns::Ttl>(pick(9));  // some above max_ttl
          for (std::uint64_t i = 1 + pick(3); i > 0; --i) {
            set.add(wire_of(
                dns::TxtRdata{{std::to_string(op), std::to_string(i)}}));
          }
          cache.put(set, now);
          ref.put(set, now);
          break;
        }
        case 2: {
          const auto rcode =
              pick(2) == 0 ? dns::Rcode::NxDomain : dns::Rcode::NoError;
          const auto ttl = static_cast<dns::Ttl>(pick(9));
          cache.put_negative(n, type, rcode, ttl, now);
          ref.put_negative(n, type, rcode, ttl, now);
          break;
        }
        case 3:
        case 4:
        case 5: {
          const CacheHit got = cache.get(n, type, now);
          const auto want = ref.get(n, type, now);
          ASSERT_EQ(bool(got), want.has_value()) << where;
          if (got) {
            expect_same_set(*got.rrset, want->first, where);
            EXPECT_EQ(got.ttl, want->second) << where;
          }
          break;
        }
        case 6:
        case 7:
          EXPECT_EQ(cache.get_negative(n, type, now),
                    ref.get_negative(n, type, now))
              << where;
          break;
        case 8: {
          const dns::RRset* got = cache.peek(n, type, now);
          const dns::RRset* want = ref.peek(n, type, now);
          ASSERT_EQ(got != nullptr, want != nullptr) << where;
          if (got != nullptr) expect_same_set(*got, *want, where);
          break;
        }
        default:
          if (pick(20) == 0) {  // rare: most runs should fill up
            cache.clear();
            ref.clear();
          }
          break;
      }
      if (same_rule) {
        ASSERT_EQ(cache.size(), ref.size()) << where;
      } else {
        ASSERT_LE(cache.size(), ref.size()) << where;
      }
      ASSERT_EQ(cache.hits(), ref.hits()) << where;
      ASSERT_EQ(cache.misses(), ref.misses()) << where;
      ASSERT_EQ(cache.evictions(), ref.evictions()) << where;
      if (cache.size() < ref.size()) ++smaller;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 60u * 3'000u);
}

TEST(RecordCache, MatchesTheMapAndListReference) {
  std::uint64_t smaller = 0;
  run_against(ReferenceCache::Sweep::kAtDoubling, smaller);
}

TEST(RecordCache, SweepChangesNoLookupBelowTheCap) {
  // Against a reference that never sweeps, only size() may differ: every
  // lookup, hit, miss and eviction (none) is the same.
  std::uint64_t smaller = 0;
  run_against(ReferenceCache::Sweep::kNever, smaller);
  EXPECT_GT(smaller, 0u);  // the sweep did run
}

TEST(RecordCache, ExpiredEntriesAreReclaimed) {
  // A campaign's pattern: unique TTL-5 probe answers, 20 per simulated
  // second, next to a few long-TTL NS sets that stay live throughout.
  RecordCache cache;
  const auto ns_set = [](const std::string& zone) {
    dns::RRset ns;
    ns.name = dns::Name::parse(zone);
    ns.type = dns::RRType::NS;
    ns.ttl = 86'400;
    for (const char* host : {"ns1.dns.nl", "ns2.dns.nl"}) {
      ns.add(wire_of(dns::NsRdata{dns::Name::parse(host)}));
    }
    return ns;
  };
  static constexpr const char* kZones[] = {"nl", "dns.nl",
                                           "ourtestdomain.nl"};
  for (const char* zone : kZones) cache.put(ns_set(zone), at_s(0));

  constexpr int kPuts = 20'000;
  constexpr int kPerSecond = 20;
  // Live at any instant: the probe answers of the last 5 s, and the NS sets.
  constexpr std::size_t kPeakLive = 5 * kPerSecond + std::size(kZones);
  std::size_t bytes_after_warmup = 0;
  std::size_t sweeps = 0;
  for (int i = 0; i < kPuts; ++i) {
    const net::SimTime now = at_s(double(i) / kPerSecond);
    // Borrowed before a put that may sweep; the set is live at `now`.
    const CacheHit held = cache.get(dns::Name::parse("dns.nl"),
                                    dns::RRType::NS, now);
    ASSERT_TRUE(held);
    const dns::RRset* before = held.rrset;
    const std::size_t size_before = cache.size();
    dns::RRset probe{
        dns::Name::parse("p" + std::to_string(i) + ".ourtestdomain.nl"),
        dns::RRClass::IN, dns::RRType::TXT, 5, {}};
    probe.add(wire_of(dns::TxtRdata{{"FRA"}}));
    cache.put(std::move(probe), now);
    if (cache.size() <= size_before) {
      ++sweeps;
      ASSERT_EQ(held.rrset, before);
      ASSERT_EQ(held.rrset->size(), 2u);
      EXPECT_EQ((*std::next(held.rrset->begin(), 1)).target(),
                dns::Name::parse("ns2.dns.nl"));
    }
    ASSERT_LE(cache.size(), 2 * kPeakLive + 16) << "put " << i;
    if (i == kPuts / 4) bytes_after_warmup = cache.bytes();
    // Past warm-up the slab, the index and the chunk table stop growing.
    if (i > kPuts / 4) {
      ASSERT_EQ(cache.bytes(), bytes_after_warmup) << "put " << i;
    }
  }
  EXPECT_GT(sweeps, 100u);
  EXPECT_EQ(cache.evictions(), 0u);
  const net::SimTime end = at_s(double(kPuts) / kPerSecond);
  for (const char* zone : kZones) {
    const CacheHit hit =
        cache.get(dns::Name::parse(zone), dns::RRType::NS, end);
    ASSERT_TRUE(hit) << zone;
    EXPECT_EQ(hit.rrset->size(), 2u) << zone;
    EXPECT_EQ(hit.rrset->front().target(), dns::Name::parse("ns1.dns.nl"))
        << zone;
  }
}

}  // namespace
}  // namespace recwild::resolver
