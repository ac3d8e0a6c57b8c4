#include "resolver/record_cache.hpp"

#include <gtest/gtest.h>

namespace recwild::resolver {
namespace {

net::SimTime at_s(double s) {
  return net::SimTime::origin() + net::Duration::seconds(s);
}

dns::RRset a_set(const char* name, dns::Ttl ttl, std::uint32_t ip = 1) {
  dns::RRset set;
  set.name = dns::Name::parse(name);
  set.type = dns::RRType::A;
  set.ttl = ttl;
  set.rdatas = {dns::ARdata{net::IpAddress{ip}}};
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
  EXPECT_EQ(std::get<dns::ARdata>(hit.rrset->rdatas[0]).address,
            net::IpAddress{2});
  EXPECT_EQ(cache.size(), 1u);
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

}  // namespace
}  // namespace recwild::resolver
