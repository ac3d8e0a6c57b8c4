// The authoritative query log: its append-only record store read back
// through the entries() view, its counters, and its byte cost.
#include "authns/query_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

namespace recwild::authns {
namespace {

QueryLogEntry entry_at(std::int64_t i, const dns::Name& qname) {
  return {net::SimTime::from_micros(i * 7),
          net::IpAddress{static_cast<std::uint32_t>(0x0a000000 + i % 5)},
          qname, i % 2 == 0 ? dns::RRType::TXT : dns::RRType::AAAA};
}

TEST(QueryLog, EmptyLog) {
  const QueryLog log;
  EXPECT_TRUE(log.entries().empty());
  EXPECT_EQ(log.entries().size(), 0u);
  EXPECT_EQ(log.entries().begin(), log.entries().end());
  EXPECT_EQ(log.total(), 0u);
  EXPECT_TRUE(log.per_client().empty());
}

TEST(QueryLog, IndexAndIterationFollowArrivalOrder) {
  // 5,000 entries cross every doubling chunk boundary and two full-size
  // chunks.
  const dns::Name domain = dns::Name::parse("ourtestdomain.nl");
  QueryLog log;
  constexpr std::int64_t kN = 5'000;
  for (std::int64_t i = 0; i < kN; ++i) {
    log.record(entry_at(i, domain.prefixed("s" + std::to_string(i))));
  }
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), std::size_t{kN});
  for (std::int64_t i = 0; i < kN; ++i) {
    const QueryLogEntry want =
        entry_at(i, domain.prefixed("s" + std::to_string(i)));
    const QueryLogEntry got = entries[static_cast<std::size_t>(i)];
    ASSERT_EQ(got.at, want.at) << i;
    ASSERT_EQ(got.client, want.client) << i;
    ASSERT_EQ(got.qname, want.qname) << i;
    ASSERT_EQ(got.qtype, want.qtype) << i;
  }
  std::int64_t i = 0;
  for (const auto& e : log.entries()) {
    ASSERT_EQ(e.at, net::SimTime::from_micros(i * 7)) << i;
    ASSERT_EQ(e.qname, domain.prefixed("s" + std::to_string(i))) << i;
    ++i;
  }
  EXPECT_EQ(i, kN);
  EXPECT_EQ(log.total(), std::uint64_t{kN});
  EXPECT_EQ(log.per_client().size(), 5u);
}

TEST(QueryLog, LongNameSpillsAndRoundTrips) {
  const dns::Name tiny = dns::Name::parse("a.nl");
  const dns::Name longest = dns::Name::parse(
      std::string(63, 'x') + "." + std::string(63, 'Y') + "." +
      std::string(63, 'z') + "." + std::string(61, 'W'));
  ASSERT_EQ(longest.wire_length(), dns::kMaxNameWireLength);
  const dns::Name spilled =
      dns::Name::parse("a-label-of-some-length.Another-Label.example.nl");
  ASSERT_GT(spilled.wire().size(), dns::Name::kInlineCapacity);
  QueryLog log;
  // Enough longest names to fill the first name chunks past their ends.
  for (int i = 0; i < 600; ++i) {
    log.record({net::SimTime::from_micros(i), net::IpAddress{1},
                i % 3 == 0 ? longest : (i % 3 == 1 ? spilled : tiny),
                dns::RRType::A});
  }
  const auto entries = log.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const dns::Name& want = i % 3 == 0 ? longest : (i % 3 == 1 ? spilled : tiny);
    const QueryLogEntry e = entries[i];
    ASSERT_EQ(e.qname, want) << i;
    // Byte-exact, case kept.
    ASSERT_TRUE(std::equal(e.qname.wire().begin(), e.qname.wire().end(),
                           want.wire().begin(), want.wire().end()))
        << i;
    ASSERT_EQ(e.qname.spilled(), want.spilled()) << i;
    ASSERT_EQ(e.qname.label_count(), want.label_count()) << i;
  }
}

TEST(QueryLog, ClearForgetsEntriesAndCounts) {
  QueryLog log;
  const dns::Name name = dns::Name::parse("x.nl");
  for (int i = 0; i < 100; ++i) log.record(entry_at(i, name));
  log.clear();
  EXPECT_TRUE(log.entries().empty());
  EXPECT_EQ(log.total(), 0u);
  EXPECT_TRUE(log.per_client().empty());
  log.record(entry_at(3, dns::Name::parse("y.nl")));
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries()[0].qname, dns::Name::parse("y.nl"));
  EXPECT_EQ(log.entries()[0].at, net::SimTime::from_micros(21));
  EXPECT_EQ(log.total(), 1u);
}

TEST(QueryLog, RetentionOffKeepsCounts) {
  QueryLog log;
  log.set_retain_entries(false);
  const dns::Name name = dns::Name::parse("x.nl");
  for (int i = 0; i < 10; ++i) log.record(entry_at(i, name));
  EXPECT_TRUE(log.entries().empty());
  EXPECT_EQ(log.total(), 10u);
  ASSERT_EQ(log.per_client().size(), 5u);
  EXPECT_EQ(log.per_client().at(net::IpAddress{0x0a000000}), 2u);
  // Storing nothing, it holds only the per-client map.
  QueryLog counts_only;
  counts_only.set_retain_entries(false);
  for (int i = 0; i < 10'000; ++i) counts_only.record(entry_at(0, name));
  EXPECT_LT(counts_only.bytes(), 1'024u);
}

TEST(QueryLog, ScanNameEntriesCostAtMost56Bytes) {
  // What a scan's test-domain site logs: s<i> under the test domain, from
  // a few recursives. Chunk slack and the chunk tables are included.
  const dns::Name domain = dns::Name::parse("ourtestdomain.nl");
  QueryLog log;
  constexpr std::size_t kN = 150'000;
  for (std::size_t i = 0; i < kN; ++i) {
    log.record({net::SimTime::from_micros(static_cast<std::int64_t>(i)),
                net::IpAddress{static_cast<std::uint32_t>(i % 4)},
                domain.prefixed("s" + std::to_string(i)), dns::RRType::TXT});
  }
  const double per_entry = static_cast<double>(log.bytes()) / kN;
  EXPECT_LE(per_entry, 56.0);
  EXPECT_GE(per_entry, 24.0 + 20.0);  // the record plus the name bytes
  // The old store: a doubling vector of full entries.
  EXPECT_LT(per_entry, static_cast<double>(sizeof(QueryLogEntry)));
}

TEST(QueryLog, MovedLogKeepsItsEntries) {
  QueryLog log;
  log.record(entry_at(1, dns::Name::parse("moved.example.nl")));
  const QueryLog moved = std::move(log);
  ASSERT_EQ(moved.entries().size(), 1u);
  EXPECT_EQ(moved.entries()[0].qname, dns::Name::parse("moved.example.nl"));
}

}  // namespace
}  // namespace recwild::authns
