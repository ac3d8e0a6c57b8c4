// DecisionTrace: the enabled gate, the tab-separated round-trip (including
// the malformed-line contract with 1-based line numbers), canonical
// ordering and the shard-merge append path.
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "obs/decision_trace.hpp"

namespace recwild::obs {
namespace {

net::SimTime at_us(std::int64_t us) { return net::SimTime::from_micros(us); }

TraceEvent event(std::int64_t us, TraceKind kind, std::string actor,
                 std::string subject, std::string detail, double value) {
  return TraceEvent{at_us(us), kind, std::move(actor), std::move(subject),
                    std::move(detail), value};
}

TEST(DecisionTrace, DisabledByDefaultAndRecordsNothing) {
  DecisionTrace t;
  EXPECT_FALSE(t.enabled());
  t.record(event(1, TraceKind::CacheHit, "r1", "a.nl", "A", 0.0));
  EXPECT_EQ(t.size(), 0u);
  t.set_enabled(true);
  t.record(event(1, TraceKind::CacheHit, "r1", "a.nl", "A", 0.0));
  EXPECT_EQ(t.size(), 1u);
}

TEST(DecisionTrace, KindNamesRoundTrip) {
  for (const auto kind :
       {TraceKind::SelectServer, TraceKind::PrimeServer, TraceKind::StickyLatch,
        TraceKind::CacheHit, TraceKind::CacheMiss, TraceKind::NegCacheHit,
        TraceKind::UpstreamTimeout, TraceKind::Failover, TraceKind::TcpFallback,
        TraceKind::PacketDrop, TraceKind::AuthQuery, TraceKind::Servfail,
        TraceKind::Progress}) {
    EXPECT_EQ(trace_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(trace_kind_from_string("no_such_kind"), std::runtime_error);
}

TEST(DecisionTrace, WriteReadRoundTrip) {
  const std::vector<TraceEvent> events{
      event(913502, TraceKind::SelectServer, "isp-recursive-as9", "10.0.0.12",
            ".", 1.756),
      event(913502, TraceKind::PrimeServer, "isp-recursive-as9", "10.0.0.1",
            ".", 28.2324),
      event(1000000, TraceKind::Progress, "campaign", "probe7", "done", 5.0),
  };
  std::ostringstream out;
  write_trace(out, events);
  std::istringstream in{out.str()};
  const auto parsed = read_trace(in);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].at, events[i].at) << i;
    EXPECT_EQ(parsed[i].kind, events[i].kind) << i;
    EXPECT_EQ(parsed[i].actor, events[i].actor) << i;
    EXPECT_EQ(parsed[i].subject, events[i].subject) << i;
    EXPECT_EQ(parsed[i].detail, events[i].detail) << i;
    EXPECT_DOUBLE_EQ(parsed[i].value, events[i].value) << i;
  }
}

TEST(DecisionTrace, ReadSkipsCommentsAndBlankLines) {
  std::istringstream in{
      "# t_us\tkind\tactor\tsubject\tdetail\tvalue\n"
      "\n"
      "# another comment\n"
      "5\tcache_hit\tr1\ta.nl\tA\t0\n"};
  const auto events = read_trace(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceKind::CacheHit);
}

TEST(DecisionTrace, MalformedLinesNameTheLineNumber) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in{text};
    try {
      read_trace(in);
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string{err.what()}.find(needle), std::string::npos)
          << err.what();
    }
  };
  // Too few fields (line 2, after the header).
  expect_error("# header\n5\tcache_hit\tr1\ta.nl\t0\n",
               "decision trace line 2: expected 6 tab-separated fields");
  // Too many fields.
  expect_error("5\tcache_hit\tr1\ta.nl\tA\t0\textra\n",
               "decision trace line 1: expected 6 tab-separated fields");
  // Bad timestamp.
  expect_error("soon\tcache_hit\tr1\ta.nl\tA\t0\n",
               "decision trace line 1: bad timestamp 'soon'");
  // Unknown kind.
  expect_error("5\tguessing\tr1\ta.nl\tA\t0\n",
               "decision trace line 1: unknown trace kind 'guessing'");
  // Bad value.
  expect_error("5\tcache_hit\tr1\ta.nl\tA\tmany\n",
               "decision trace line 1: bad value 'many'");
}

TEST(DecisionTrace, CanonicalSortsByFullTupleSoMergesExportIdentically) {
  // The same event multiset recorded in two different orders (as a serial
  // run vs a shard merge would) must serialise to identical bytes.
  const auto a = event(5, TraceKind::CacheHit, "r1", "a.nl", "A", 0.0);
  const auto b = event(5, TraceKind::CacheHit, "r2", "a.nl", "A", 0.0);
  const auto c = event(3, TraceKind::CacheMiss, "r1", "b.nl", "A", 0.0);

  DecisionTrace serial;
  serial.set_enabled(true);
  for (const auto& e : {c, a, b}) serial.record(e);

  DecisionTrace main;
  main.set_enabled(true);
  main.record(b);
  DecisionTrace replica;
  replica.set_enabled(true);
  replica.record(a);
  replica.record(c);
  main.append(replica);

  std::ostringstream serial_out;
  std::ostringstream merged_out;
  write_trace(serial_out, serial.canonical());
  write_trace(merged_out, main.canonical());
  EXPECT_EQ(serial_out.str(), merged_out.str());
  // And the order is genuinely time-major.
  const auto sorted = serial.canonical();
  EXPECT_EQ(sorted.front().at, at_us(3));
}

TEST(DecisionTrace, JsonExportIsDeterministic) {
  const std::vector<TraceEvent> events{
      event(1, TraceKind::PacketDrop, "node-a", "node-b", "loss_model", 0.0),
      event(2, TraceKind::UpstreamTimeout, "r1", "10.0.0.3", "a.nl", 750.0),
  };
  std::ostringstream one;
  std::ostringstream two;
  write_trace_json(one, events);
  write_trace_json(two, events);
  EXPECT_EQ(one.str(), two.str());
  EXPECT_NE(one.str().find("\"kind\": \"packet_drop\""), std::string::npos);
  EXPECT_NE(one.str().find("\"at_us\": 2"), std::string::npos);
}

TEST(DecisionTrace, ClearDropsEventsButKeepsEnabledFlag) {
  DecisionTrace t;
  t.set_enabled(true);
  t.record(event(1, TraceKind::Servfail, "r1", "a.nl", "A", 0.0));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.enabled());
}

}  // namespace
}  // namespace recwild::obs
