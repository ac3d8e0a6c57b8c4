/// \file
/// \brief Structured decision tracing: why the simulator did what it did.
///
/// A DecisionTrace records span-like events at the points where behaviour is
/// decided — which server a resolver picked, whether a cache answered, when
/// a retry fired, which packet the loss model ate — in a form that is both
/// machine-readable (tab-separated, one event per line) and
/// deterministic: events carry SimTime only, and canonical export sorts
/// by the full event tuple so a merged multi-shard trace serialises to the
/// exact bytes of the serial run.
///
/// Tracing is off by default. Instrumentation sites check `enabled()` before
/// building any strings, so a disabled trace costs one predictable branch.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "net/time.hpp"

namespace recwild::obs {

/// What kind of decision a TraceEvent records.
enum class TraceKind : std::uint8_t {
  SelectServer,     ///< Resolver picked an upstream server for a zone.
  PrimeServer,      ///< BIND-style random SRTT priming of an unknown server.
  StickyLatch,      ///< Sticky forwarder latched (or re-latched) a server.
  CacheHit,         ///< Record cache answered a question.
  CacheMiss,        ///< Record cache could not answer.
  NegCacheHit,      ///< Negative cache answered (NXDOMAIN/NODATA).
  UpstreamTimeout,  ///< An upstream query hit its retransmission timeout.
  Failover,         ///< Resolver abandoned a server after a lame/useless answer.
  TcpFallback,      ///< Truncated UDP answer retried over the stream transport.
  PacketDrop,       ///< The network loss model dropped a datagram.
  AuthQuery,        ///< An authoritative server answered (or swallowed) a query.
  Servfail,         ///< A resolution finished with SERVFAIL.
  Progress,         ///< A campaign vantage point finished its probe schedule.
  FaultOn,          ///< A scheduled fault's window opens (src/fault).
  FaultOff,         ///< A scheduled fault's window closes.
  RrlDrop,          ///< RRL suppressed a UDP response entirely.
  RrlSlip,          ///< RRL replaced a UDP response with a TC=1 slip.
  NsFetch,          ///< Resolver spawned a glueless-NS address fetch.
  CatchmentShift,   ///< A sender's anycast catchment moved to another site.
};

/// Canonical lower-snake name of a TraceKind (what the TSV format stores).
[[nodiscard]] std::string_view to_string(TraceKind kind);
/// Parses to_string's output back; throws std::runtime_error on unknown names.
[[nodiscard]] TraceKind trace_kind_from_string(std::string_view name);

/// One traced decision. `actor` is who decided (resolver/server identity),
/// `subject` what it decided about (server address, qname), `detail` the
/// free-form why, and `value` an optional magnitude (RTT ms, TTL s).
/// Ordering compares the full tuple, which canonical export relies on.
struct TraceEvent {
  net::SimTime at;      ///< When the decision happened (sim time).
  TraceKind kind;       ///< What was decided.
  std::string actor;    ///< Who decided.
  std::string subject;  ///< What it was decided about.
  std::string detail;   ///< Why / how (free form, no tabs or newlines).
  double value = 0.0;   ///< Optional magnitude; 0 when meaningless.

  auto operator<=>(const TraceEvent&) const = default;
};

/// Append-only sink of TraceEvents, per simulation. Recording is gated on
/// `enabled()` — callers must check it before constructing event strings.
class DecisionTrace {
 public:
  /// Turns recording on or off; existing events are kept either way.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Whether record() currently stores events. Check this FIRST.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Stores one event if enabled (no-op otherwise).
  void record(TraceEvent event) {
    if (enabled_) events_.push_back(std::move(event));
  }

  /// All recorded events, in recording order.
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  /// Number of recorded events.
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Drops all recorded events (the enabled flag is unchanged).
  void clear() noexcept { events_.clear(); }

  /// Appends another trace's events (cross-shard merge); recording order of
  /// the result is arbitrary — export canonical() for deterministic bytes.
  void append(const DecisionTrace& other);

  /// The events sorted by the full tuple (time, kind, actor, subject,
  /// detail, value). Two traces holding the same event multiset — e.g.
  /// serial vs merged shards — canonicalise identically.
  [[nodiscard]] std::vector<TraceEvent> canonical() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

/// Writes events as the repo's tab-separated trace format, one per line:
/// `t_us<TAB>kind<TAB>actor<TAB>subject<TAB>detail<TAB>value`.
/// Lines starting with `#` are comments on read.
void write_trace(std::ostream& out, const std::vector<TraceEvent>& events);

/// Parses write_trace's format. Skips blank and `#` lines; throws
/// std::runtime_error naming the line number on malformed input (wrong
/// field count, bad integer/kind/value).
[[nodiscard]] std::vector<TraceEvent> read_trace(std::istream& in);

/// Writes events as a deterministic JSON array (objects with at_us, kind,
/// actor, subject, detail, value).
void write_trace_json(std::ostream& out, const std::vector<TraceEvent>& events);

}  // namespace recwild::obs
