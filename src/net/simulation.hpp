/// \file
/// \brief Simulation facade: clock + event queue + root RNG + observability.
///
/// Single-threaded discrete-event loop. Components schedule callbacks with
/// after()/at(); run() processes events in deterministic (time, seq) order.
/// All randomness forks off the root Rng so a single seed reproduces a run.
///
/// The simulation also owns the run's observability state: a
/// obs::MetricRegistry every subsystem registers its metrics in, and a
/// obs::DecisionTrace (off by default) for structured decision events.
/// Event-loop accounting (kSimEvents*) is kept in plain integers on the
/// scheduling hot path and folded into the registry by sync_obs(), which
/// run()/run_until() invoke on exit — so the loop pays no metric cost
/// per event, yet every snapshot taken after a run is complete.
#pragma once

#include <cstdint>

#include "net/event_queue.hpp"
#include "net/time.hpp"
#include "obs/decision_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "stats/rng.hpp"

namespace recwild::net {

class Simulation {
 public:
  /// Creates a simulation whose root RNG is seeded with `seed`.
  explicit Simulation(std::uint64_t seed = 1)
      : rng_(seed),
        scheduled_(&metrics_.counter(obs::names::kSimEventsScheduled)),
        cancelled_(&metrics_.counter(obs::names::kSimEventsCancelled)),
        processed_(&metrics_.counter(obs::names::kSimEventsProcessed)),
        peak_pending_(&metrics_.gauge(obs::names::kSimQueuePeakPending)) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated instant.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventId at(SimTime t, EventFn fn) {
    return counted(queue_.push(t, std::move(fn)));
  }

  /// Reserves `n` consecutive event sequence numbers; returns the first.
  /// See EventQueue::reserve: an event later scheduled with at_reserved()
  /// fires exactly where one scheduled with at() now would have.
  std::uint64_t reserve(std::uint64_t n) noexcept {
    return queue_.reserve(n);
  }

  /// Schedules `fn` at `t` (>= now()) under the reserved number `seq`.
  EventId at_reserved(SimTime t, std::uint64_t seq, EventFn fn) {
    return counted(queue_.push_reserved(t, seq, std::move(fn)));
  }

  /// Schedules `fn` after relative delay `d` (clamped to >= 0).
  EventId after(Duration d, EventFn fn) {
    if (d < Duration::zero()) d = Duration::zero();
    return at(now_ + d, std::move(fn));
  }

  /// Cancels a scheduled event (no-op if it already fired).
  void cancel(EventId id) {
    queue_.cancel(id);
    ++cancels_;
  }

  /// Runs until the event queue drains.
  void run();

  /// Runs all events scheduled at or before `t`; leaves the clock at `t`.
  void run_until(SimTime t);

  /// Folds the event-loop tallies (scheduled/cancelled/processed events,
  /// peak queue depth) into the metric registry, stamped with now().
  /// Idempotent; called automatically when run()/run_until() return. Call
  /// it manually only before snapshotting a simulation that has scheduled
  /// work but not run yet (e.g. a shard baseline taken after world build).
  void sync_obs();

  /// Number of events processed so far.
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Root random stream; fork() identity-keyed children, never draw shared.
  [[nodiscard]] stats::Rng& rng() noexcept { return rng_; }

  /// This run's metric registry (always on; recording is an integer add).
  /// Event-loop counters lag until sync_obs() — see sync_obs().
  [[nodiscard]] obs::MetricRegistry& metrics() noexcept { return metrics_; }
  /// \copydoc metrics()
  [[nodiscard]] const obs::MetricRegistry& metrics() const noexcept {
    return metrics_;
  }
  /// This run's decision-trace sink (disabled unless set_enabled(true)).
  [[nodiscard]] obs::DecisionTrace& trace() noexcept { return trace_; }
  /// \copydoc trace()
  [[nodiscard]] const obs::DecisionTrace& trace() const noexcept {
    return trace_;
  }

 private:
  EventId counted(EventId id) noexcept {
    ++pushes_;
    if (queue_.size() > peak_raw_) peak_raw_ = queue_.size();
    return id;
  }

  SimTime now_ = SimTime::origin();
  EventQueue queue_;
  stats::Rng rng_;
  std::uint64_t steps_ = 0;
  obs::MetricRegistry metrics_;
  obs::DecisionTrace trace_;
  // Hot-path tallies; sync_obs() folds the unsynced remainder into the
  // registry so merges (which add into the counters) stay consistent.
  std::uint64_t pushes_ = 0;
  std::uint64_t cancels_ = 0;
  std::size_t peak_raw_ = 0;
  std::uint64_t synced_pushes_ = 0;
  std::uint64_t synced_cancels_ = 0;
  std::uint64_t synced_steps_ = 0;
  // Cached handles; registry storage is node-based so these stay valid.
  obs::Counter* scheduled_;
  obs::Counter* cancelled_;
  obs::Counter* processed_;
  obs::Gauge* peak_pending_;
};

}  // namespace recwild::net
