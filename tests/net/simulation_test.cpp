#include "net/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace recwild::net {
namespace {

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime t0 = SimTime::origin();
  const SimTime t1 = t0 + Duration::millis(5);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).ms(), 5.0);
  EXPECT_EQ((t1 - Duration::millis(5)), t0);
}

TEST(Duration, Conversions) {
  EXPECT_EQ(Duration::seconds(1).count_micros(), 1'000'000);
  EXPECT_EQ(Duration::minutes(2).sec(), 120.0);
  EXPECT_EQ(Duration::hours(1).count_micros(), 3'600'000'000LL);
  EXPECT_DOUBLE_EQ(Duration::millis(1.5).ms(), 1.5);
}

TEST(Duration, ScalarMultiply) {
  EXPECT_EQ((Duration::millis(10) * 2.5).ms(), 25.0);
}

TEST(Simulation, ClockStartsAtOrigin) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::origin());
}

TEST(Simulation, ReservedEventsKeepTheirPlaceAndAreCounted) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = SimTime::origin() + Duration::millis(1);
  const std::uint64_t first = sim.reserve(2);
  sim.at(t, [&] { order.push_back(3); });  // numbered after the block
  sim.at_reserved(t, first, [&] {
    order.push_back(1);
    // Armed while #3 is pending at the same instant, yet fires before it.
    sim.at_reserved(sim.now(), first + 1, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.metrics().counter(obs::names::kSimEventsScheduled).value(),
            3u);
  EXPECT_EQ(sim.metrics().gauge(obs::names::kSimQueuePeakPending).value(),
            2.0);
}

TEST(Simulation, AfterSchedulesRelative) {
  Simulation sim;
  SimTime observed;
  sim.after(Duration::millis(10), [&] { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed.ms(), 10.0);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  bool fired = false;
  sim.after(Duration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::origin());
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  std::vector<double> times;
  sim.after(Duration::millis(1), [&] {
    times.push_back(sim.now().ms());
    sim.after(Duration::millis(2), [&] { times.push_back(sim.now().ms()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.after(Duration::millis(5), [&] { ++fired; });
  sim.after(Duration::millis(15), [&] { ++fired; });
  sim.run_until(SimTime::origin() + Duration::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ms(), 10.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilIncludesBoundaryEvents) {
  Simulation sim;
  bool fired = false;
  sim.after(Duration::millis(10), [&] { fired = true; });
  sim.run_until(SimTime::origin() + Duration::millis(10));
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.after(Duration::millis(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, StepsCountEvents) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.after(Duration::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.steps(), 5u);
}

TEST(Simulation, RngIsSeedDeterministic) {
  Simulation a{99};
  Simulation b{99};
  EXPECT_EQ(a.rng().next(), b.rng().next());
}

}  // namespace
}  // namespace recwild::net
