#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace recwild::net {
namespace {

SimTime at_ms(double ms) {
  return SimTime::origin() + Duration::millis(ms);
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at_ms(30), [&] { order.push_back(3); });
  q.push(at_ms(10), [&] { order.push_back(1); });
  q.push(at_ms(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at_ms(5), [&] { order.push_back(1); });
  q.push(at_ms(5), [&] { order.push_back(2); });
  q.push(at_ms(5), [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PopReportsFireTime) {
  EventQueue q;
  q.push(at_ms(42), [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, at_ms(42));
}

TEST(EventQueue, NextTimeIsEarliest) {
  EventQueue q;
  q.push(at_ms(9), [] {});
  q.push(at_ms(3), [] {});
  EXPECT_EQ(q.next_time(), at_ms(3));
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(at_ms(1), [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEventSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  const EventId id = q.push(at_ms(1), [&] { order.push_back(1); });
  q.push(at_ms(2), [&] { order.push_back(2); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.push(at_ms(1), [] {});
  q.cancel(id);
  q.cancel(id);  // no effect, no crash
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  const EventId id = q.push(at_ms(1), [] {});
  q.pop().fn();
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledFront) {
  EventQueue q;
  const EventId early = q.push(at_ms(1), [] {});
  q.push(at_ms(7), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), at_ms(7));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  const EventId a = q.push(at_ms(1), [] {});
  q.push(at_ms(2), [] {});
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelHeadThenPopSkipsToNextLive) {
  EventQueue q;
  std::vector<int> order;
  const EventId head = q.push(at_ms(1), [&] { order.push_back(1); });
  q.push(at_ms(2), [&] { order.push_back(2); });
  q.cancel(head);
  EXPECT_EQ(q.next_time(), at_ms(2));
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, at_ms(2));
  fired.fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleCannotCancelSlotReuse) {
  EventQueue q;
  const EventId old_id = q.push(at_ms(1), [] {});
  q.pop().fn();  // retires the slot; it is now free for reuse
  bool fired = false;
  const EventId new_id = q.push(at_ms(2), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);  // generation differs even if the slot matches
  q.cancel(old_id);           // stale handle: must not touch the new event
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelledHandleCannotCancelSlotReuse) {
  EventQueue q;
  const EventId old_id = q.push(at_ms(1), [] {});
  q.cancel(old_id);
  bool fired = false;
  q.push(at_ms(2), [&] { fired = true; });
  q.cancel(old_id);  // second cancel through a recycled slot: no effect
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, InterleavedPushCancelKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Alternate survivors and victims at mixed times, cancelling as we go so
  // slots recycle mid-stream; survivors must still fire in (time, seq)
  // order with ties broken by original insertion order.
  for (int round = 0; round < 50; ++round) {
    q.push(at_ms((round * 7) % 20), [&order, round] { order.push_back(round); });
    doomed.push_back(
        q.push(at_ms((round * 3) % 20), [&order] { order.push_back(-1); }));
    if (round % 3 == 2) {
      q.cancel(doomed[round - 2]);
      q.cancel(doomed[round - 1]);
      q.cancel(doomed[round]);
    }
  }
  for (const EventId id : doomed) q.cancel(id);  // idempotent for the rest
  SimTime prev = SimTime::origin();
  std::vector<int> seen_at_time;
  while (!q.empty()) {
    const SimTime t = q.next_time();
    EXPECT_GE(t, prev);
    const auto fired = q.pop();
    EXPECT_EQ(fired.at, t);
    fired.fn();
    prev = t;
  }
  // No victim fired, every survivor fired exactly once.
  EXPECT_EQ(order.size(), 50u);
  std::vector<bool> fired_round(50, false);
  for (const int r : order) {
    ASSERT_GE(r, 0);
    EXPECT_FALSE(fired_round[std::size_t(r)]);
    fired_round[std::size_t(r)] = true;
  }
}

TEST(EventQueue, TieOrderSurvivesHeavyCancellation) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 10; ++i) {
    victims.push_back(q.push(at_ms(5), [&order] { order.push_back(-1); }));
    q.push(at_ms(5), [&order, i] { order.push_back(i); });
  }
  for (const EventId id : victims) q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, ReservedEventSortsWhereAnEagerPushWould) {
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t first = q.reserve(2);
  q.push(at_ms(5), [&] { order.push_back(3); });  // numbered after the block
  q.push_reserved(at_ms(5), first + 1, [&] { order.push_back(2); });
  q.push_reserved(at_ms(5), first, [&] { order.push_back(1); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ReservedEventCanBeCancelled) {
  EventQueue q;
  bool fired = false;
  const std::uint64_t seq = q.reserve(1);
  const EventId id = q.push_reserved(at_ms(1), seq, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

// Differential test of sequence reservation. One random schedule runs
// twice: once with every link of every chain pushed up front, once with a
// reserved block per chain and only the next link pending (each link arms
// its successor when it fires). Fired events push fresh events (some at
// the current instant, so they tie with pending ones) and cancel earlier
// fresh events, decided from the fired event's label alone so both runs
// make the same decisions. Both runs must pop the same labels at the same
// times.
class ReservationDriver {
 public:
  using Chains = std::vector<std::vector<SimTime>>;

  ReservationDriver(const Chains& chains,
                    const std::vector<std::vector<SimTime>>& setup_fresh,
                    std::uint64_t seed, bool lazy)
      : chains_(chains), setup_fresh_(setup_fresh), seed_(seed),
        lazy_(lazy) {}

  struct Pop {
    std::uint64_t label;
    SimTime at;
    bool operator==(const Pop&) const = default;
  };

  std::vector<Pop> run() {
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      const auto& links = chains_[c];
      if (lazy_) {
        first_seq_.push_back(q_.reserve(links.size()));
        if (!links.empty()) arm(c, 0);
      } else {
        for (std::size_t k = 0; k < links.size(); ++k) {
          q_.push(links[k], [this, c, k] { fired(chain_label(c, k)); });
          peak_ = std::max(peak_, q_.size());
        }
      }
      // Fresh pushes between the blocks take numbers after this chain's.
      for (const SimTime at : setup_fresh_[c]) push_fresh(at);
    }
    while (!q_.empty()) {
      auto f = q_.pop();
      EXPECT_GE(f.at, now_);
      now_ = f.at;
      f.fn();
    }
    return pops_;
  }

  [[nodiscard]] std::size_t peak() const { return peak_; }

 private:
  static constexpr std::uint64_t kFresh = 1'000'000;
  static constexpr std::size_t kMaxFresh = 4'000;

  static std::uint64_t chain_label(std::size_t c, std::size_t k) {
    return c * 1'000 + k;
  }

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void arm(std::size_t c, std::size_t k) {
    q_.push_reserved(chains_[c][k], first_seq_[c] + k, [this, c, k] {
      fired(chain_label(c, k));
      // Armed after the fresh pushes: its number is reserved, so when it
      // is pushed must not matter.
      if (k + 1 < chains_[c].size()) arm(c, k + 1);
    });
    peak_ = std::max(peak_, q_.size());
  }

  void push_fresh(SimTime at) {
    if (fresh_.size() >= kMaxFresh) return;
    const std::uint64_t label = kFresh + fresh_.size();
    fresh_.push_back(q_.push(at, [this, label] { fired(label); }));
    peak_ = std::max(peak_, q_.size());
  }

  void fired(std::uint64_t label) {
    pops_.push_back({label, now_});
    const std::uint64_t h = mix(seed_ ^ mix(label));
    if (h % 3 == 0) {
      // 0-2 ms ahead: a 0 ties with whatever else is due now.
      push_fresh(now_ + Duration::millis(double((h >> 8) % 3)));
    }
    if ((h >> 16) % 4 == 0 && !fresh_.empty()) {
      // May hit an event that already fired: then a no-op in both runs.
      q_.cancel(fresh_[(h >> 24) % fresh_.size()]);
    }
  }

  const Chains& chains_;
  const std::vector<std::vector<SimTime>>& setup_fresh_;
  std::uint64_t seed_;
  bool lazy_;
  EventQueue q_;
  SimTime now_ = SimTime::origin();
  std::vector<std::uint64_t> first_seq_;
  std::vector<EventId> fresh_;
  std::vector<Pop> pops_;
  std::size_t peak_ = 0;
};

TEST(EventQueue, ReservedChainsPopExactlyLikeEagerPushes) {
  std::size_t total_pops = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 gen{seed};
    const auto pick = [&gen](std::uint64_t n) { return gen() % n; };
    // Whole-millisecond times and zero steps make equal-time ties common,
    // within a chain and across chains.
    ReservationDriver::Chains chains(1 + pick(30));
    std::vector<std::vector<SimTime>> setup_fresh(chains.size());
    for (std::size_t c = 0; c < chains.size(); ++c) {
      double t = double(pick(20));
      const std::size_t links = pick(13);  // 0..12; empty chains too
      for (std::size_t k = 0; k < links; ++k) {
        chains[c].push_back(at_ms(t));
        static constexpr double kSteps[] = {0, 0, 1, 2, 5};
        t += kSteps[pick(5)];
      }
      for (std::uint64_t i = pick(3); i > 0; --i) {
        setup_fresh[c].push_back(at_ms(double(pick(60))));
      }
    }
    ReservationDriver eager{chains, setup_fresh, seed, false};
    ReservationDriver lazy{chains, setup_fresh, seed, true};
    const auto expected = eager.run();
    const auto got = lazy.run();
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].label, expected[i].label)
          << "seed " << seed << ", pop " << i;
      ASSERT_EQ(got[i].at, expected[i].at) << "seed " << seed << ", pop " << i;
    }
    EXPECT_LE(lazy.peak(), eager.peak()) << "seed " << seed;
    total_pops += got.size();
  }
  EXPECT_GT(total_pops, 10'000u);
}

// Differential property test against a reference ordered set of (time,
// seq) keys. Random pushes, push_reserved() under numbers from reserved
// blocks, pops and cancels run on both; cancels pick any handle ever
// issued, so they hit live events, fired ones, cancelled ones and handles
// whose slot has since been reused. Every pop must surface the
// reference's minimum, and size() and next_time() must agree throughout.
TEST(EventQueue, MatchesReferenceOrderedSet) {
  struct Handle {
    EventId id;
    SimTime at;
    std::uint64_t seq;
  };
  std::uint64_t ops = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 gen{seed};
    const auto pick = [&gen](std::uint64_t n) { return gen() % n; };
    EventQueue q;
    std::set<std::pair<SimTime, std::uint64_t>> ref;
    std::vector<Handle> handles;
    std::vector<std::uint64_t> reserved;  // unused reserved numbers
    std::uint64_t next_seq = 0;
    std::uint64_t fired_seq = 0;
    SimTime now = SimTime::origin();
    const auto schedule = [&](std::uint64_t seq, bool eager) {
      const SimTime at = now + Duration::millis(double(pick(6)));
      auto fn = [&fired_seq, seq] { fired_seq = seq; };
      const EventId id = eager ? q.push(at, fn) : q.push_reserved(at, seq, fn);
      handles.push_back({id, at, seq});
      ref.emplace(at, seq);
    };
    for (int step = 0; step < 400; ++step, ++ops) {
      const std::uint64_t op = pick(10);
      if (op < 3) {
        schedule(next_seq++, true);
      } else if (op == 3) {
        const std::uint64_t n = 1 + pick(4);
        const std::uint64_t first = q.reserve(n);
        ASSERT_EQ(first, next_seq);
        for (std::uint64_t k = 0; k < n; ++k) reserved.push_back(first + k);
        next_seq += n;
      } else if (op == 4 && !reserved.empty()) {
        const std::size_t r = pick(reserved.size());
        const std::uint64_t seq = reserved[r];
        reserved.erase(reserved.begin() + std::ptrdiff_t(r));
        schedule(seq, false);
      } else if (op < 8 && !handles.empty()) {
        // Half the cancels aim at the newest handles, whose slots were
        // most recently fired, cancelled or reused.
        const std::size_t n = handles.size();
        const Handle& h = handles[pick(2) == 0 ? n - 1 - pick(std::min<std::size_t>(n, 4))
                                               : pick(n)];
        q.cancel(h.id);
        ref.erase({h.at, h.seq});
      } else if (!ref.empty()) {
        ASSERT_EQ(std::as_const(q).next_time(), ref.begin()->first);
        auto fired = q.pop();
        fired.fn();
        ASSERT_EQ(fired.at, ref.begin()->first) << "seed " << seed;
        ASSERT_EQ(fired_seq, ref.begin()->second) << "seed " << seed;
        now = fired.at;
        ref.erase(ref.begin());
      }
      ASSERT_EQ(q.size(), ref.size()) << "seed " << seed << ", step " << step;
      ASSERT_EQ(q.empty(), ref.empty());
    }
    while (!ref.empty()) {
      auto fired = q.pop();
      fired.fn();
      ASSERT_EQ(fired.at, ref.begin()->first);
      ASSERT_EQ(fired_seq, ref.begin()->second);
      ref.erase(ref.begin());
    }
    EXPECT_TRUE(q.empty());
  }
  EXPECT_GT(ops, 50'000u);
}

TEST(EventQueue, HeapHoldsOnlyLiveEventsAfterHeavyCancellation) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(q.push(at_ms(i % 50), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 64 != 0) q.cancel(ids[i]);
  }
  EXPECT_EQ(q.size(), 64u);  // size() is the heap's entry count
  const std::size_t bytes = q.bytes();
  // Churn through 100k short-lived events at the front of the queue. Were
  // cancelled entries left in the heap until their time came, it would
  // grow by one entry per event; removed at once, nothing grows.
  for (int i = 0; i < 100'000; ++i) q.cancel(q.push(at_ms(0), [] {}));
  EXPECT_EQ(q.size(), 64u);
  EXPECT_EQ(q.bytes(), bytes);
  EXPECT_EQ(std::as_const(q).next_time(), at_ms(0));
  std::size_t pops = 0;
  SimTime prev = SimTime::origin();
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.at, prev);
    prev = fired.at;
    ++pops;
  }
  EXPECT_EQ(pops, 64u);
}

TEST(EventQueue, SlabGrowsByFixedChunks) {
  EventQueue q;
  const std::size_t empty = q.bytes();
  std::vector<EventId> ids;
  for (std::uint32_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
    ids.push_back(q.push(at_ms(1), [] {}));
  }
  const std::size_t three = q.bytes();
  EXPECT_GE(three - empty, 3 * EventQueue::kChunkSlots * sizeof(EventFn));
  // Cancelled slots are reused before a new chunk is added.
  for (const EventId id : ids) q.cancel(id);
  for (std::uint32_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
    q.push(at_ms(2), [] {});
  }
  EXPECT_EQ(q.bytes(), three);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<double> fire_times;
  for (int i = 999; i >= 0; --i) {
    q.push(at_ms(i % 100), [] {});
  }
  while (!q.empty()) fire_times.push_back(q.pop().at.ms());
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
}

}  // namespace
}  // namespace recwild::net
