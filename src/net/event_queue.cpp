#include "net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace recwild::net {

namespace {

constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (EventId{gen} << 32) | slot;
}

constexpr std::uint32_t id_slot(EventId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

constexpr std::uint32_t id_gen(EventId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

EventId EventQueue::push(SimTime at, EventFn fn) {
  return push_reserved(at, next_seq_++, std::move(fn));
}

EventId EventQueue::push_reserved(SimTime at, std::uint64_t seq,
                                  EventFn fn) {
  assert(seq < next_seq_);
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // even -> odd: live
  s.fn = std::move(fn);

  heap_.push_back(Entry{at, seq, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, s.gen);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = id_slot(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != id_gen(id) || (s.gen & 1u) == 0) return;  // fired or stale
  ++s.gen;  // odd -> even: retired; the heap entry is now stale
  s.fn = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void EventQueue::drop_stale_head() {
  while (!heap_.empty() && !live(heap_.front())) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

SimTime EventQueue::next_time() {
  drop_stale_head();
  assert(!heap_.empty());
  return heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  drop_stale_head();
  assert(!heap_.empty());
  const Entry head = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);

  Slot& s = slots_[head.slot];
  Fired fired{head.at, std::move(s.fn)};
  ++s.gen;  // odd -> even: fired
  s.fn = nullptr;
  s.next_free = free_head_;
  free_head_ = head.slot;
  --live_;
  return fired;
}

// 4-ary heap: half the depth of a binary heap and the four children sit in
// one cache line of Entries, so sift_down touches far less memory per pop.
// Pop ORDER is unchanged — (time, seq) is a strict total order (seq is
// unique), and any heap shape surfaces that order's minimum first.

void EventQueue::sift_up(std::size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry e = heap_[i];
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace recwild::net
