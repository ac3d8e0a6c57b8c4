#include "net/event_queue.hpp"

#include <algorithm>
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
                                  EventFn event) {
  assert(seq < next_seq_);
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].link;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    if (slot % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSlots));
    }
    slots_.emplace_back();
  }
  const std::uint32_t gen = ++slots_[slot].gen;  // even -> odd: live
  fn(slot) = std::move(event);

  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, seq, slot});
  return make_id(slot, gen);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = id_slot(id);
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  if (s.gen != id_gen(id) || (s.gen & 1u) == 0) return;  // fired or stale
  erase_at(s.link);
  fn(slot) = nullptr;
  retire(slot);
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Entry head = heap_.front();
  erase_at(0);
  Fired fired{head.at, std::move(fn(head.slot))};
  retire(head.slot);
  return fired;
}

std::size_t EventQueue::bytes() const noexcept {
  return heap_.capacity() * sizeof(Entry) +
         slots_.capacity() * sizeof(Slot) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         chunks_.size() * kChunkSlots * sizeof(EventFn);
}

void EventQueue::erase_at(std::size_t i) noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // it was the last entry
  // The last entry fills the hole; it may belong above or below it.
  if (i > 0 && last.before(heap_[(i - 1) / 4])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void EventQueue::retire(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  ++s.gen;  // odd -> even: fired or cancelled
  s.link = free_head_;
  free_head_ = slot;
}

// 4-ary heap: half the depth of a binary heap and the four children sit in
// one cache line of Entries, so sift_down touches far less memory per pop.
// Pop ORDER does not depend on the heap's shape — (time, seq) is a strict
// total order (seq is unique), and any heap surfaces its minimum first —
// so removing cancelled entries early cannot change it either.

void EventQueue::sift_up(std::size_t i, const Entry& e) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventQueue::sift_down(std::size_t i, const Entry& e) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

}  // namespace recwild::net
