// Event queue for the discrete-event simulation kernel.
//
// Events fire in (time, sequence) order: ties break by scheduling order so
// runs are fully deterministic. Events can be cancelled through the handle
// returned by push().
//
// Storage is a slab of event slots plus a flat 4-ary heap of (time, seq,
// slot) keys — no per-event hash lookups on the hot path. The slots'
// callables live in fixed chunks of kChunkSlots that never move, so the
// slab grows by one chunk at a time instead of doubling and copying; a
// small parallel array keeps each slot's generation and, while the slot
// is live, its heap position. cancel() uses that position to remove the
// heap entry at once, so the heap holds exactly the live events: size()
// is the heap's size and next_time() is a const read of its head. A
// retired slot goes on a free list and is reused by the next push; its
// bumped generation makes any outstanding handle for the old event
// harmless.
//
// Sequence numbers can also be reserved ahead of time: reserve(n) hands out
// a block of n consecutive numbers as if n events had been pushed, and
// push_reserved() later schedules an event under one of them. An event
// pushed that way sorts exactly where an eager push() at reservation time
// would have, so a producer with a long, strictly ordered chain of future
// events (a campaign's probes to one VP) can keep only the next one pending
// without changing the pop order.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/event_fn.hpp"
#include "net/time.hpp"

namespace recwild::net {

/// Opaque cancellation handle: (generation << 32) | slot. Live events always
/// have an odd generation, so the zero-initialized "no event" sentinel that
/// callers rely on never aliases a live event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Callables per slab chunk.
  static constexpr std::uint32_t kChunkSlots = 512;

  /// Schedules `fn` at absolute time `at`. Returns a handle for cancel().
  EventId push(SimTime at, EventFn fn);

  /// Reserves `n` consecutive sequence numbers and returns the first. Later
  /// push() calls number after the whole block.
  std::uint64_t reserve(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `fn` at `at` under `seq`, a number from an earlier reserve()
  /// that no other event used. Ties at `at` break by `seq`, exactly as if
  /// the event had been pushed when its number was reserved.
  EventId push_reserved(SimTime at, std::uint64_t seq, EventFn fn);

  /// Cancels a pending event and removes it from the heap; no-op if it
  /// already fired or was cancelled.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  /// Pending events; every heap entry is one.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    assert(!heap_.empty());
    return heap_.front().at;
  }

  /// Pops the earliest event.
  /// Precondition: !empty().
  struct Fired {
    SimTime at;
    EventFn fn;
  };
  Fired pop();

  /// Heap bytes the queue holds: the heap, the slot table and the slab
  /// chunks with their table, by capacity (callables that fell back to
  /// the heap and allocator overhead excluded).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  struct Slot {
    /// Odd while the slot holds a live event, even while free.
    std::uint32_t gen = 0;
    /// Live: the event's heap position. Free: the next free slot
    /// (kNoSlot terminates).
    std::uint32_t link = kNoSlot;
  };

  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;

    [[nodiscard]] bool before(const Entry& o) const noexcept {
      if (at != o.at) return at < o.at;
      return seq < o.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] EventFn& fn(std::uint32_t slot) noexcept {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }
  /// Writes `e` at heap position `i` and records the position in its slot.
  void place(std::size_t i, const Entry& e) noexcept {
    heap_[i] = e;
    slots_[e.slot].link = static_cast<std::uint32_t>(i);
  }
  /// Removes the heap entry at position `i`.
  void erase_at(std::size_t i) noexcept;
  /// Frees a slot whose heap entry is gone and whose callable is empty.
  void retire(std::uint32_t slot) noexcept;
  /// Moves the hole at `i` up (down) until `e` fits there, then places it.
  void sift_up(std::size_t i, const Entry& e) noexcept;
  void sift_down(std::size_t i, const Entry& e) noexcept;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
};

}  // namespace recwild::net
