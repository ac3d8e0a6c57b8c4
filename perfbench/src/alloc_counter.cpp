#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constexpr int kSlots = 256;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
// Constant-initialised, so reading it inside operator new needs no guard.
thread_local int t_slot = -1;

Slot& my_slot() noexcept {
  if (t_slot < 0) {
    const int s = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = s < kSlots ? s : kSlots - 1;  // overflow threads share one slot
  }
  return g_slots[t_slot];
}

void count() noexcept {
  Slot& s = my_slot();
  s.n.store(s.n.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}

void* checked_malloc(std::size_t n) {
  count();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* checked_aligned(std::size_t n, std::align_val_t al) {
  count();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

namespace perfbench::alloc {

std::uint64_t this_thread() noexcept {
  return my_slot().n.load(std::memory_order_relaxed);
}

}  // namespace perfbench::alloc

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return checked_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
