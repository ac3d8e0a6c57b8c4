#include "net/wire_buffer.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace recwild::net {

namespace {

// Size classes run 32, 48, 64, 96, 128, ... 49152, 65536: every power of
// two and the step halfway between, so a class wastes under a third of
// its block. A scan keeps tens of thousands of packets in flight, so a
// packet's storage is sized to it; only encoders write into the larger
// scratch class. Past 64 KiB (jumbo AXFR payloads) storage is exact and
// cheaper to reallocate than to pin.
constexpr std::size_t kMinClass = 32;
constexpr std::size_t kMaxPooledCapacity = 1 << 16;
constexpr std::size_t kClassCount = 23;
constexpr std::size_t kMaxPooledBuffers = 64;

/// Index of the smallest class that holds `n` bytes (n <= 64 KiB).
constexpr std::size_t class_index(std::size_t n) noexcept {
  if (n <= kMinClass) return 0;
  const auto k = static_cast<std::size_t>(std::bit_width(n - 1));
  const std::size_t pow2_index = 2 * (k - 5);  // class 2^k
  return n <= (std::size_t{3} << (k - 2)) ? pow2_index - 1 : pow2_index;
}

constexpr std::size_t class_bytes(std::size_t index) noexcept {
  return (index % 2 == 0 ? kMinClass : kMinClass + kMinClass / 2)
         << (index / 2);
}

// Encoders write into 512 bytes, room for a typical DNS message.
constexpr std::size_t kScratchClass = class_index(512);

// Per-class caps keep the pools from hoarding: at most 64 blocks or 32 KiB
// per class, whichever is fewer, but always one.
constexpr auto kClassCaps = [] {
  std::array<std::size_t, kClassCount> caps{};
  for (std::size_t i = 0; i < kClassCount; ++i) {
    caps[i] = std::clamp<std::size_t>(32 * 1024 / class_bytes(i), 1,
                                      kMaxPooledBuffers);
  }
  return caps;
}();

struct ThreadPool {
  std::array<std::vector<std::vector<std::uint8_t>>, kClassCount> free8;
  std::vector<std::vector<std::uint16_t>> free16;
  WireBufferPool::Stats stats;
  bool enabled = true;
};

ThreadPool& pool() {
  thread_local ThreadPool tp;
  return tp;
}

/// Storage of class `index`, from its free list when possible.
std::vector<std::uint8_t> take(std::size_t index) {
  ThreadPool& tp = pool();
  ++tp.stats.acquires;
  auto& list = tp.free8[index];
  if (tp.enabled && !list.empty()) {
    ++tp.stats.hits;
    std::vector<std::uint8_t> out = std::move(list.back());
    list.pop_back();
    out.clear();
    return out;
  }
  std::vector<std::uint8_t> out;
  out.reserve(class_bytes(index));
  return out;
}

}  // namespace

std::size_t WireBufferPool::size_class(std::size_t size) noexcept {
  return size > kMaxPooledCapacity ? size : class_bytes(class_index(size));
}

std::vector<std::uint8_t> WireBufferPool::acquire() {
  return take(kScratchClass);
}

std::vector<std::uint8_t> WireBufferPool::acquire(std::size_t size) {
  if (size <= kMaxPooledCapacity) return take(class_index(size));
  ++pool().stats.acquires;
  std::vector<std::uint8_t> out;
  out.reserve(size);
  return out;
}

void WireBufferPool::release(std::vector<std::uint8_t>&& storage) noexcept {
  ThreadPool& tp = pool();
  const std::size_t cap = storage.capacity();
  if (tp.enabled && cap != 0 && cap <= kMaxPooledCapacity) {
    // Every encode returns a scratch block: skip the class arithmetic.
    const std::size_t index = cap == class_bytes(kScratchClass)
                                  ? kScratchClass
                                  : class_index(cap);
    auto& list = tp.free8[index];
    if (class_bytes(index) == cap && list.size() < kClassCaps[index]) {
      if (list.capacity() == 0) list.reserve(kClassCaps[index]);
      ++tp.stats.releases;
      list.push_back(std::move(storage));
      return;
    }
  }
  std::vector<std::uint8_t>{std::move(storage)};  // free now
}

std::vector<std::uint16_t> WireBufferPool::acquire_scratch16() {
  ThreadPool& tp = pool();
  if (tp.enabled && !tp.free16.empty()) {
    std::vector<std::uint16_t> out = std::move(tp.free16.back());
    tp.free16.pop_back();
    out.clear();
    return out;
  }
  std::vector<std::uint16_t> out;
  out.reserve(64);
  return out;
}

void WireBufferPool::release_scratch16(
    std::vector<std::uint16_t>&& s) noexcept {
  ThreadPool& tp = pool();
  if (!tp.enabled || s.capacity() == 0 ||
      tp.free16.size() >= kMaxPooledBuffers) {
    std::vector<std::uint16_t>{std::move(s)};
    return;
  }
  if (tp.free16.capacity() == 0) tp.free16.reserve(kMaxPooledBuffers);
  tp.free16.push_back(std::move(s));
}

void WireBufferPool::set_enabled(bool enabled) noexcept {
  pool().enabled = enabled;
}

bool WireBufferPool::enabled() noexcept { return pool().enabled; }

WireBufferPool::Stats WireBufferPool::stats() noexcept {
  return pool().stats;
}

void WireBufferPool::reset_stats() noexcept { pool().stats = Stats{}; }

void WireBufferPool::clear() noexcept {
  // The lists' own storage goes too, so a run that starts from a cleared
  // pool allocates the same whatever ran before it.
  for (auto& list : pool().free8) {
    std::vector<std::vector<std::uint8_t>>{}.swap(list);
  }
  std::vector<std::vector<std::uint16_t>>{}.swap(pool().free16);
}

}  // namespace recwild::net
