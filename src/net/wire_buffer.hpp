// Pooled wire-format payload buffers — the datapath's allocation sink.
//
// Every simulated packet used to carry a freshly heap-allocated
// std::vector<uint8_t>; at campaign scale the allocator, not the
// simulation, dominated the profile. A WireBuffer is a move-only handle
// around byte storage drawn from thread-local free lists: encoders
// acquire a scratch buffer, Network::send moves the finished bytes into
// storage of their size class (WireBuffer::fit) for the flight, and the
// destructor returns the storage to the pool of whichever thread drops
// the last reference. A campaign keeps a handful of packets in flight but
// a scan keeps tens of thousands, so in-flight storage is sized to the
// packet, not to the encoder's scratch. Shard workers each own a private
// pool (thread_local), so no locks and no cross-shard coupling — pool
// state can never leak into simulation behaviour, which keeps the
// engines' byte-identity guarantee intact by construction.
//
// The pool is capped (blocks kept per size class, nothing past 64 KiB)
// so a burst of jumbo AXFR payloads cannot pin memory forever.
// WireBufferPool::set_enabled exists for benchmarks that want to measure
// the unpooled (pre-optimization) allocation profile; production code
// never calls it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace recwild::net {

/// Thread-local storage pool behind WireBuffer. All members are static;
/// state lives in per-thread free lists.
class WireBufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;  ///< Storage requests (pool hits + misses).
    std::uint64_t hits = 0;      ///< Requests served from the free list.
    std::uint64_t releases = 0;  ///< Buffers returned to the free list.
  };

  /// Scratch storage for an encoder (512 bytes, room for a typical DNS
  /// message): reused from the free list when possible, freshly
  /// allocated otherwise. Always returned empty.
  static std::vector<std::uint8_t> acquire();
  /// Storage of capacity size_class(size), same discipline.
  static std::vector<std::uint8_t> acquire(std::size_t size);
  /// Returns storage to its size class's free list (or frees it when the
  /// list is full, the capacity is not a class, or pooling is disabled).
  static void release(std::vector<std::uint8_t>&& storage) noexcept;

  /// The capacity a payload of `size` bytes is stored in: the smallest of
  /// 32, 48, 64, 96, 128, ... 49152, 65536 (powers of two and the steps
  /// halfway between) that holds it, or `size` itself past 64 KiB.
  [[nodiscard]] static std::size_t size_class(std::size_t size) noexcept;

  /// Scratch uint16 storage for encoder bookkeeping (compression-offset
  /// tables); same pooling discipline as the byte buffers.
  static std::vector<std::uint16_t> acquire_scratch16();
  static void release_scratch16(std::vector<std::uint16_t>&& s) noexcept;

  /// Benchmark hook: with pooling off, acquire/release degenerate to plain
  /// allocate/free, reproducing the pre-pool allocation profile.
  static void set_enabled(bool enabled) noexcept;
  [[nodiscard]] static bool enabled() noexcept;

  /// This thread's counters (benchmark/diagnostic surface; deliberately
  /// NOT exported through obs::MetricRegistry — hit/miss patterns depend
  /// on shard layout and would break cross-shard snapshot identity).
  [[nodiscard]] static Stats stats() noexcept;
  static void reset_stats() noexcept;
  /// Drops every pooled buffer on this thread, and the free lists' own
  /// storage (tests/benchmarks).
  static void clear() noexcept;
};

/// Move-only handle to one wire payload. Storage comes from (and returns
/// to) WireBufferPool; adopting a plain vector is also supported so tests
/// can hand-craft packets.
class WireBuffer {
 public:
  /// Empty buffer with no storage; first write via bytes() allocates.
  WireBuffer() noexcept = default;

  /// Adopts existing bytes (hand-crafted packets, decode scratch). The
  /// storage joins the pool when the buffer dies.
  WireBuffer(std::vector<std::uint8_t> bytes) noexcept  // NOLINT(*-explicit-*)
      : buf_(std::move(bytes)) {}

  /// Literal payloads in tests: `net.send(..., {1, 2, 3})`.
  WireBuffer(std::initializer_list<std::uint8_t> il) : buf_(il) {}

  /// A buffer backed by pooled storage, sized 0.
  [[nodiscard]] static WireBuffer acquire() {
    return WireBuffer{WireBufferPool::acquire()};
  }

  WireBuffer(WireBuffer&& o) noexcept : buf_(std::move(o.buf_)) {
    o.buf_.clear();
  }
  WireBuffer& operator=(WireBuffer&& o) noexcept {
    if (this != &o) {
      WireBufferPool::release(std::move(buf_));
      buf_ = std::move(o.buf_);
      o.buf_.clear();
    }
    return *this;
  }
  WireBuffer(const WireBuffer&) = delete;
  WireBuffer& operator=(const WireBuffer&) = delete;

  ~WireBuffer() { WireBufferPool::release(std::move(buf_)); }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_.data();
  }
  [[nodiscard]] std::uint8_t* data() noexcept { return buf_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }

  std::uint8_t& operator[](std::size_t i) noexcept { return buf_[i]; }
  const std::uint8_t& operator[](std::size_t i) const noexcept {
    return buf_[i];
  }

  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return buf_;
  }
  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return buf_;
  }

  /// Direct storage access for writers and tests that resize/patch bytes.
  [[nodiscard]] std::vector<std::uint8_t>& bytes() noexcept { return buf_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }

  /// Deep copy into fresh pooled storage of its size class.
  [[nodiscard]] WireBuffer clone() const {
    WireBuffer c{WireBufferPool::acquire(buf_.size())};
    c.buf_.assign(buf_.begin(), buf_.end());
    return c;
  }

  /// The same bytes in storage no larger than their size class: this
  /// buffer when it already fits, else a pooled copy (this buffer's
  /// storage goes back to the pool). Network::send calls it, so a packet
  /// in flight holds WireBufferPool::size_class(size()) bytes, not the
  /// encoder's scratch.
  [[nodiscard]] WireBuffer fit() && {
    if (buf_.capacity() <= WireBufferPool::size_class(buf_.size())) {
      return std::move(*this);
    }
    WireBuffer c = clone();
    *this = WireBuffer{};
    return c;
  }

  /// Moves the bytes out, leaving the buffer empty (fixture writers).
  [[nodiscard]] std::vector<std::uint8_t> release() && {
    return std::move(buf_);
  }

  friend bool operator==(const WireBuffer& a, const WireBuffer& b) noexcept {
    return a.buf_ == b.buf_;
  }
  friend bool operator==(const WireBuffer& a,
                         const std::vector<std::uint8_t>& b) noexcept {
    return a.buf_ == b;
  }

 private:
  std::vector<std::uint8_t> buf_;
};

}  // namespace recwild::net
