// A short list of server addresses, kept off the heap.
//
// A resolver builds several server lists per upstream query: the addresses
// of the zone cut, the candidates left after failed servers, the healthy
// ones, and each selection policy's usable set. They hold a handful of
// addresses (a zone's NS set, the 13 root letters), so up to
// kInlineCapacity live inside the list; a longer one (an NXNS-style
// referral names dozens of servers) spills to the heap.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/address.hpp"

namespace recwild::net {

class AddressList {
 public:
  static constexpr std::size_t kInlineCapacity = 16;

  void push_back(IpAddress a) {
    if (size_ < kInlineCapacity) {
      inline_[size_++] = a;
      return;
    }
    if (size_ == kInlineCapacity) {
      heap_.assign(inline_.begin(), inline_.end());
      spills_.fetch_add(1, std::memory_order_relaxed);
    }
    heap_.push_back(a);
    ++size_;
  }
  void assign(std::span<const IpAddress> addrs) {
    clear();
    for (const IpAddress a : addrs) push_back(a);
  }
  void clear() noexcept {
    size_ = 0;
    heap_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const IpAddress* data() const noexcept {
    return size_ > kInlineCapacity ? heap_.data() : inline_.data();
  }
  [[nodiscard]] const IpAddress* begin() const noexcept { return data(); }
  [[nodiscard]] const IpAddress* end() const noexcept {
    return data() + size_;
  }
  const IpAddress& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] const IpAddress& back() const noexcept {
    return data()[size_ - 1];
  }
  operator std::span<const IpAddress>() const noexcept {  // NOLINT
    return {data(), size_};
  }

  /// Lists that outgrew the inline buffer, by all threads since start.
  [[nodiscard]] static std::uint64_t heap_spills() noexcept {
    return spills_.load(std::memory_order_relaxed);
  }

 private:
  std::array<IpAddress, kInlineCapacity> inline_{};
  std::vector<IpAddress> heap_;  // every address, once spilled
  std::size_t size_ = 0;
  static inline std::atomic<std::uint64_t> spills_{0};
};

}  // namespace recwild::net
