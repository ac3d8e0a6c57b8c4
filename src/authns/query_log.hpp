// Server-side query log — the analogue of the packet captures the paper
// takes at its NSD instances (and of DITL/ENTRADA traces). Every received
// query is appended as a compact entry; the experiment harness aggregates
// per-client counts and shares from these logs.
//
// Storage is append-only. Each retained entry is one fixed 24-byte record
// (time, client, qtype and a pointer to its qname) in chunks that never
// move; the qname's uncompressed wire form is appended to a chunked byte
// arena. Both kinds of chunk start small and double up to a cap, so the
// many logs that see a handful of queries stay small, and a busy log
// grows without ever copying what it holds. entries() reads the records
// back as QueryLogEntry values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dnscore/name.hpp"
#include "dnscore/types.hpp"
#include "net/address.hpp"
#include "net/time.hpp"

namespace recwild::authns {

struct QueryLogEntry {
  net::SimTime at;
  net::IpAddress client;
  dns::Name qname;
  dns::RRType qtype = dns::RRType::A;
};

class QueryLog {
 public:
  class Entries;

  QueryLog() = default;
  QueryLog(QueryLog&&) noexcept = default;
  QueryLog& operator=(QueryLog&&) noexcept = default;
  // Records point into the log's own name chunks.
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  void record(const QueryLogEntry& entry);

  /// The retained entries, oldest first.
  [[nodiscard]] Entries entries() const noexcept;
  /// Queries recorded — counted even when entry retention is disabled.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Queries per client address (the paper's per-recursive aggregation).
  [[nodiscard]] const std::unordered_map<net::IpAddress, std::uint64_t>&
  per_client() const noexcept {
    return per_client_;
  }

  /// Forgets every entry and count and releases the entry storage.
  void clear();

  /// Disables entry retention (counters stay active) for large production
  /// runs where only aggregates matter.
  void set_retain_entries(bool retain) noexcept { retain_entries_ = retain; }

  /// Heap bytes the log holds: record and name chunks with their tables
  /// and the per-client map (nodes estimated, allocator overhead
  /// excluded).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  struct Record {
    std::int64_t at_us;
    const std::uint8_t* qname;  // wire form, root octet included
    std::uint32_t client;
    dns::RRType qtype;
    std::uint8_t qname_length;
  };
  static_assert(sizeof(Record) == 24);

  // Records per chunk: 16, 32, ... up to 2,048 (48 KB), then 2,048 each.
  // Name chunks: 512 bytes doubling up to 64 KB; any name (<= 255 octets)
  // fits in one.
  static constexpr unsigned kFirstRecordsShift = 4;
  static constexpr unsigned kMaxRecordsShift = 11;
  static constexpr std::size_t kDoublingChunks =
      kMaxRecordsShift - kFirstRecordsShift;
  static constexpr std::size_t kFirstNameChunk = 512;
  static constexpr std::size_t kMaxNameChunk = 64 * 1024;

  [[nodiscard]] static std::size_t chunk_records(std::size_t chunk) noexcept;
  /// (chunk, offset) of record `i`.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> locate(
      std::size_t i) noexcept;
  [[nodiscard]] QueryLogEntry entry(std::size_t i) const;
  /// Copies `name`'s wire form into the name arena and returns it.
  const std::uint8_t* store_name(const dns::Name& name);

  std::vector<std::unique_ptr<Record[]>> records_;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<std::uint8_t[]>> names_;
  std::size_t name_chunk_ = 0;  // size of names_.back()
  std::size_t name_used_ = 0;   // bytes used in names_.back()
  std::unordered_map<net::IpAddress, std::uint64_t> per_client_;
  std::uint64_t total_ = 0;
  bool retain_entries_ = true;
};

/// Read-only view of a log's retained entries, oldest first. Every access
/// rebuilds a QueryLogEntry by value. Valid while the log is alive and not
/// cleared; entries recorded after the view was taken are visible in it.
class QueryLog::Entries {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = QueryLogEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = QueryLogEntry;

    iterator() = default;
    QueryLogEntry operator*() const { return log_->entry(i_); }
    iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class Entries;
    iterator(const QueryLog* log, std::size_t i) : log_(log), i_(i) {}
    const QueryLog* log_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] std::size_t size() const noexcept { return log_->size_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Entry `i`. Precondition: i < size().
  QueryLogEntry operator[](std::size_t i) const { return log_->entry(i); }
  [[nodiscard]] iterator begin() const noexcept { return {log_, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {log_, size()}; }

 private:
  friend class QueryLog;
  explicit Entries(const QueryLog* log) : log_(log) {}
  const QueryLog* log_;
};

inline QueryLog::Entries QueryLog::entries() const noexcept {
  return Entries{this};
}

}  // namespace recwild::authns
