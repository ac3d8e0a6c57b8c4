// Resource records (RFC 1035 §3.2.1) and record sets.
//
// Records and sets hold RDATA the same way: as uncompressed wire bytes
// (names written in full, so every RDATA stands alone), read through
// RdataView. A ResourceRecord holds one RDATA; an RRset holds all of its
// RDATAs in one block, each a big-endian u16 length followed by its bytes.
// Moving a record into a set, a set into a message or a decoded record
// into the cache is a copy of those bytes; the encoder compresses names
// again on the way out.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnscore/rdata.hpp"

namespace recwild::dns {

using Ttl = std::uint32_t;

/// Bytes that live inside the object up to kInlineCapacity octets and
/// spill past that to one heap block of exactly their size, counted by
/// heap_spills() (one counter for each capacity). The idiom of Name.
template <std::size_t InlineCapacity>
class BasicRdataBlock {
 public:
  static constexpr std::size_t kInlineCapacity = InlineCapacity;
  static_assert(kInlineCapacity >=
                sizeof(std::uint8_t*) + sizeof(std::uint32_t));
  static_assert(kInlineCapacity < 0xffff);

  BasicRdataBlock() = default;
  BasicRdataBlock(const BasicRdataBlock& o) : size_(o.size_) {
    if (o.spilled()) {
      const std::uint32_t n = o.heap_size();
      set_heap(allocate(n), n);
      std::memcpy(heap(), o.heap(), n);
    } else {
      std::memcpy(buf_, o.buf_, kInlineCapacity);
    }
  }
  BasicRdataBlock(BasicRdataBlock&& o) noexcept : size_(o.size_) {
    std::memcpy(buf_, o.buf_, kInlineCapacity);  // bytes or heap block
    o.size_ = 0;
  }
  BasicRdataBlock& operator=(const BasicRdataBlock& o) {
    if (this != &o) *this = BasicRdataBlock{o};
    return *this;
  }
  BasicRdataBlock& operator=(BasicRdataBlock&& o) noexcept {
    if (this != &o) {
      free_heap();
      std::memcpy(buf_, o.buf_, kInlineCapacity);
      size_ = o.size_;
      o.size_ = 0;
    }
    return *this;
  }
  ~BasicRdataBlock() { free_heap(); }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return spilled() ? std::span<const std::uint8_t>{heap(), heap_size()}
                     : std::span<const std::uint8_t>{buf_, size_};
  }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool spilled() const noexcept { return size_ == kSpilled; }

  /// Makes room for `n` more bytes at the end and returns where they go.
  std::uint8_t* extend(std::size_t n) {
    const std::span<const std::uint8_t> old = bytes();
    const std::size_t size = old.size() + n;
    if (size <= kInlineCapacity) {
      size_ = static_cast<std::uint16_t>(size);
      return buf_ + old.size();
    }
    if (size > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error{"RdataBlock: block exceeds 4 GiB"};
    }
    std::uint8_t* block = allocate(size);
    if (!old.empty()) std::memcpy(block, old.data(), old.size());
    free_heap();
    set_heap(block, static_cast<std::uint32_t>(size));
    return block + old.size();
  }
  void append(std::span<const std::uint8_t> b) {
    if (!b.empty()) std::memcpy(extend(b.size()), b.data(), b.size());
  }
  /// Replaces the contents with `b`.
  void assign(std::span<const std::uint8_t> b) {
    free_heap();
    size_ = 0;
    append(b);
  }

  /// Heap blocks allocated by all threads since start.
  [[nodiscard]] static std::uint64_t heap_spills() noexcept {
    return spills_.load(std::memory_order_relaxed);
  }

 private:
  /// size_ of a spilled block; the heap block's address and its size (u32)
  /// then sit at the front of buf_.
  static constexpr std::uint16_t kSpilled = 0xffff;

  [[nodiscard]] std::uint8_t* heap() const noexcept {
    std::uint8_t* p = nullptr;
    std::memcpy(&p, buf_, sizeof p);
    return p;
  }
  [[nodiscard]] std::uint32_t heap_size() const noexcept {
    std::uint32_t n = 0;
    std::memcpy(&n, buf_ + sizeof(std::uint8_t*), sizeof n);
    return n;
  }
  void set_heap(std::uint8_t* p, std::uint32_t n) noexcept {
    std::memcpy(buf_, &p, sizeof p);
    std::memcpy(buf_ + sizeof p, &n, sizeof n);
    size_ = kSpilled;
  }
  void free_heap() noexcept {
    if (spilled()) delete[] heap();
  }
  static std::uint8_t* allocate(std::size_t size) {
    spills_.fetch_add(1, std::memory_order_relaxed);
    return new std::uint8_t[size];
  }

  static inline std::atomic<std::uint64_t> spills_{0};

  /// The bytes while they fit; once spilled, the heap block's address and
  /// size.
  alignas(std::uint8_t*) std::uint8_t buf_[kInlineCapacity]{};
  std::uint16_t size_ = 0;  // inline bytes, or kSpilled
};

/// An RRset's RDATAs: 22 bytes inline, in the 24 a vector would take, so a
/// probe answer (one short TXT) or a single A record never touches the
/// heap.
using RdataBlock = BasicRdataBlock<22>;
/// One record's RDATA: 118 bytes inline, enough for an SOA with two
/// 39-octet names or a TXT of up to 118 octets.
using RecordRdata = BasicRdataBlock<118>;

static_assert(sizeof(RdataBlock) == 24);
static_assert(sizeof(RecordRdata) == 120);

/// A resource record: owner, type, class, TTL and one RDATA's uncompressed
/// wire bytes. The type and the bytes change only together.
class ResourceRecord {
 public:
  Name name;
  RRClass rrclass = RRClass::IN;
  Ttl ttl = 0;

  ResourceRecord() = default;
  /// A record holding `rdata`'s uncompressed wire form. Throws WireError
  /// as encode_rdata does, or when the RDATA exceeds 65535 octets.
  ResourceRecord(Name name, RRClass rrclass, Ttl ttl,  // NOLINT(*-explicit-*)
                 const Rdata& rdata);
  /// A record holding `wire`, valid uncompressed RDATA of `type`.
  ResourceRecord(Name name, RRType type, RRClass rrclass, Ttl ttl,
                 std::span<const std::uint8_t> wire)
      : name(std::move(name)), rrclass(rrclass), ttl(ttl), type_(type) {
    rdata_.assign(wire);
  }

  [[nodiscard]] RRType type() const noexcept { return type_; }
  [[nodiscard]] RdataView rdata() const noexcept {
    return {type_, rdata_.bytes()};
  }
  /// Replaces the RDATA with `wire`, valid uncompressed RDATA of `type`.
  void set_rdata(RRType type, std::span<const std::uint8_t> wire) {
    type_ = type;
    rdata_.assign(wire);
  }
  /// True when the RDATA sits in a heap block rather than inline.
  [[nodiscard]] bool spilled() const noexcept { return rdata_.spilled(); }

  /// "name TTL class type rdata" presentation line.
  [[nodiscard]] std::string to_string() const;

  /// Owner and RDATA names compare case-insensitively.
  bool operator==(const ResourceRecord& o) const noexcept {
    return name == o.name && rrclass == o.rrclass && ttl == o.ttl &&
           rdata() == o.rdata();
  }

 private:
  RRType type_ = RRType::A;
  RecordRdata rdata_;
};

static_assert(sizeof(ResourceRecord) <= 184);

/// Forward iterator over an RRset's RDATAs, yielding views into its block.
class RdataIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = RdataView;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = RdataView;

  RdataIterator() = default;
  RdataIterator(RRType type, const std::uint8_t* p) noexcept
      : p_(p), type_(type) {}

  RdataView operator*() const noexcept { return {type_, {p_ + 2, length()}}; }
  RdataIterator& operator++() noexcept {
    p_ += 2 + length();
    return *this;
  }
  RdataIterator operator++(int) noexcept {
    RdataIterator old = *this;
    ++*this;
    return old;
  }
  bool operator==(const RdataIterator& o) const noexcept {
    return p_ == o.p_;
  }

 private:
  [[nodiscard]] std::size_t length() const noexcept {
    return (std::size_t{p_[0]} << 8) | p_[1];
  }
  const std::uint8_t* p_ = nullptr;
  RRType type_ = RRType::A;
};

/// An RRset: all records sharing (name, class, type). DNS semantics operate
/// on RRsets — caches store and expire them as a unit (RFC 2181 §5).
struct RRset {
  Name name;
  RRClass rrclass = RRClass::IN;
  RRType type = RRType::A;
  Ttl ttl = 0;  // by RFC 2181 §5.2 all members share one TTL
  RdataBlock block;

  [[nodiscard]] bool empty() const noexcept { return block.empty(); }
  /// The number of RDATAs (a walk of the block).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::distance(begin(), end()));
  }
  [[nodiscard]] RdataIterator begin() const noexcept {
    return {type, block.bytes().data()};
  }
  [[nodiscard]] RdataIterator end() const noexcept {
    const auto b = block.bytes();
    return {type, b.data() + b.size()};
  }
  /// The first RDATA. The set must not be empty.
  [[nodiscard]] RdataView front() const noexcept { return *begin(); }

  /// Adds the uncompressed RDATA `wire` unless the set already holds the
  /// same bytes: an RRset has no duplicate records (RFC 2181 §5). Returns
  /// whether it was added. Throws WireError past 65535 octets.
  bool add(std::span<const std::uint8_t> wire);

  /// Appends the set's records to `out`, each owned by `owner` and carrying
  /// `ttl` (a wildcard synthesizes at the query name, a cache hands out the
  /// remaining TTL).
  void append_records(std::vector<ResourceRecord>& out, const Name& owner,
                      Ttl ttl) const;
  /// Appends the set's records as stored.
  void append_records(std::vector<ResourceRecord>& out) const {
    append_records(out, name, ttl);
  }

  /// Writes the block entry for `wire` (at most 65535 octets) at `p`, which
  /// has room for its 2 + wire.size() bytes; returns the end of it.
  static std::uint8_t* put_entry(std::uint8_t* p,
                                 std::span<const std::uint8_t> wire) {
    p[0] = static_cast<std::uint8_t>(wire.size() >> 8);
    p[1] = static_cast<std::uint8_t>(wire.size());
    if (!wire.empty()) std::memcpy(p + 2, wire.data(), wire.size());
    return p + 2 + wire.size();
  }
};

static_assert(sizeof(RRset) <= 80);

/// Calls `fn(RRset&&)` for each RRset the records form, in first-seen
/// order, with the records' RDATAs in order as given. Mixed TTLs within a
/// set are normalized to the minimum (conservative, RFC 2181). Each set is
/// the caller's to keep (a cache moves it in as it is).
template <class Fn>
void for_each_rrset(const std::vector<ResourceRecord>& records, Fn&& fn) {
  for (auto rr = records.begin(); rr != records.end(); ++rr) {
    const RRType type = rr->type();
    const auto same_set = [&](const ResourceRecord& o) {
      return o.type() == type && o.rrclass == rr->rrclass &&
             o.name == rr->name;
    };
    if (std::any_of(records.begin(), rr, same_set)) continue;  // grouped
    RRset set{rr->name, rr->rrclass, type, rr->ttl, {}};
    std::size_t size = 0;
    for (auto o = rr; o != records.end(); ++o) {
      if (!same_set(*o)) continue;
      set.ttl = std::min(set.ttl, o->ttl);
      size += 2 + o->rdata().wire().size();
    }
    std::uint8_t* p = set.block.extend(size);
    for (auto o = rr; o != records.end(); ++o) {
      if (same_set(*o)) p = RRset::put_entry(p, o->rdata().wire());
    }
    fn(std::move(set));
  }
}

}  // namespace recwild::dns
