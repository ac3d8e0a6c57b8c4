// Resource records (RFC 1035 §3.2.1) and record sets.
//
// A ResourceRecord carries typed Rdata; message sections hold those. An
// RRset holds its RDATAs as one flat block of wire bytes instead: each
// RDATA is a big-endian u16 length followed by its uncompressed wire form
// (names written in full, so every entry stands alone). Reads go through
// typed read-only views (RdataView); typed Rdata is rebuilt only when a
// record leaves the set for a message (append_records).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "dnscore/rdata.hpp"

namespace recwild::dns {

using Ttl = std::uint32_t;

struct ResourceRecord {
  Name name;
  RRClass rrclass = RRClass::IN;
  Ttl ttl = 0;
  Rdata rdata;

  [[nodiscard]] RRType type() const noexcept { return rdata_type(rdata); }

  /// "name TTL class type rdata" presentation line.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const ResourceRecord&) const = default;
};

/// One RDATA of an RRset, read in place: the set's type and the RDATA's
/// uncompressed wire bytes. Valid while the set is alive and unmodified.
/// The typed accessors require the set's type to match.
class RdataView {
 public:
  RdataView(RRType type, std::span<const std::uint8_t> wire) noexcept
      : wire_(wire), type_(type) {}

  /// The RDATA as it goes on the wire, names uncompressed.
  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept {
    return wire_;
  }

  /// A: the address.
  [[nodiscard]] net::IpAddress a() const noexcept {
    return net::IpAddress{u32_at(0)};
  }
  /// AAAA: the 16 address octets.
  [[nodiscard]] std::array<std::uint8_t, 16> aaaa() const noexcept {
    std::array<std::uint8_t, 16> out{};
    std::copy_n(wire_.first(16).begin(), 16, out.begin());
    return out;
  }
  /// NS, CNAME, PTR: the target name.
  [[nodiscard]] Name target() const;
  /// SOA: the minimum field, the negative-caching TTL (RFC 2308).
  [[nodiscard]] std::uint32_t soa_minimum() const noexcept {
    return u32_at(wire_.size() - 4);
  }
  /// The typed Rdata, for a message section or presentation.
  [[nodiscard]] Rdata to_rdata() const;

 private:
  [[nodiscard]] std::uint32_t u32_at(std::size_t p) const noexcept {
    return (std::uint32_t{wire_[p]} << 24) |
           (std::uint32_t{wire_[p + 1]} << 16) |
           (std::uint32_t{wire_[p + 2]} << 8) | std::uint32_t{wire_[p + 3]};
  }

  std::span<const std::uint8_t> wire_;
  RRType type_;
};

/// The storage of an RRset's RDATAs: a sequence of entries, each a
/// big-endian u16 length followed by that many octets. Up to
/// kInlineCapacity bytes live inside the object, in the 24 bytes a vector
/// would take; a larger block spills to one heap block of exactly its size
/// (counted by heap_spills()). A probe answer (one short TXT) or a single
/// A record never touches the heap.
class RdataBlock {
 public:
  static constexpr std::size_t kInlineCapacity = 22;

  RdataBlock() = default;
  RdataBlock(const RdataBlock& o) : size_(o.size_) {
    if (o.spilled()) {
      const std::uint32_t n = o.heap_size();
      set_heap(allocate(n), n);
      std::memcpy(heap(), o.heap(), n);
    } else {
      std::memcpy(buf_, o.buf_, kInlineCapacity);
    }
  }
  RdataBlock(RdataBlock&& o) noexcept : size_(o.size_) {
    std::memcpy(buf_, o.buf_, kInlineCapacity);  // bytes or heap block
    o.size_ = 0;
  }
  RdataBlock& operator=(const RdataBlock& o) {
    if (this != &o) *this = RdataBlock{o};
    return *this;
  }
  RdataBlock& operator=(RdataBlock&& o) noexcept {
    if (this != &o) {
      free_heap();
      std::memcpy(buf_, o.buf_, kInlineCapacity);
      size_ = o.size_;
      o.size_ = 0;
    }
    return *this;
  }
  ~RdataBlock() { free_heap(); }

  /// The entries, back to back.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return spilled() ? std::span<const std::uint8_t>{heap(), heap_size()}
                     : std::span<const std::uint8_t>{buf_, size_};
  }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool spilled() const noexcept { return size_ == kSpilled; }

  /// Appends whole entries (see bytes()).
  void append(std::span<const std::uint8_t> entries);
  /// Replaces the contents with `entries`.
  void assign(std::span<const std::uint8_t> entries) {
    *this = RdataBlock{};
    append(entries);
  }

  /// Heap blocks allocated for spilled RRsets by all threads since start.
  [[nodiscard]] static std::uint64_t heap_spills() noexcept;

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
  /// A new heap block of `size` bytes, counted in heap_spills().
  static std::uint8_t* allocate(std::size_t size);

  /// The entries while they fit; once spilled, the heap block's address
  /// and size.
  alignas(std::uint8_t*) std::uint8_t buf_[kInlineCapacity]{};
  std::uint16_t size_ = 0;  // inline bytes, or kSpilled
};

static_assert(sizeof(RdataBlock) == 24);
static_assert(RdataBlock::kInlineCapacity >=
              sizeof(std::uint8_t*) + sizeof(std::uint32_t));

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

  /// Adds `rdata` unless the set already holds the same wire bytes: an
  /// RRset has no duplicate records (RFC 2181 §5). Returns whether it was
  /// added. Throws WireError when the RDATA exceeds 65535 octets.
  bool add(const Rdata& rdata);

  /// Appends the set's records to `out`, each owned by `owner` and carrying
  /// `ttl` (a wildcard synthesizes at the query name, a cache hands out the
  /// remaining TTL).
  void append_records(std::vector<ResourceRecord>& out, const Name& owner,
                      Ttl ttl) const;
  /// Appends the set's records as stored.
  void append_records(std::vector<ResourceRecord>& out) const {
    append_records(out, name, ttl);
  }
};

static_assert(sizeof(RRset) <= 80);

/// Writes `rdata` to `w` as one RdataBlock entry: its length, then its wire
/// form (uncompressed when `w` does not compress). Throws WireError when
/// the RDATA exceeds 65535 octets.
void write_block_entry(WireWriter& w, const Rdata& rdata);

/// Calls `fn(RRset&&)` for each RRset the records form, in first-seen
/// order, with the records' RDATAs in order as given. Mixed TTLs within a
/// set are normalized to the minimum (conservative, RFC 2181). Each set is
/// the caller's to keep (a cache moves it in as it is).
template <class Fn>
void for_each_rrset(const std::vector<ResourceRecord>& records, Fn&& fn) {
  if (records.empty()) return;
  WireWriter w{/*compress=*/false};
  for (auto rr = records.begin(); rr != records.end(); ++rr) {
    const RRType type = rr->type();
    const auto same_set = [&](const ResourceRecord& o) {
      return o.type() == type && o.rrclass == rr->rrclass &&
             o.name == rr->name;
    };
    if (std::any_of(records.begin(), rr, same_set)) continue;  // grouped
    RRset set{rr->name, rr->rrclass, type, rr->ttl, {}};
    const std::size_t start = w.size();
    for (auto o = rr; o != records.end(); ++o) {
      if (!same_set(*o)) continue;
      set.ttl = std::min(set.ttl, o->ttl);
      write_block_entry(w, o->rdata);
    }
    set.block.assign(std::span{w.data()}.subspan(start));
    fn(std::move(set));
  }
}

}  // namespace recwild::dns
