// Bounds-checked wire-format primitives (RFC 1035 §4.1).
//
// WireWriter appends big-endian integers, raw bytes, and domain names with
// RFC 1035 §4.1.4 compression pointers. WireReader is the inverse, with
// strict bounds checking and compression-loop protection — a parser fed by
// the (simulated) network must never read out of bounds or loop forever.
//
// The writer is allocation-free on the hot path: its byte storage and its
// compression table both come from the thread-local WireBufferPool, and
// the finished message leaves as a pooled net::WireBuffer that the
// Datagram carries through the network without a copy. Compression
// bookkeeping is an open-addressed table of buffer offsets verified by
// walking the already-written bytes — no per-suffix key strings (the old
// map-of-strings scheme allocated one heap string per label of every name
// written, which dominated the encode profile; it also conflated labels
// containing literal dots, a corner this scheme compares correctly).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnscore/name.hpp"
#include "net/wire_buffer.hpp"

namespace recwild::dns {

/// Thrown on malformed or truncated wire data.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class WireWriter {
 public:
  /// With `compress` false every name is written in full, as RRset blocks
  /// store them.
  explicit WireWriter(bool compress = true);
  ~WireWriter();
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  /// Finishes the message: the bytes move out as a pooled WireBuffer,
  /// ready to hand to Network::send without copying.
  [[nodiscard]] net::WireBuffer take() &&;
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> b);

  /// Writes a name, using a compression pointer when a suffix of it was
  /// written before and the writer compresses. Set `compress = false`
  /// inside RDATA types whose names must not be compressed (SRV).
  void name(const Name& n, bool compress = true) { name(n.wire(), compress); }
  /// The same for a name given as its uncompressed wire form without the
  /// root octet (Name::wire()), such as a name inside stored RDATA.
  void name(std::span<const std::uint8_t> wire, bool compress = true);

  /// Character-string: length byte + up to 255 octets (RFC 1035 §3.3).
  void char_string(std::string_view s);

  /// Patches a previously-written u16 at `offset` (for RDLENGTH back-fill).
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  /// Offset of the first occurrence of the suffix `tail` (flat wire form
  /// without the root octet), or kNoOffset. `h` is the suffix's
  /// case-folded hash; matches are confirmed by walking the buffer.
  [[nodiscard]] std::uint16_t find_suffix(
      std::uint64_t h, std::span<const std::uint8_t> tail) const;
  void insert_suffix(std::uint64_t h, std::uint16_t offset);
  void grow_table();
  /// Case-insensitive compare of the name starting at buffer `pos`
  /// (following pointers) against `tail`.
  [[nodiscard]] bool suffix_matches(std::size_t pos,
                                    std::span<const std::uint8_t> tail) const;
  /// Recomputes the suffix hash of the name at buffer `pos` (rehash path).
  [[nodiscard]] std::uint64_t hash_at(std::size_t pos) const;

  std::vector<std::uint8_t> buf_;  // pooled; becomes the WireBuffer
  // Open-addressed set of name-start offsets (pooled scratch). A slot is
  // kNoOffset when empty; offsets are <= 0x3fff so the sentinel is safe.
  std::vector<std::uint16_t> table_;
  std::size_t table_entries_ = 0;
  bool compress_ = true;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  void seek(std::size_t offset);

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::vector<std::uint8_t> bytes(std::size_t n);
  /// The next `n` octets in place, without a copy; valid while the input is.
  std::span<const std::uint8_t> view(std::size_t n);
  void skip(std::size_t n);

  /// Reads a (possibly compressed) name. Pointers may only point backwards;
  /// the total expanded length is capped at kMaxNameWireLength.
  Name name();

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace recwild::dns
