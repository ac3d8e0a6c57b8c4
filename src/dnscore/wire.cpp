#include "dnscore/wire.hpp"

namespace recwild::dns {

namespace {

constexpr std::uint16_t kPointerMask = 0xc000;
constexpr std::size_t kMaxCompressionOffset = 0x3fff;
constexpr std::uint16_t kNoOffset = 0xffff;
constexpr std::size_t kInitialTableSlots = 64;  // power of two
// A name is at most 255 wire octets, so at most 127 labels.
constexpr std::size_t kMaxLabelsPerName = 128;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kRootHash = 0x9e3779b97f4a7c15ull;

/// FNV-1a over the label's length byte and case-folded characters.
std::uint64_t label_hash(const std::uint8_t* p, std::size_t len) {
  std::uint64_t h = (kFnvBasis ^ len) * kFnvPrime;
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ static_cast<std::uint8_t>(
                 Name::to_lower(static_cast<char>(p[i])))) *
        kFnvPrime;
  }
  return h;
}

/// Folds a label hash into the hash of the suffix to its right. Suffix
/// hashes are built back-to-front so one backward pass yields every
/// suffix of a name.
std::uint64_t fold_label(std::uint64_t suffix_h, std::uint64_t lh) {
  return (suffix_h ^ lh) * kFnvPrime;
}

}  // namespace

WireWriter::WireWriter(bool compress)
    : buf_(net::WireBufferPool::acquire()),
      table_(net::WireBufferPool::acquire_scratch16()),
      compress_(compress) {}

WireWriter::~WireWriter() {
  net::WireBufferPool::release(std::move(buf_));
  net::WireBufferPool::release_scratch16(std::move(table_));
}

net::WireBuffer WireWriter::take() && {
  net::WireBuffer out{std::move(buf_)};
  buf_.clear();  // moved-from: make the dtor's release well-defined
  return out;
}

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::bytes(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

bool WireWriter::suffix_matches(std::size_t pos,
                                std::span<const std::uint8_t> tail) const {
  // Walks the already-written bytes; every recorded offset points at a
  // completed name (name() publishes offsets only after the terminator or
  // pointer is written) whose pointers target earlier recorded names, so
  // the walk terminates without bounds checks. `tail` is uncompressed wire
  // form without its root octet, so it ends exactly where the name does.
  std::size_t j = 0;
  for (;;) {
    std::uint8_t len = buf_[pos];
    while ((len & 0xc0) == 0xc0) {
      pos = (static_cast<std::size_t>(len & 0x3f) << 8) | buf_[pos + 1];
      len = buf_[pos];
    }
    if (len == 0) return j == tail.size();
    if (j == tail.size() || tail[j] != len) return false;
    for (std::size_t k = 1; k <= len; ++k) {
      if (Name::to_lower(static_cast<char>(buf_[pos + k])) !=
          Name::to_lower(static_cast<char>(tail[j + k]))) {
        return false;
      }
    }
    pos += 1 + std::size_t{len};
    j += 1 + std::size_t{len};
  }
}

std::uint64_t WireWriter::hash_at(std::size_t pos) const {
  // Labels come off the buffer front-to-back but the suffix hash folds
  // back-to-front; stage positions on the stack, then fold in reverse.
  std::uint16_t lpos[kMaxLabelsPerName];
  std::uint8_t llen[kMaxLabelsPerName];
  std::size_t count = 0;
  for (;;) {
    std::uint8_t len = buf_[pos];
    while ((len & 0xc0) == 0xc0) {
      pos = (static_cast<std::size_t>(len & 0x3f) << 8) | buf_[pos + 1];
      len = buf_[pos];
    }
    if (len == 0) break;
    lpos[count] = static_cast<std::uint16_t>(pos);
    llen[count] = len;
    ++count;
    pos += 1 + std::size_t{len};
  }
  std::uint64_t h = kRootHash;
  for (std::size_t j = count; j-- > 0;) {
    h = fold_label(h, label_hash(buf_.data() + lpos[j] + 1, llen[j]));
  }
  return h;
}

std::uint16_t WireWriter::find_suffix(
    std::uint64_t h, std::span<const std::uint8_t> tail) const {
  if (table_entries_ == 0) return kNoOffset;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t idx = h & mask;; idx = (idx + 1) & mask) {
    const std::uint16_t off = table_[idx];
    if (off == kNoOffset) return kNoOffset;
    if (suffix_matches(off, tail)) return off;
  }
}

void WireWriter::insert_suffix(std::uint64_t h, std::uint16_t offset) {
  if (table_.empty()) table_.assign(kInitialTableSlots, kNoOffset);
  if ((table_entries_ + 1) * 2 > table_.size()) grow_table();
  const std::size_t mask = table_.size() - 1;
  std::size_t idx = h & mask;
  while (table_[idx] != kNoOffset) idx = (idx + 1) & mask;
  table_[idx] = offset;
  ++table_entries_;
}

void WireWriter::grow_table() {
  std::vector<std::uint16_t> old = std::move(table_);
  table_ = net::WireBufferPool::acquire_scratch16();
  table_.assign(old.size() * 2, kNoOffset);
  const std::size_t mask = table_.size() - 1;
  for (const std::uint16_t off : old) {
    if (off == kNoOffset) continue;
    std::size_t idx = hash_at(off) & mask;
    while (table_[idx] != kNoOffset) idx = (idx + 1) & mask;
    table_[idx] = off;
  }
  net::WireBufferPool::release_scratch16(std::move(old));
}

void WireWriter::name(std::span<const std::uint8_t> wire, bool compress) {
  if (!compress || !compress_ || wire.empty()) {
    bytes(wire);
    u8(0);  // root
    return;
  }
  // Where each label starts in the name's flat wire form.
  std::uint8_t start[kMaxLabelsPerName + 1];
  std::size_t count = 0;
  for (std::size_t p = 0; p < wire.size(); p += 1 + std::size_t{wire[p]}) {
    start[count++] = static_cast<std::uint8_t>(p);
  }
  start[count] = static_cast<std::uint8_t>(wire.size());
  // One backward pass yields the hash of every suffix of the name.
  std::uint64_t suffix_hash[kMaxLabelsPerName + 1];
  suffix_hash[count] = kRootHash;
  for (std::size_t i = count; i-- > 0;) {
    suffix_hash[i] = fold_label(
        suffix_hash[i + 1], label_hash(wire.data() + start[i] + 1,
                                       wire[start[i]]));
  }
  // Stage this name's (hash, offset) pairs locally and publish them only
  // once its terminator (root byte or pointer) is written. Table entries
  // must always point at completed names: find_suffix/grow_table walk the
  // buffer from each recorded offset, and an entry for the name currently
  // being written would send them past buf_.size(). Deferral is
  // byte-identical to eager insertion — suffixes of one name have distinct
  // label counts, so no suffix of the name being written can ever match a
  // find_suffix probe for a later suffix of the same name.
  std::uint64_t pending_hash[kMaxLabelsPerName];
  std::uint16_t pending_off[kMaxLabelsPerName];
  std::size_t pending = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint16_t off =
        find_suffix(suffix_hash[i], wire.subspan(start[i]));
    if (off != kNoOffset) {
      u16(static_cast<std::uint16_t>(kPointerMask | off));
      for (std::size_t j = 0; j < pending; ++j) {
        insert_suffix(pending_hash[j], pending_off[j]);
      }
      return;
    }
    if (buf_.size() <= kMaxCompressionOffset) {
      pending_hash[pending] = suffix_hash[i];
      pending_off[pending] = static_cast<std::uint16_t>(buf_.size());
      ++pending;
    }
    bytes(wire.subspan(start[i], start[i + 1] - start[i]));
  }
  u8(0);  // root
  for (std::size_t j = 0; j < pending; ++j) {
    insert_suffix(pending_hash[j], pending_off[j]);
  }
}

void WireWriter::char_string(std::string_view s) {
  if (s.size() > 255) throw WireError{"char-string exceeds 255 octets"};
  u8(static_cast<std::uint8_t>(s.size()));
  bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void WireWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) throw WireError{"patch_u16 out of range"};
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

void WireReader::require(std::size_t n) const {
  if (pos_ + n > data_.size()) throw WireError{"truncated message"};
}

void WireReader::seek(std::size_t offset) {
  if (offset > data_.size()) throw WireError{"seek out of range"};
  pos_ = offset;
}

std::uint8_t WireReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  require(2);
  const std::uint16_t v = (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1];
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  require(4);
  const std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                          (std::uint32_t{data_[pos_ + 1]} << 16) |
                          (std::uint32_t{data_[pos_ + 2]} << 8) |
                          std::uint32_t{data_[pos_ + 3]};
  pos_ += 4;
  return v;
}

std::vector<std::uint8_t> WireReader::bytes(std::size_t n) {
  const auto v = view(n);
  return {v.begin(), v.end()};
}

std::span<const std::uint8_t> WireReader::view(std::size_t n) {
  require(n);
  const auto v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

void WireReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

Name WireReader::name() {
  Name out;
  std::size_t expanded = 1;  // root byte
  std::size_t pos = pos_;
  bool jumped = false;
  std::size_t min_pointer_target = data_.size();  // pointers go strictly back

  for (;;) {
    if (pos >= data_.size()) throw WireError{"truncated name"};
    const std::uint8_t len = data_[pos];
    if ((len & 0xc0) == 0xc0) {
      if (pos + 1 >= data_.size()) throw WireError{"truncated pointer"};
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | data_[pos + 1];
      // A pointer must reference an earlier occurrence: strictly before the
      // pointer itself, and each chained pointer strictly before the last.
      if (target >= pos || target >= min_pointer_target) {
        throw WireError{"compression pointer loop"};
      }
      min_pointer_target = target;
      if (!jumped) {
        pos_ = pos + 2;
        jumped = true;
      }
      pos = target;
      continue;
    }
    if ((len & 0xc0) != 0) throw WireError{"reserved label type"};
    if (len == 0) {
      if (!jumped) pos_ = pos + 1;
      break;
    }
    if (pos + 1 + len > data_.size()) throw WireError{"truncated label"};
    expanded += 1 + len;
    if (expanded > kMaxNameWireLength) throw WireError{"name too long"};
    // Limits are checked above, so appending cannot throw.
    out.append_label(
        {reinterpret_cast<const char*>(data_.data() + pos + 1), len});
    pos += 1 + len;
  }
  return out;
}

}  // namespace recwild::dns
