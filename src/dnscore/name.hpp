// Domain names (RFC 1034 §3.1, RFC 1035 §2.3.1).
//
// A Name holds its labels as one flat, uncompressed wire-format byte
// string: each label is a length octet followed by its characters,
// most-specific label first, case kept as written. The terminating root
// octet is implied, so the root name is the empty string. Comparison and
// hashing are case-insensitive per RFC 1035 §2.3.3. Wire-format limits are
// enforced on construction: labels of 1..63 octets, total wire length <=
// 255.
//
// The bytes live inside the Name when they fit in kInlineCapacity octets;
// only longer names spill to one heap block of exactly their size. Every
// name a campaign or scan under the default test domain builds fits
// inline, so decoding, copying, prefixing or taking a suffix of one
// allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace recwild::dns {

inline constexpr std::size_t kMaxLabelLength = 63;
inline constexpr std::size_t kMaxNameWireLength = 255;

class Name {
 public:
  /// Label octets (the wire form without its root octet) stored inside the
  /// Name. Names of up to kInlineCapacity + 1 wire octets never allocate.
  static constexpr std::size_t kInlineCapacity = 38;

  /// Forward iterator over the labels, most-specific first. Yields views
  /// into the Name, valid while the Name is alive and unmodified.
  class LabelIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    LabelIterator() = default;
    std::string_view operator*() const noexcept {
      return {reinterpret_cast<const char*>(p_ + 1), *p_};
    }
    LabelIterator& operator++() noexcept {
      p_ += 1 + std::size_t{*p_};
      return *this;
    }
    LabelIterator operator++(int) noexcept {
      LabelIterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const LabelIterator&) const = default;

   private:
    friend class Name;
    explicit LabelIterator(const std::uint8_t* p) : p_(p) {}
    const std::uint8_t* p_ = nullptr;
  };

  /// The root name (".").
  Name() = default;

  // The cached hash travels with the bytes (same bytes, same hash). A
  // moved-from Name is the root, with its cache cleared.
  Name(const Name& o)
      : hash_cache_(o.hash_cache_.load(std::memory_order_relaxed)),
        size_(o.size_),
        count_(o.count_) {
    if (o.spilled()) {
      set_heap(allocate(size_));
      std::memcpy(heap(), o.heap(), size_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineCapacity);
    }
  }
  Name(Name&& o) noexcept
      : hash_cache_(o.hash_cache_.load(std::memory_order_relaxed)),
        size_(o.size_),
        count_(o.count_) {
    std::memcpy(buf_, o.buf_, kInlineCapacity);  // bytes or heap pointer
    o.reset();
  }
  Name& operator=(const Name& o) {
    if (this != &o) *this = Name{o};
    return *this;
  }
  Name& operator=(Name&& o) noexcept {
    if (this != &o) {
      free_heap();
      std::memcpy(buf_, o.buf_, kInlineCapacity);
      size_ = o.size_;
      count_ = o.count_;
      hash_cache_.store(o.hash_cache_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      o.reset();
    }
    return *this;
  }
  ~Name() { free_heap(); }

  /// Parses presentation format: "www.example.nl" or "www.example.nl.".
  /// Accepts escaped dots ("\.") inside labels. Throws std::invalid_argument
  /// on empty labels, oversize labels/names, or other malformed input.
  static Name parse(std::string_view text);

  /// Builds from raw labels (no unescaping). Throws on limit violations.
  static Name from_labels(const std::vector<std::string>& labels);

  /// Appends `label` as the new least-specific label, for building a name
  /// left to right. Throws std::invalid_argument on an empty or oversize
  /// label, or when the name would exceed 255 wire octets. Like any other
  /// mutation, it must not race with readers of the same Name.
  void append_label(std::string_view label);

  [[nodiscard]] bool is_root() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t label_count() const noexcept { return count_; }
  /// Label `i` (0 = most specific). Throws std::out_of_range past the end.
  [[nodiscard]] std::string_view label(std::size_t i) const;

  [[nodiscard]] LabelIterator begin() const noexcept {
    return LabelIterator{data()};
  }
  [[nodiscard]] LabelIterator end() const noexcept {
    return LabelIterator{data() + size_};
  }

  /// The uncompressed wire form without the root octet.
  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept {
    return {data(), size_};
  }

  /// Wire-format length in octets (sum of 1+len per label, +1 root byte).
  [[nodiscard]] std::size_t wire_length() const noexcept {
    return std::size_t{size_} + 1;
  }

  /// True when the bytes live in a heap block rather than inline.
  [[nodiscard]] bool spilled() const noexcept {
    return size_ > kInlineCapacity;
  }

  /// Presentation format, always with trailing dot ("example.nl.", ".").
  [[nodiscard]] std::string to_string() const;
  /// Appends the presentation format to `out` (no allocation once `out`
  /// has room).
  void append_to(std::string& out) const;

  /// Case-insensitive equality.
  [[nodiscard]] bool equals(const Name& o) const noexcept;
  bool operator==(const Name& o) const noexcept { return equals(o); }

  /// Canonical DNSSEC-style ordering (case-insensitive, right-to-left by
  /// label). Provides a strict weak order for sorted zone storage.
  [[nodiscard]] int compare(const Name& o) const noexcept;
  bool operator<(const Name& o) const noexcept { return compare(o) < 0; }

  /// True if *this is `ancestor` itself or a descendant of it.
  [[nodiscard]] bool is_subdomain_of(const Name& ancestor) const noexcept;

  /// The ancestor keeping the last `depth` labels: suffix(label_count()) is
  /// the name itself, suffix(0) the root. Throws std::out_of_range when
  /// `depth` exceeds label_count().
  [[nodiscard]] Name suffix(std::size_t depth) const;

  /// Immediate parent; root's parent is root.
  [[nodiscard]] Name parent() const;

  /// Prepends a label: Name::parse("example.nl").prefixed("www").
  [[nodiscard]] Name prefixed(std::string_view label) const;

  /// Concatenation: relative.concat(origin) appends origin's labels.
  [[nodiscard]] Name concat(const Name& origin) const;

  /// Case-insensitive hash consistent with equals(): FNV-1a over the
  /// lower-cased label characters, each label followed by a 0xff octet.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Heap blocks allocated for spilled names by all threads since start.
  [[nodiscard]] static std::uint64_t heap_spills() noexcept;

  /// Lower-cases ASCII; used for canonical comparisons.
  static char to_lower(char c) noexcept {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }

 private:
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return spilled() ? heap() : buf_;
  }
  [[nodiscard]] std::uint8_t* heap() const noexcept {
    std::uint8_t* p = nullptr;
    std::memcpy(&p, buf_, sizeof p);
    return p;
  }
  void set_heap(std::uint8_t* p) noexcept { std::memcpy(buf_, &p, sizeof p); }
  void free_heap() noexcept {
    if (spilled()) delete[] heap();
  }
  void reset() noexcept {
    size_ = 0;
    count_ = 0;
    hash_cache_.store(0, std::memory_order_relaxed);
  }
  /// Gives a root Name room for `size` bytes of `count` labels and returns
  /// where to write them.
  std::uint8_t* init(std::size_t size, std::size_t count);
  /// A new heap block of `size` bytes, counted in heap_spills().
  static std::uint8_t* allocate(std::size_t size);

  /// Lazily computed hash(); 0 = not yet computed (the computed value is
  /// remapped off 0). Relaxed atomic: the bytes never change once a Name is
  /// visible, so concurrent shard threads at worst both compute the same
  /// value — no torn reads, no TSan findings, no locking.
  mutable std::atomic<std::size_t> hash_cache_{0};
  /// The label bytes while they fit; once spilled, the heap block's
  /// address (copied in and out with memcpy).
  alignas(std::uint8_t*) std::uint8_t buf_[kInlineCapacity]{};
  std::uint8_t size_ = 0;   // label bytes: wire_length() - 1, at most 254
  std::uint8_t count_ = 0;  // labels, at most 127
};

static_assert(sizeof(Name) == 48);
static_assert(Name::kInlineCapacity >= sizeof(std::uint8_t*));

}  // namespace recwild::dns

template <>
struct std::hash<recwild::dns::Name> {
  std::size_t operator()(const recwild::dns::Name& n) const noexcept {
    return n.hash();
  }
};
