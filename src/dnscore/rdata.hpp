// Typed RDATA (RFC 1035 §3.3, RFC 3596, RFC 2782, RFC 6891, RFC 8659).
//
// Rdata is a closed variant over the record types the library understands,
// plus RawRdata as an escape hatch for anything else (kept verbatim, so
// unknown types round-trip through the codec unchanged, RFC 3597-style).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dnscore/name.hpp"
#include "dnscore/types.hpp"
#include "dnscore/wire.hpp"
#include "net/address.hpp"

namespace recwild::dns {

struct ARdata {
  net::IpAddress address;
  bool operator==(const ARdata&) const = default;
};

struct AaaaRdata {
  std::array<std::uint8_t, 16> address{};
  bool operator==(const AaaaRdata&) const = default;
};

struct NsRdata {
  Name nsdname;
  bool operator==(const NsRdata&) const = default;
};

struct CnameRdata {
  Name target;
  bool operator==(const CnameRdata&) const = default;
};

struct PtrRdata {
  Name target;
  bool operator==(const PtrRdata&) const = default;
};

struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;  // negative-caching TTL (RFC 2308)
  bool operator==(const SoaRdata&) const = default;
};

struct MxRdata {
  std::uint16_t preference = 0;
  Name exchange;
  bool operator==(const MxRdata&) const = default;
};

/// TXT RDATA (RFC 1035 §3.3.14): one or more character-strings, held as
/// their wire form (each string a length octet followed by its bytes), the
/// way Name holds its labels. RDATA of up to kInlineCapacity octets lives
/// inside the object; longer RDATA spills to one heap block of exactly its
/// size. A probe answer (one short site code) is copied, decoded and cached
/// without touching the heap. Equality compares the bytes, so it is
/// case-sensitive, as character-strings are.
class TxtRdata {
 public:
  /// Sized so that TxtRdata, like SoaRdata, fills 120 bytes and Rdata stays
  /// 128.
  static constexpr std::size_t kInlineCapacity = 118;

  /// Forward iterator over the character-strings. Yields views into the
  /// TxtRdata, valid while it is alive and unmodified.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    Iterator() = default;
    std::string_view operator*() const noexcept {
      return {reinterpret_cast<const char*>(p_ + 1), *p_};
    }
    Iterator& operator++() noexcept {
      p_ += 1 + std::size_t{*p_};
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class TxtRdata;
    explicit Iterator(const std::uint8_t* p) : p_(p) {}
    const std::uint8_t* p_ = nullptr;
  };

  /// No strings (a decoded zero-length RDATA; not valid in a zone).
  TxtRdata() = default;
  /// From character-strings: TxtRdata{{"FRA"}}, TxtRdata{{"a", "b"}}.
  /// Throws std::invalid_argument as append() does.
  TxtRdata(const std::vector<std::string>& strings);  // NOLINT(*-explicit-*)

  TxtRdata(const TxtRdata& o) : size_(o.size_) {
    if (o.spilled()) {
      set_heap(allocate(size_));
      std::memcpy(heap(), o.heap(), size_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineCapacity);
    }
  }
  TxtRdata(TxtRdata&& o) noexcept : size_(o.size_) {
    std::memcpy(buf_, o.buf_, kInlineCapacity);  // bytes or heap pointer
    o.size_ = 0;
  }
  TxtRdata& operator=(const TxtRdata& o) {
    if (this != &o) *this = TxtRdata{o};
    return *this;
  }
  TxtRdata& operator=(TxtRdata&& o) noexcept {
    if (this != &o) {
      free_heap();
      std::memcpy(buf_, o.buf_, kInlineCapacity);
      size_ = o.size_;
      o.size_ = 0;
    }
    return *this;
  }
  ~TxtRdata() { free_heap(); }

  /// Adopts wire-form RDATA. Throws WireError when a length octet runs past
  /// the end.
  static TxtRdata from_wire(std::span<const std::uint8_t> wire);

  /// Appends one character-string. Throws std::invalid_argument when it
  /// exceeds 255 octets or the RDATA would exceed 65535.
  void append(std::string_view s);

  [[nodiscard]] Iterator begin() const noexcept { return Iterator{data()}; }
  [[nodiscard]] Iterator end() const noexcept {
    return Iterator{data() + size_};
  }
  /// The strings as owned copies, for tests and presentation code.
  [[nodiscard]] std::vector<std::string> strings() const;

  /// The RDATA exactly as it goes on the wire.
  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept {
    return {data(), size_};
  }
  [[nodiscard]] bool spilled() const noexcept {
    return size_ > kInlineCapacity;
  }

  bool operator==(const TxtRdata& o) const noexcept {
    return size_ == o.size_ && std::memcmp(data(), o.data(), size_) == 0;
  }

  /// Heap blocks allocated for spilled TXT RDATA by all threads since start.
  [[nodiscard]] static std::uint64_t heap_spills() noexcept;

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
  /// Replaces the bytes with `bytes`.
  void assign(std::span<const std::uint8_t> bytes);
  /// A new heap block of `size` bytes, counted in heap_spills().
  static std::uint8_t* allocate(std::size_t size);

  /// The RDATA while it fits; once spilled, the heap block's address.
  alignas(std::uint8_t*) std::uint8_t buf_[kInlineCapacity]{};
  std::uint16_t size_ = 0;  // RDATA octets
};

static_assert(sizeof(TxtRdata) == 120);

struct SrvRdata {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  Name target;
  bool operator==(const SrvRdata&) const = default;
};

/// EDNS0 OPT pseudo-record payload (RFC 6891). The "TTL" and "class" fields
/// of an OPT RR carry flags and UDP size; those live in EdnsInfo on the
/// message, while this struct holds the option list.
struct OptRdata {
  struct Option {
    std::uint16_t code = 0;
    std::vector<std::uint8_t> data;
    bool operator==(const Option&) const = default;
  };
  std::vector<Option> options;
  bool operator==(const OptRdata&) const = default;
};

struct CaaRdata {
  std::uint8_t flags = 0;
  std::string tag;
  std::string value;
  bool operator==(const CaaRdata&) const = default;
};

/// Unknown/unsupported type: opaque bytes, round-tripped unchanged.
struct RawRdata {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> data;
  bool operator==(const RawRdata&) const = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, PtrRdata,
                           SoaRdata, MxRdata, TxtRdata, SrvRdata, OptRdata,
                           CaaRdata, RawRdata>;

static_assert(sizeof(Rdata) <= 128);

/// The RRType a given Rdata value represents.
RRType rdata_type(const Rdata& rdata) noexcept;

/// Encodes RDATA (without the RDLENGTH prefix) into `w`. Names inside RDATA
/// are compressed only for types where RFC 3597 permits it (NS, CNAME, PTR,
/// SOA, MX — the types whose compression predates RFC 3597).
void encode_rdata(WireWriter& w, const Rdata& rdata);

/// Decodes `rdlength` octets of RDATA of type `type` from `r`.
/// Unknown types come back as RawRdata.
Rdata decode_rdata(WireReader& r, RRType type, std::size_t rdlength);

/// Presentation format of the RDATA ("192.0.2.1", "10 mail.example.nl.", …).
std::string rdata_to_string(const Rdata& rdata);

}  // namespace recwild::dns
