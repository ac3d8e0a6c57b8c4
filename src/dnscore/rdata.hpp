// RDATA (RFC 1035 §3.3, RFC 3596, RFC 2782, RFC 6891, RFC 8659).
//
// A record carries its RDATA in one form from the wire to the zone, the
// cache and the wire again: its uncompressed wire bytes (names written in
// full), read in place through RdataView. The typed Rdata variant is only
// the input form for building a record — the zone-file parser, the
// experiment and attack zone builders, tests — and encode_rdata turns it
// into those bytes. RawRdata covers any other type, kept verbatim, so
// unknown types round-trip through the codec unchanged (RFC 3597-style).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <ranges>
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

/// TXT RDATA (RFC 1035 §3.3.14): one or more character-strings of up to
/// 255 octets each. No strings is a zero-length RDATA (not valid in a
/// zone).
struct TxtRdata {
  std::vector<std::string> strings;
  bool operator==(const TxtRdata&) const = default;
};

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

/// Any other type: opaque bytes, round-tripped unchanged. Not for the
/// types whose names the encoder compresses (NS, CNAME, PTR, SOA, MX).
struct RawRdata {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> data;
  bool operator==(const RawRdata&) const = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, PtrRdata,
                           SoaRdata, MxRdata, TxtRdata, SrvRdata, OptRdata,
                           CaaRdata, RawRdata>;

/// The RRType a given Rdata value represents.
RRType rdata_type(const Rdata& rdata) noexcept;

/// Writes RDATA's uncompressed wire form (without the RDLENGTH prefix) to
/// `w`. Throws WireError when a character-string exceeds 255 octets or a
/// RawRdata claims a type whose names are compressed.
void encode_rdata(WireWriter& w, const Rdata& rdata);

/// One RDATA read in place: its type and its uncompressed wire bytes, which
/// must be valid for that type (as the decoder and encode_rdata leave
/// them). Valid while the bytes are alive and unmodified. The typed
/// accessors require the matching type.
class RdataView {
 public:
  RdataView(RRType type, std::span<const std::uint8_t> wire) noexcept
      : wire_(wire), type_(type) {}

  [[nodiscard]] RRType type() const noexcept { return type_; }
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
  /// SOA counters. minimum is the negative-caching TTL (RFC 2308).
  [[nodiscard]] std::uint32_t soa_serial() const noexcept {
    return u32_at(wire_.size() - 20);
  }
  [[nodiscard]] std::uint32_t soa_refresh() const noexcept {
    return u32_at(wire_.size() - 16);
  }
  [[nodiscard]] std::uint32_t soa_retry() const noexcept {
    return u32_at(wire_.size() - 12);
  }
  [[nodiscard]] std::uint32_t soa_minimum() const noexcept {
    return u32_at(wire_.size() - 4);
  }
  /// TXT: the character-strings.
  [[nodiscard]] std::ranges::subrange<StringIterator> txt() const noexcept {
    return {StringIterator{wire_.data()},
            StringIterator{wire_.data() + wire_.size()}};
  }

  /// Same type and bytes, names compared case-insensitively (RFC 1035
  /// §2.3.3), every other octet exactly.
  bool operator==(const RdataView& o) const noexcept;

 private:
  [[nodiscard]] std::uint32_t u32_at(std::size_t p) const noexcept {
    return (std::uint32_t{wire_[p]} << 24) |
           (std::uint32_t{wire_[p + 1]} << 16) |
           (std::uint32_t{wire_[p + 2]} << 8) | std::uint32_t{wire_[p + 3]};
  }

  std::span<const std::uint8_t> wire_;
  RRType type_;
};

/// Presentation format of the RDATA ("192.0.2.1", "10 mail.example.nl.", …).
std::string rdata_to_string(RdataView rdata);

}  // namespace recwild::dns
