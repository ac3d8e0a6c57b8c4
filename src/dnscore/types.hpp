// DNS enumerations: RR types, classes, opcodes, response codes
// (RFC 1035 §3.2, RFC 2136, RFC 6891), with presentation-format conversion.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace recwild::dns {

enum class RRType : std::uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  PTR = 12,
  MX = 15,
  TXT = 16,
  AAAA = 28,
  SRV = 33,
  OPT = 41,    // EDNS0 pseudo-RR
  AXFR = 252,  // QTYPE only: full zone transfer (RFC 5936)
  CAA = 257,
  ANY = 255,   // QTYPE only
};

enum class RRClass : std::uint16_t {
  IN = 1,
  CH = 3,    // CHAOS; the paper discusses hostname.bind CH TXT queries
  ANY = 255,
};

enum class Opcode : std::uint8_t {
  Query = 0,
  Status = 2,
  Notify = 4,
  Update = 5,
};

enum class Rcode : std::uint8_t {
  NoError = 0,
  FormErr = 1,
  ServFail = 2,
  NxDomain = 3,
  NotImp = 4,
  Refused = 5,
};

std::string_view to_string(RRType t) noexcept;
std::string_view to_string(RRClass c) noexcept;
std::string_view to_string(Opcode o) noexcept;
std::string_view to_string(Rcode r) noexcept;

std::optional<RRType> rrtype_from_string(std::string_view s) noexcept;
std::optional<RRClass> rrclass_from_string(std::string_view s) noexcept;

}  // namespace recwild::dns
