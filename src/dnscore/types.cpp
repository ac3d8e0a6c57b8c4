#include "dnscore/types.hpp"

#include <array>

namespace recwild::dns {

namespace {

struct TypeNamePair {
  RRType type;
  std::string_view name;
};

constexpr std::array<TypeNamePair, 13> kTypeNames{{
    {RRType::AXFR, "AXFR"},
    {RRType::A, "A"},
    {RRType::NS, "NS"},
    {RRType::CNAME, "CNAME"},
    {RRType::SOA, "SOA"},
    {RRType::PTR, "PTR"},
    {RRType::MX, "MX"},
    {RRType::TXT, "TXT"},
    {RRType::AAAA, "AAAA"},
    {RRType::SRV, "SRV"},
    {RRType::OPT, "OPT"},
    {RRType::CAA, "CAA"},
    {RRType::ANY, "ANY"},
}};

}  // namespace

std::string_view to_string(RRType t) noexcept {
  for (const auto& p : kTypeNames) {
    if (p.type == t) return p.name;
  }
  return "TYPE?";
}

std::string_view to_string(RRClass c) noexcept {
  switch (c) {
    case RRClass::IN: return "IN";
    case RRClass::CH: return "CH";
    case RRClass::ANY: return "ANY";
  }
  return "CLASS?";
}

std::string_view to_string(Opcode o) noexcept {
  switch (o) {
    case Opcode::Query: return "QUERY";
    case Opcode::Status: return "STATUS";
    case Opcode::Notify: return "NOTIFY";
    case Opcode::Update: return "UPDATE";
  }
  return "OPCODE?";
}

std::string_view to_string(Rcode r) noexcept {
  switch (r) {
    case Rcode::NoError: return "NOERROR";
    case Rcode::FormErr: return "FORMERR";
    case Rcode::ServFail: return "SERVFAIL";
    case Rcode::NxDomain: return "NXDOMAIN";
    case Rcode::NotImp: return "NOTIMP";
    case Rcode::Refused: return "REFUSED";
  }
  return "RCODE?";
}

std::optional<RRType> rrtype_from_string(std::string_view s) noexcept {
  for (const auto& p : kTypeNames) {
    if (p.name == s) return p.type;
  }
  return std::nullopt;
}

std::optional<RRClass> rrclass_from_string(std::string_view s) noexcept {
  if (s == "IN") return RRClass::IN;
  if (s == "CH") return RRClass::CH;
  if (s == "ANY") return RRClass::ANY;
  return std::nullopt;
}

}  // namespace recwild::dns
