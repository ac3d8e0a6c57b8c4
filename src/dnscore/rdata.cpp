#include "dnscore/rdata.hpp"

#include <cstdio>
#include <iterator>

namespace recwild::dns {

namespace {

std::string ipv6_to_string(const std::array<std::uint8_t, 16>& a) {
  char buf[48];
  char* p = buf;
  for (int i = 0; i < 16; i += 2) {
    const unsigned group = (unsigned{a[static_cast<std::size_t>(i)]} << 8) |
                           a[static_cast<std::size_t>(i + 1)];
    p += std::snprintf(p, 6, i == 0 ? "%x" : ":%x", group);
  }
  return buf;
}

std::string_view as_text(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

RRType rdata_type(const Rdata& rdata) noexcept {
  // The alternatives' types in variant order; RawRdata carries its own.
  static constexpr RRType kTypes[] = {
      RRType::A,   RRType::AAAA, RRType::NS,  RRType::CNAME,
      RRType::PTR, RRType::SOA,  RRType::MX,  RRType::TXT,
      RRType::SRV, RRType::OPT,  RRType::CAA};
  static_assert(std::size(kTypes) + 1 == std::variant_size_v<Rdata>);
  if (const auto* raw = std::get_if<RawRdata>(&rdata)) {
    return static_cast<RRType>(raw->type);
  }
  return kTypes[rdata.index()];
}

void encode_rdata(WireWriter& w, const Rdata& rdata) {
  std::visit(
      [&w](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          w.u32(v.address.bits());
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          w.bytes(v.address);
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          w.name(v.nsdname, /*compress=*/false);
        } else if constexpr (std::is_same_v<T, CnameRdata> ||
                             std::is_same_v<T, PtrRdata>) {
          w.name(v.target, /*compress=*/false);
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          w.name(v.mname, /*compress=*/false);
          w.name(v.rname, /*compress=*/false);
          w.u32(v.serial);
          w.u32(v.refresh);
          w.u32(v.retry);
          w.u32(v.expire);
          w.u32(v.minimum);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          w.u16(v.preference);
          w.name(v.exchange, /*compress=*/false);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const std::string& s : v.strings) w.char_string(s);
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          w.u16(v.priority);
          w.u16(v.weight);
          w.u16(v.port);
          w.name(v.target, /*compress=*/false);
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          for (const auto& opt : v.options) {
            w.u16(opt.code);
            w.u16(static_cast<std::uint16_t>(opt.data.size()));
            w.bytes(opt.data);
          }
        } else if constexpr (std::is_same_v<T, CaaRdata>) {
          w.u8(v.flags);
          w.char_string(v.tag);
          w.bytes({reinterpret_cast<const std::uint8_t*>(v.value.data()),
                   v.value.size()});
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          // The encoder walks the names of these types unchecked, so they
          // come only from their typed forms or the decoder.
          switch (static_cast<RRType>(v.type)) {
            case RRType::NS:
            case RRType::CNAME:
            case RRType::PTR:
            case RRType::SOA:
            case RRType::MX:
              throw WireError{"raw RDATA for a type with compressed names"};
            default:
              w.bytes(v.data);
          }
        }
      },
      rdata);
}

Name RdataView::target() const {
  WireReader r{wire_};
  return r.name();
}

bool RdataView::operator==(const RdataView& o) const noexcept {
  if (type_ != o.type_ || wire_.size() != o.wire_.size()) return false;
  // [from, to) holds the names: all of NS, CNAME and PTR, an SOA's up to
  // its counters, an MX's after its preference, an SRV's after its ports.
  std::size_t from = 0;
  std::size_t to = wire_.size();
  if (type_ == RRType::MX || type_ == RRType::SRV) {
    from = type_ == RRType::MX ? 2 : 6;
  } else if (type_ == RRType::SOA) {
    to -= 20;
  } else if (type_ != RRType::NS && type_ != RRType::CNAME &&
             type_ != RRType::PTR) {
    to = 0;
  }
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    auto a = static_cast<char>(wire_[i]);
    auto b = static_cast<char>(o.wire_[i]);
    if (i >= from && i < to) {
      a = Name::to_lower(a);
      b = Name::to_lower(b);
    }
    if (a != b) return false;
  }
  return true;
}

std::string rdata_to_string(RdataView rdata) {
  WireReader r{rdata.wire()};
  std::string out;
  switch (rdata.type()) {
    case RRType::A:
      return rdata.a().to_string();
    case RRType::AAAA:
      return ipv6_to_string(rdata.aaaa());
    case RRType::NS:
    case RRType::CNAME:
    case RRType::PTR:
      return rdata.target().to_string();
    case RRType::SOA:
      out = r.name().to_string();
      out += ' ';
      out += r.name().to_string();
      while (!r.at_end()) out += ' ' + std::to_string(r.u32());
      return out;
    case RRType::MX:
      out = std::to_string(r.u16());
      out += ' ';
      out += r.name().to_string();
      return out;
    case RRType::TXT:
      for (const std::string_view s : rdata.txt()) {
        if (!out.empty()) out += ' ';
        out += '"';
        out += s;
        out += '"';
      }
      return out;
    case RRType::SRV:
      for (int i = 0; i < 3; ++i) out += std::to_string(r.u16()) + ' ';
      out += r.name().to_string();
      return out;
    case RRType::OPT: {
      std::size_t options = 0;
      for (; !r.at_end(); ++options) {
        r.u16();
        r.skip(r.u16());
      }
      return "OPT(" + std::to_string(options) + " options)";
    }
    case RRType::CAA: {
      out = std::to_string(r.u8());
      out += ' ';
      out += as_text(r.view(r.u8()));
      out += " \"";
      out += as_text(r.view(r.remaining()));
      out += '"';
      return out;
    }
    default:
      return "\\# " + std::to_string(rdata.wire().size());
  }
}

}  // namespace recwild::dns
