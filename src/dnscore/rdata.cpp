#include "dnscore/rdata.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace recwild::dns {

namespace {

std::atomic<std::uint64_t> g_txt_heap_spills{0};

}  // namespace

TxtRdata::TxtRdata(const std::vector<std::string>& strings) {
  for (const auto& s : strings) append(s);
}

std::uint8_t* TxtRdata::allocate(std::size_t size) {
  g_txt_heap_spills.fetch_add(1, std::memory_order_relaxed);
  return new std::uint8_t[size];
}

std::uint64_t TxtRdata::heap_spills() noexcept {
  return g_txt_heap_spills.load(std::memory_order_relaxed);
}

void TxtRdata::assign(std::span<const std::uint8_t> bytes) {
  std::uint8_t* block =
      bytes.size() > kInlineCapacity ? allocate(bytes.size()) : nullptr;
  free_heap();
  size_ = static_cast<std::uint16_t>(bytes.size());
  if (block != nullptr) set_heap(block);
  if (!bytes.empty()) {
    std::memcpy(block != nullptr ? block : buf_, bytes.data(), bytes.size());
  }
}

TxtRdata TxtRdata::from_wire(std::span<const std::uint8_t> wire) {
  if (wire.size() > 0xffff) throw WireError{"TXT RDATA exceeds 65535 octets"};
  for (std::size_t p = 0; p < wire.size(); p += 1 + std::size_t{wire[p]}) {
    if (p + 1 + wire[p] > wire.size()) {
      throw WireError{"RDATA length mismatch in TXT"};
    }
  }
  TxtRdata out;
  out.assign(wire);
  return out;
}

void TxtRdata::append(std::string_view s) {
  if (s.size() > 255) {
    throw std::invalid_argument{"TXT: character-string exceeds 255 octets"};
  }
  if (std::size_t{size_} + 1 + s.size() > 0xffff) {
    throw std::invalid_argument{"TXT: RDATA exceeds 65535 octets"};
  }
  std::vector<std::uint8_t> bytes(data(), data() + size_);
  bytes.push_back(static_cast<std::uint8_t>(s.size()));
  bytes.insert(bytes.end(), s.begin(), s.end());
  assign(bytes);
}

std::vector<std::string> TxtRdata::strings() const {
  return {begin(), end()};
}

namespace {

struct TypeVisitor {
  RRType operator()(const ARdata&) const { return RRType::A; }
  RRType operator()(const AaaaRdata&) const { return RRType::AAAA; }
  RRType operator()(const NsRdata&) const { return RRType::NS; }
  RRType operator()(const CnameRdata&) const { return RRType::CNAME; }
  RRType operator()(const PtrRdata&) const { return RRType::PTR; }
  RRType operator()(const SoaRdata&) const { return RRType::SOA; }
  RRType operator()(const MxRdata&) const { return RRType::MX; }
  RRType operator()(const TxtRdata&) const { return RRType::TXT; }
  RRType operator()(const SrvRdata&) const { return RRType::SRV; }
  RRType operator()(const OptRdata&) const { return RRType::OPT; }
  RRType operator()(const CaaRdata&) const { return RRType::CAA; }
  RRType operator()(const RawRdata& r) const {
    return static_cast<RRType>(r.type);
  }
};

}  // namespace

RRType rdata_type(const Rdata& rdata) noexcept {
  return std::visit(TypeVisitor{}, rdata);
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
          w.name(v.nsdname);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          w.name(v.target);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          w.name(v.target);
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          w.name(v.mname);
          w.name(v.rname);
          w.u32(v.serial);
          w.u32(v.refresh);
          w.u32(v.retry);
          w.u32(v.expire);
          w.u32(v.minimum);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          w.u16(v.preference);
          w.name(v.exchange);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          w.bytes(v.wire());
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          w.u16(v.priority);
          w.u16(v.weight);
          w.u16(v.port);
          w.name(v.target, /*compress=*/false);  // RFC 2782
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
          w.bytes(v.data);
        }
      },
      rdata);
}

Rdata decode_rdata(WireReader& r, RRType type, std::size_t rdlength) {
  const std::size_t end = r.offset() + rdlength;
  auto check_end = [&](const char* what) {
    if (r.offset() != end) {
      throw WireError{std::string{"RDATA length mismatch in "} + what};
    }
  };
  switch (type) {
    case RRType::A: {
      if (rdlength != 4) throw WireError{"A RDATA must be 4 octets"};
      return ARdata{net::IpAddress{r.u32()}};
    }
    case RRType::AAAA: {
      if (rdlength != 16) throw WireError{"AAAA RDATA must be 16 octets"};
      AaaaRdata v;
      const auto raw = r.view(16);
      std::copy(raw.begin(), raw.end(), v.address.begin());
      return v;
    }
    case RRType::NS: {
      NsRdata v{r.name()};
      check_end("NS");
      return v;
    }
    case RRType::CNAME: {
      CnameRdata v{r.name()};
      check_end("CNAME");
      return v;
    }
    case RRType::PTR: {
      PtrRdata v{r.name()};
      check_end("PTR");
      return v;
    }
    case RRType::SOA: {
      SoaRdata v;
      v.mname = r.name();
      v.rname = r.name();
      v.serial = r.u32();
      v.refresh = r.u32();
      v.retry = r.u32();
      v.expire = r.u32();
      v.minimum = r.u32();
      check_end("SOA");
      return v;
    }
    case RRType::MX: {
      MxRdata v;
      v.preference = r.u16();
      v.exchange = r.name();
      check_end("MX");
      return v;
    }
    case RRType::TXT:
      return TxtRdata::from_wire(r.view(rdlength));
    case RRType::SRV: {
      SrvRdata v;
      v.priority = r.u16();
      v.weight = r.u16();
      v.port = r.u16();
      v.target = r.name();
      check_end("SRV");
      return v;
    }
    case RRType::OPT: {
      OptRdata v;
      while (r.offset() < end) {
        OptRdata::Option opt;
        opt.code = r.u16();
        const std::uint16_t len = r.u16();
        opt.data = r.bytes(len);
        v.options.push_back(std::move(opt));
      }
      check_end("OPT");
      return v;
    }
    case RRType::CAA: {
      CaaRdata v;
      v.flags = r.u8();
      v.tag = r.char_string();
      if (r.offset() > end) throw WireError{"CAA tag overruns RDATA"};
      const auto raw = r.view(end - r.offset());
      v.value.assign(raw.begin(), raw.end());
      return v;
    }
    default: {
      RawRdata v;
      v.type = static_cast<std::uint16_t>(type);
      v.data = r.bytes(rdlength);
      return v;
    }
  }
}

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

}  // namespace

std::string rdata_to_string(const Rdata& rdata) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          return v.address.to_string();
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          return ipv6_to_string(v.address);
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          return v.nsdname.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          return v.target.to_string();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          return v.target.to_string();
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          return v.mname.to_string() + " " + v.rname.to_string() + " " +
                 std::to_string(v.serial) + " " + std::to_string(v.refresh) +
                 " " + std::to_string(v.retry) + " " +
                 std::to_string(v.expire) + " " + std::to_string(v.minimum);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          return std::to_string(v.preference) + " " + v.exchange.to_string();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          std::string out;
          for (const std::string_view s : v) {
            if (!out.empty()) out += ' ';
            out += '"';
            out += s;
            out += '"';
          }
          return out;
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          return std::to_string(v.priority) + " " + std::to_string(v.weight) +
                 " " + std::to_string(v.port) + " " + v.target.to_string();
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          return "OPT(" + std::to_string(v.options.size()) + " options)";
        } else if constexpr (std::is_same_v<T, CaaRdata>) {
          return std::to_string(v.flags) + " " + v.tag + " \"" + v.value +
                 "\"";
        } else {
          return "\\# " + std::to_string(v.data.size());
        }
      },
      rdata);
}

}  // namespace recwild::dns
