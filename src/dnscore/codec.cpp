#include "dnscore/codec.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "dnscore/wire.hpp"

namespace recwild::dns {

namespace {

constexpr std::uint16_t kFlagQr = 0x8000;
constexpr std::uint16_t kFlagAa = 0x0400;
constexpr std::uint16_t kFlagTc = 0x0200;
constexpr std::uint16_t kFlagRd = 0x0100;
constexpr std::uint16_t kFlagRa = 0x0080;

std::uint16_t pack_flags(const Header& h) {
  std::uint16_t flags = 0;
  if (h.qr) flags |= kFlagQr;
  flags |= static_cast<std::uint16_t>((static_cast<unsigned>(h.opcode) & 0xf)
                                      << 11);
  if (h.aa) flags |= kFlagAa;
  if (h.tc) flags |= kFlagTc;
  if (h.rd) flags |= kFlagRd;
  if (h.ra) flags |= kFlagRa;
  flags |= static_cast<std::uint16_t>(static_cast<unsigned>(h.rcode) & 0xf);
  return flags;
}

Header unpack_flags(std::uint16_t id, std::uint16_t flags) {
  Header h;
  h.id = id;
  h.qr = (flags & kFlagQr) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  h.aa = (flags & kFlagAa) != 0;
  h.tc = (flags & kFlagTc) != 0;
  h.rd = (flags & kFlagRd) != 0;
  h.ra = (flags & kFlagRa) != 0;
  h.rcode = static_cast<Rcode>(flags & 0xf);
  return h;
}

void check_count(std::size_t n, const char* what) {
  if (n > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError{std::string{"too many "} + what};
  }
}

/// Writes a record's RDATA: a copy of its bytes, except that the names of
/// NS, CNAME, PTR, SOA and MX go through the compression table (SRV's stay
/// uncompressed, RFC 2782).
void write_rdata(WireWriter& w, RdataView rdata) {
  const std::span<const std::uint8_t> wire = rdata.wire();
  const auto name = [&w](std::span<const std::uint8_t> n) {
    w.name(n.first(n.size() - 1));  // without its root octet
  };
  switch (rdata.type()) {
    case RRType::NS:
    case RRType::CNAME:
    case RRType::PTR:
      name(wire);
      return;
    case RRType::SOA: {
      std::size_t mname = 1;  // through its root octet
      while (wire[mname - 1] != 0) mname += 1 + std::size_t{wire[mname - 1]};
      name(wire.first(mname));
      name(wire.subspan(mname, wire.size() - 20 - mname));
      w.bytes(wire.last(20));
      return;
    }
    case RRType::MX:
      w.bytes(wire.first(2));
      name(wire.subspan(2));
      return;
    default:
      w.bytes(wire);
  }
}

void encode_record(WireWriter& w, const ResourceRecord& rr) {
  w.name(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rrclass));
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);  // placeholder
  const std::size_t rdata_start = w.size();
  write_rdata(w, rr.rdata());
  const std::size_t rdlength = w.size() - rdata_start;
  if (rdlength > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError{"RDATA too long"};
  }
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(rdlength));
}

void encode_opt(WireWriter& w, const EdnsInfo& edns) {
  w.name(Name{});  // OPT owner is the root
  w.u16(static_cast<std::uint16_t>(RRType::OPT));
  w.u16(edns.udp_payload_size);  // "class" carries the UDP size
  // "TTL" carries extended-rcode, version, DO bit.
  std::uint32_t ttl = (std::uint32_t{edns.extended_rcode} << 24) |
                      (std::uint32_t{edns.version} << 16);
  if (edns.dnssec_ok) ttl |= 0x8000;
  w.u32(ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);
  const std::size_t rdata_start = w.size();
  encode_rdata(w, Rdata{edns.options});
  w.patch_u16(rdlength_at,
              static_cast<std::uint16_t>(w.size() - rdata_start));
}

/// Room for RDATA with its names uncompressed: at most two names and the
/// 20 octets of an SOA's counters.
using Expanded = std::array<std::uint8_t, 2 * kMaxNameWireLength + 20>;

/// Reads `rdlength` octets of `type` RDATA from `r`, checks them as the
/// wire format requires (WireError otherwise) and returns them with every
/// name uncompressed: in place when they hold no name, else in `x`.
/// Unknown types are taken as they are.
std::span<const std::uint8_t> read_rdata(WireReader& r, RRType type,
                                         std::size_t rdlength, Expanded& x) {
  const std::size_t start = r.offset();
  const std::size_t end = start + rdlength;
  std::size_t size = 0;
  const auto put = [&](std::span<const std::uint8_t> b) {
    std::memcpy(x.data() + size, b.data(), b.size());
    size += b.size();
  };
  const auto put_name = [&] {
    put(r.name().wire());
    x[size++] = 0;  // root
  };
  const auto check_end = [&] {
    if (r.offset() != end) {
      throw WireError{"RDATA length mismatch in " +
                      std::string{to_string(type)}};
    }
  };
  switch (type) {
    case RRType::A:
      if (rdlength != 4) throw WireError{"A RDATA must be 4 octets"};
      return r.view(4);
    case RRType::AAAA:
      if (rdlength != 16) throw WireError{"AAAA RDATA must be 16 octets"};
      return r.view(16);
    case RRType::NS:
    case RRType::CNAME:
    case RRType::PTR:
      put_name();
      check_end();
      return {x.data(), size};
    case RRType::SOA:
      put_name();
      put_name();
      put(r.view(20));
      check_end();
      return {x.data(), size};
    case RRType::MX:
    case RRType::SRV:
      put(r.view(type == RRType::MX ? 2 : 6));
      put_name();
      check_end();
      return {x.data(), size};
    case RRType::TXT: {
      const auto wire = r.view(rdlength);
      for (std::size_t p = 0; p < wire.size(); p += 1 + std::size_t{wire[p]}) {
        if (p + 1 + wire[p] > wire.size()) {
          throw WireError{"RDATA length mismatch in TXT"};
        }
      }
      return wire;
    }
    case RRType::OPT:
      while (r.offset() < end) {
        r.u16();  // option code
        r.skip(r.u16());
      }
      check_end();
      break;
    case RRType::CAA:
      r.u8();  // flags
      r.skip(r.u8());  // tag
      if (r.offset() > end) throw WireError{"CAA tag overruns RDATA"};
      break;
    default:
      break;
  }
  r.seek(start);
  return r.view(rdlength);
}

void decode_record(WireReader& r, std::vector<ResourceRecord>& out) {
  ResourceRecord& rr = out.emplace_back();
  rr.name = r.name();
  const auto type = static_cast<RRType>(r.u16());
  rr.rrclass = static_cast<RRClass>(r.u16());
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  Expanded x;
  rr.set_rdata(type, read_rdata(r, type, rdlength, x));
}

}  // namespace

net::WireBuffer encode_message(const Message& m) {
  WireWriter w;
  check_count(m.questions.size(), "questions");
  check_count(m.answers.size(), "answers");
  check_count(m.authorities.size(), "authority records");
  const std::size_t arcount =
      m.additionals.size() + (m.edns.has_value() ? 1 : 0);
  check_count(arcount, "additional records");

  w.u16(m.header.id);
  w.u16(pack_flags(m.header));
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authorities.size()));
  w.u16(static_cast<std::uint16_t>(arcount));

  for (const auto& q : m.questions) {
    w.name(q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : m.answers) encode_record(w, rr);
  for (const auto& rr : m.authorities) encode_record(w, rr);
  for (const auto& rr : m.additionals) encode_record(w, rr);
  if (m.edns) encode_opt(w, *m.edns);
  return std::move(w).take();
}

void decode_message(std::span<const std::uint8_t> wire, Message& m) {
  WireReader r{wire};
  m.questions.clear();
  m.answers.clear();
  m.authorities.clear();
  m.additionals.clear();
  m.edns.reset();
  const std::uint16_t id = r.u16();
  const std::uint16_t flags = r.u16();
  m.header = unpack_flags(id, flags);
  const std::uint16_t qdcount = r.u16();
  const std::uint16_t ancount = r.u16();
  const std::uint16_t nscount = r.u16();
  const std::uint16_t arcount = r.u16();

  // Section counts are hostile input: a 12-octet datagram can advertise
  // 65535 records per section. reserve() must be bounded by what the
  // remaining bytes could physically hold (a question is >= 5 octets, a
  // record >= 11), or a runt packet turns into a multi-megabyte
  // allocation before the first parse error fires.
  const auto bounded = [&r](std::uint16_t count, std::size_t min_octets) {
    return std::min<std::size_t>(count, r.remaining() / min_octets);
  };

  m.questions.reserve(bounded(qdcount, 5));
  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question& q = m.questions.emplace_back();
    q.qname = r.name();
    q.qtype = static_cast<RRType>(r.u16());
    q.qclass = static_cast<RRClass>(r.u16());
  }
  m.answers.reserve(bounded(ancount, 11));
  for (std::uint16_t i = 0; i < ancount; ++i) decode_record(r, m.answers);
  m.authorities.reserve(bounded(nscount, 11));
  for (std::uint16_t i = 0; i < nscount; ++i) {
    decode_record(r, m.authorities);
  }
  for (std::uint16_t i = 0; i < arcount; ++i) {
    // OPT needs its header fields, so decode it inline rather than through
    // decode_record (which discards the class/TTL semantics).
    const std::size_t mark = r.offset();
    const Name owner = r.name();
    const auto type = static_cast<RRType>(r.u16());
    if (type == RRType::OPT) {
      if (m.edns) throw WireError{"duplicate OPT record"};
      if (!owner.is_root()) throw WireError{"OPT owner must be root"};
      EdnsInfo edns;
      edns.udp_payload_size = r.u16();
      const std::uint32_t ttl = r.u32();
      edns.extended_rcode = static_cast<std::uint8_t>(ttl >> 24);
      edns.version = static_cast<std::uint8_t>((ttl >> 16) & 0xff);
      edns.dnssec_ok = (ttl & 0x8000) != 0;
      const std::uint16_t rdlength = r.u16();
      const std::size_t end = r.offset() + rdlength;
      while (r.offset() < end) {
        OptRdata::Option& opt = edns.options.options.emplace_back();
        opt.code = r.u16();
        const std::uint16_t len = r.u16();
        opt.data = r.bytes(len);
      }
      if (r.offset() != end) throw WireError{"RDATA length mismatch in OPT"};
      m.edns = std::move(edns);
    } else {
      r.seek(mark);
      decode_record(r, m.additionals);
    }
  }
}

Message decode_message(std::span<const std::uint8_t> wire) {
  Message m;
  decode_message(wire, m);
  return m;
}

}  // namespace recwild::dns
