#include "dnscore/codec.hpp"

#include <algorithm>
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

void encode_record(WireWriter& w, const ResourceRecord& rr) {
  w.name(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rrclass));
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);  // placeholder
  const std::size_t rdata_start = w.size();
  encode_rdata(w, rr.rdata);
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

void decode_record(WireReader& r, std::vector<ResourceRecord>& out) {
  ResourceRecord& rr = out.emplace_back();
  rr.name = r.name();
  const auto type = static_cast<RRType>(r.u16());
  rr.rrclass = static_cast<RRClass>(r.u16());
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  rr.rdata = decode_rdata(r, type, rdlength);
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
      Rdata rd = decode_rdata(r, RRType::OPT, rdlength);
      edns.options = std::move(std::get<OptRdata>(rd));
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
