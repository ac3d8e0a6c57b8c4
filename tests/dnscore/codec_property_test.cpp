// Property wall around the message codec: seeded random messages covering
// every RR type in rdata.hpp, EDNS, TC, mixed-case names and deep
// compression must survive encode -> decode -> encode byte-identically.
//
// The first encode is the canonical wire form; the decoder may normalize
// label case behind compression pointers (a pointer reuses the first
// occurrence's spelling), so message-level equality is NOT the property —
// wire-level fixpoint is: whatever decode produced must re-encode to the
// exact same bytes. Random single-byte corruptions must either throw
// WireError or decode to something that still re-encodes deterministically
// (never crash, never read out of bounds — the ASan/UBSan CI jobs run this
// file too).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dnscore/codec.hpp"
#include "name_gen.hpp"

namespace recwild::dns {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes to_bytes(std::span<const std::uint8_t> s) {
  return Bytes{s.begin(), s.end()};
}

class Gen : public NameGen {
 public:
  using NameGen::NameGen;

  std::uint32_t u32() { return static_cast<std::uint32_t>(rng_()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(rng_()); }
  std::uint8_t u8() { return static_cast<std::uint8_t>(rng_()); }
  bool chance(double p) {
    return std::uniform_real_distribution<>{0.0, 1.0}(rng_) < p;
  }

  Rdata rdata(int kind) {
    switch (kind) {
      case 0:
        return ARdata{net::IpAddress{u32()}};
      case 1: {
        AaaaRdata v;
        for (auto& b : v.address) b = u8();
        return v;
      }
      case 2:
        return NsRdata{name()};
      case 3:
        return CnameRdata{name()};
      case 4:
        return PtrRdata{name()};
      case 5: {
        SoaRdata v;
        v.mname = name();
        v.rname = name();
        v.serial = u32();
        v.refresh = u32();
        v.retry = u32();
        v.expire = u32();
        v.minimum = u32();
        return v;
      }
      case 6:
        return MxRdata{u16(), name()};
      case 7: {
        TxtRdata v;
        const std::size_t n = below(3);  // 0..2 strings (0 = empty RDATA)
        for (std::size_t i = 0; i < n; ++i) {
          std::string s;
          const std::size_t len = below(40);
          for (std::size_t j = 0; j < len; ++j) {
            s.push_back(static_cast<char>(u8()));
          }
          v.strings.push_back(s);
        }
        return v;
      }
      case 8:
        return SrvRdata{u16(), u16(), u16(), name()};
      case 9: {
        CaaRdata v;
        v.flags = u8();
        v.tag = chance(0.5) ? "issue" : "iodef";
        const std::size_t len = below(30);
        for (std::size_t j = 0; j < len; ++j) {
          v.value.push_back(static_cast<char>(u8()));
        }
        return v;
      }
      default: {
        RawRdata v;
        v.type = static_cast<std::uint16_t>(200 + below(800));  // unknown
        const std::size_t len = below(20);
        for (std::size_t j = 0; j < len; ++j) v.data.push_back(u8());
        return v;
      }
    }
  }

  ResourceRecord record() {
    Name owner = name();
    const RRClass rrclass = chance(0.95) ? RRClass::IN : RRClass::CH;
    const Ttl ttl = u32();
    return ResourceRecord{std::move(owner), rrclass, ttl,
                          rdata(static_cast<int>(below(11)))};
  }

  Message message() {
    Message m;
    m.header.id = u16();
    m.header.qr = chance(0.5);
    m.header.opcode = static_cast<Opcode>(below(16));
    m.header.aa = chance(0.5);
    m.header.tc = chance(0.2);
    m.header.rd = chance(0.5);
    m.header.ra = chance(0.5);
    m.header.rcode = static_cast<Rcode>(below(16));
    const std::size_t qd = below(2) + (chance(0.9) ? 1 : 0);
    for (std::size_t i = 0; i < qd; ++i) {
      m.questions.push_back(
          Question{name(), static_cast<RRType>(1 + below(16)), RRClass::IN});
    }
    const std::size_t an = below(4);
    for (std::size_t i = 0; i < an; ++i) m.answers.push_back(record());
    const std::size_t ns = below(3);
    for (std::size_t i = 0; i < ns; ++i) m.authorities.push_back(record());
    const std::size_t ar = below(3);
    for (std::size_t i = 0; i < ar; ++i) m.additionals.push_back(record());
    if (chance(0.5)) {
      EdnsInfo edns;
      edns.udp_payload_size = static_cast<std::uint16_t>(512 + below(4096));
      edns.extended_rcode = u8();
      edns.version = chance(0.9) ? 0 : u8();
      edns.dnssec_ok = chance(0.3);
      if (chance(0.3)) {
        OptRdata::Option opt;
        opt.code = u16();
        const std::size_t len = below(16);
        for (std::size_t j = 0; j < len; ++j) opt.data.push_back(u8());
        edns.options.options.push_back(std::move(opt));
      }
      m.edns = edns;
    }
    return m;
  }
};

TEST(CodecProperty, EncodeDecodeEncodeIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Gen gen{seed};
    for (int i = 0; i < 64; ++i) {
      const Message m = gen.message();
      const Bytes first = to_bytes(encode_message(m));
      Message decoded;
      ASSERT_NO_THROW(decoded = decode_message(first))
          << "seed " << seed << " iteration " << i;
      const Bytes second = to_bytes(encode_message(decoded));
      ASSERT_EQ(first, second) << "seed " << seed << " iteration " << i;
    }
  }
}

TEST(CodecProperty, DecodedMessagePreservesStructure) {
  Gen gen{99};
  for (int i = 0; i < 64; ++i) {
    const Message m = gen.message();
    const Message d = decode_message(encode_message(m));
    EXPECT_EQ(d.header, m.header);
    ASSERT_EQ(d.questions.size(), m.questions.size());
    EXPECT_EQ(d.answers.size(), m.answers.size());
    EXPECT_EQ(d.authorities.size(), m.authorities.size());
    EXPECT_EQ(d.additionals.size(), m.additionals.size());
    EXPECT_EQ(d.edns.has_value(), m.edns.has_value());
    for (std::size_t q = 0; q < m.questions.size(); ++q) {
      EXPECT_TRUE(d.questions[q].qname == m.questions[q].qname);
      EXPECT_EQ(d.questions[q].qtype, m.questions[q].qtype);
    }
  }
}

/// Decodes `wire` into a fresh Message, or nullopt when it is malformed.
std::optional<Message> fresh_decode(const Bytes& wire) {
  try {
    return decode_message(wire);
  } catch (const WireError&) {
    return std::nullopt;
  }
}

Bytes golden(const char* name) {
  std::ifstream in{std::string{RECWILD_GOLDEN_DIR} + "/" + name,
                   std::ios::binary};
  EXPECT_TRUE(in.is_open()) << name;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// A node decodes every datagram into the same Message. Whatever that
// Message held before (more records, EDNS options, a decode that threw
// halfway), the result must equal a fresh decode, down to the bytes it
// re-encodes to (which also pins the case of every name).
TEST(CodecReuse, ReusedTargetMatchesFreshDecode) {
  std::vector<Bytes> stream;
  for (const char* name : {"ns_referral_compressed.bin", "notify.bin",
                           "truncated_udp_answer.bin", "pointer_loop.bin"}) {
    stream.push_back(golden(name));
  }
  Gen gen{2026};
  for (int i = 0; i < 300; ++i) {
    const Bytes wire = to_bytes(encode_message(gen.message()));
    stream.push_back(wire);
    if (i % 25 == 0) {
      // Cut inside the records: the decoder throws after it has already
      // appended some of them. A valid message follows next round.
      stream.push_back(Bytes(wire.begin(), wire.begin() + wire.size() / 2));
      stream.push_back(Bytes(wire.begin(), wire.end() - 1));
    }
  }
  Message big;
  for (int i = 0; i < 40; ++i) big.answers.push_back(gen.record());
  stream.insert(stream.begin(), to_bytes(encode_message(big)));

  Message reused;
  int threw = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::optional<Message> fresh = fresh_decode(stream[i]);
    if (!fresh) {
      EXPECT_THROW(decode_message(stream[i], reused), WireError) << i;
      ++threw;
      continue;
    }
    ASSERT_NO_THROW(decode_message(stream[i], reused)) << i;
    EXPECT_EQ(reused, *fresh) << "stream message " << i;
    EXPECT_EQ(to_bytes(encode_message(reused)),
              to_bytes(encode_message(*fresh)))
        << "stream message " << i;
  }
  EXPECT_GE(threw, 13);  // the truncated copies and the pointer loop
}

/// for_each_rrset's grouping done the obvious way: each set's records in
/// their order, at the set's first record, owned by that record's spelling
/// and carrying the set's minimum TTL.
std::vector<ResourceRecord> grouped(const std::vector<ResourceRecord>& in) {
  std::vector<ResourceRecord> out;
  std::vector<bool> done(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (done[i]) continue;
    const auto same = [&](const ResourceRecord& o) {
      return o.type() == in[i].type() && o.rrclass == in[i].rrclass &&
             o.name == in[i].name;
    };
    Ttl ttl = in[i].ttl;
    for (std::size_t j = i; j < in.size(); ++j) {
      if (same(in[j])) ttl = std::min(ttl, in[j].ttl);
    }
    for (std::size_t j = i; j < in.size(); ++j) {
      if (!same(in[j])) continue;
      done[j] = true;
      out.push_back(ResourceRecord{in[i].name, in[j].type(), in[i].rrclass,
                                   ttl, in[j].rdata().wire()});
    }
  }
  return out;
}

/// Every section through RRset blocks and back out as records.
Message through_rrsets(const Message& m) {
  Message out = m;
  for (auto* section : {&out.answers, &out.authorities, &out.additionals}) {
    std::vector<ResourceRecord> records;
    for_each_rrset(*section,
                   [&records](RRset&& set) { set.append_records(records); });
    *section = std::move(records);
  }
  return out;
}

void expect_same_records(const std::vector<ResourceRecord>& got,
                         const std::vector<ResourceRecord>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << where << " record " << i;
    // Equality folds case; the presentation form pins it.
    EXPECT_EQ(got[i].to_string(), want[i].to_string()) << where;
  }
}

// An RRset stores its RDATAs as uncompressed wire bytes; reading them back
// must give the records that went in, and the message must re-encode to
// the same bytes (compression is applied again on the way out).
TEST(CodecProperty, RRsetBlocksGiveBackTheRecords) {
  std::vector<std::pair<std::string, Bytes>> wires;
  for (const char* name : {"ns_referral_compressed.bin", "notify.bin",
                           "truncated_udp_answer.bin"}) {
    wires.emplace_back(name, golden(name));
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Gen gen{seed};
    for (int i = 0; i < 64; ++i) {
      wires.emplace_back("seed " + std::to_string(seed) + " message " +
                             std::to_string(i),
                         to_bytes(encode_message(gen.message())));
    }
  }
  for (const auto& [where, wire] : wires) {
    const Message m = decode_message(wire);
    const Message got = through_rrsets(m);
    expect_same_records(got.answers, grouped(m.answers), where);
    expect_same_records(got.authorities, grouped(m.authorities), where);
    expect_same_records(got.additionals, grouped(m.additionals), where);
    Message want = m;
    want.answers = grouped(m.answers);
    want.authorities = grouped(m.authorities);
    want.additionals = grouped(m.additionals);
    EXPECT_EQ(to_bytes(encode_message(got)), to_bytes(encode_message(want)))
        << where;
  }
  // The referral fixture's sets are already grouped: its bytes come back.
  const Bytes referral = golden("ns_referral_compressed.bin");
  EXPECT_EQ(to_bytes(encode_message(through_rrsets(decode_message(referral)))),
            referral);
}

// Compression pointers must work at every offset class: targets below 255,
// above 255, and suffixes first written beyond the 0x3fff pointer range
// (which the writer must then never point at).
TEST(CodecProperty, LargeMessagesCrossThePointerRangeBoundary) {
  Gen gen{7};
  Message m;
  m.header.id = 4242;
  m.header.qr = true;
  m.questions.push_back(
      Question{Name::parse("start.example.nl"), RRType::TXT, RRClass::IN});
  // ~20 KiB of TXT records interleaved with compressible owners, so some
  // owner suffixes are first seen before offset 0x3fff and some after.
  for (int i = 0; i < 90; ++i) {
    m.answers.push_back(ResourceRecord{
        Name::parse("host" + std::to_string(i % 7) + ".example.nl"),
        RRClass::IN, 60, TxtRdata{{std::string(200 + gen.below(55), 'x')}}});
    if (i % 9 == 0) {
      m.answers.push_back(ResourceRecord{
          Name::parse("late" + std::to_string(i) + ".suffix.family" +
                      std::to_string(i / 9) + ".example.nl"),
          RRClass::IN, 60, NsRdata{Name::parse("ns.example.nl")}});
    }
  }
  const Bytes first = to_bytes(encode_message(m));
  ASSERT_GT(first.size(), 0x3fffu);
  const Message decoded = decode_message(first);
  const Bytes second = to_bytes(encode_message(decoded));
  EXPECT_EQ(first, second);
}

TEST(CodecProperty, CorruptedWireNeverCrashesTheDecoder) {
  Gen gen{1234};
  int throws = 0;
  int survived = 0;
  for (int i = 0; i < 128; ++i) {
    const Message m = gen.message();
    Bytes wire = to_bytes(encode_message(m));
    if (wire.empty()) continue;
    // Flip one byte (or truncate) and decode. Any outcome is fine except a
    // crash or an out-of-bounds read.
    Bytes mutated = wire;
    if (gen.chance(0.2)) {
      mutated.resize(gen.below(mutated.size()));
    } else {
      mutated[gen.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << gen.below(8));
    }
    try {
      const Message d = decode_message(mutated);
      // Whatever decoded must still be encodable deterministically.
      const Bytes a = to_bytes(encode_message(d));
      const Bytes b = to_bytes(encode_message(d));
      EXPECT_EQ(a, b);
      ++survived;
    } catch (const WireError&) {
      ++throws;
    } catch (const std::invalid_argument&) {
      ++throws;  // Name limits rejected during decode
    }
  }
  // Sanity: the corpus exercised both outcomes.
  EXPECT_GT(throws, 0);
  EXPECT_GT(survived, 0);
}

}  // namespace
}  // namespace recwild::dns
