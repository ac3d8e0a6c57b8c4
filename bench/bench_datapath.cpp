// Datapath micro-benchmark: codec allocations and latency, old vs new.
//
// Measures the wire encoder three ways over a corpus of campaign-shaped
// messages (queries with EDNS, referrals with glue, authoritative answers,
// CNAME chains, negative responses, TXT answers) and one answer each of
// MX, PTR and SRV:
//
//   legacy    — a frozen copy of the pre-fastpath encoder (fresh vector per
//               message, unordered_map<string> compression table), kept here
//               as the baseline and as a differential oracle: its output is
//               asserted byte-identical to the new encoder on every corpus
//               message before anything is timed. Only its per-type RDATA
//               writer changed since, to read records' wire bytes.
//   unpooled  — the new single-pass encoder with WireBufferPool disabled
//               (isolates the encoder rewrite from the pooling).
//   pooled    — the production configuration.
//
// and the decoder two ways over the same messages' wire bytes:
//
//   fresh     — decode_message(wire): a new Message per datagram.
//   reused    — decode_message(wire, target) into one Message, the way
//               every node decodes into its own receive message.
//
// Allocation counts come from global operator new/delete overrides that are
// linked into THIS binary only — the library itself carries no counting.
//
//   ./build/bench/bench_datapath --iters 20000 --json BENCH_datapath.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "net/wire_buffer.hpp"

// ---------------------------------------------------------------------------
// Allocation hooks (this binary only).

namespace {
std::uint64_t g_allocs = 0;  // single-threaded bench; no atomics needed
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace recwild::dns {
namespace {

// ---------------------------------------------------------------------------
// Frozen legacy encoder (pre-fastpath). Do not "fix" or modernize: its value
// is being exactly the old code. Fresh std::vector per message, suffix keys
// as lowered dotted strings in an unordered_map, first-occurrence wins.

class LegacyWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void name(const Name& n, bool compress = true) {
    for (std::size_t i = 0; i < n.label_count(); ++i) {
      if (compress) {
        const std::string key = suffix_key(n, i);
        const auto it = suffix_offsets_.find(key);
        if (it != suffix_offsets_.end()) {
          u16(static_cast<std::uint16_t>(0xc000 | it->second));
          return;
        }
        if (buf_.size() <= 0x3fff) {
          suffix_offsets_.emplace(key,
                                  static_cast<std::uint16_t>(buf_.size()));
        }
      }
      const std::string_view label = n.label(i);
      u8(static_cast<std::uint8_t>(label.size()));
      bytes({reinterpret_cast<const std::uint8_t*>(label.data()),
             label.size()});
    }
    u8(0);
  }
  void char_string(std::string_view s) {
    u8(static_cast<std::uint8_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  static std::string suffix_key(const Name& n, std::size_t from) {
    std::string key;
    for (std::size_t i = from; i < n.label_count(); ++i) {
      for (const char c : n.label(i)) key.push_back(Name::to_lower(c));
      key.push_back('.');
    }
    return key;
  }

  std::vector<std::uint8_t> buf_;
  std::unordered_map<std::string, std::uint16_t> suffix_offsets_;
};

// The per-type RDATA writer reads the record's uncompressed bytes and
// parses each name out of them for the string-keyed table above.
void legacy_encode_rdata(LegacyWriter& w, RdataView rdata) {
  WireReader r{rdata.wire()};
  switch (rdata.type()) {
    case RRType::NS:
    case RRType::CNAME:
    case RRType::PTR:
      w.name(r.name());
      break;
    case RRType::SOA:
      w.name(r.name());
      w.name(r.name());
      w.bytes(r.view(20));
      break;
    case RRType::MX:
      w.bytes(r.view(2));
      w.name(r.name());
      break;
    case RRType::SRV:
      w.bytes(r.view(6));
      w.name(r.name(), /*compress=*/false);
      break;
    default:
      w.bytes(rdata.wire());
  }
}

std::uint16_t legacy_pack_flags(const Header& h) {
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((static_cast<unsigned>(h.opcode) & 0xf)
                                      << 11);
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(static_cast<unsigned>(h.rcode) & 0xf);
  return flags;
}

void legacy_encode_record(LegacyWriter& w, const ResourceRecord& rr) {
  w.name(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rrclass));
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);
  const std::size_t rdata_start = w.size();
  legacy_encode_rdata(w, rr.rdata());
  w.patch_u16(rdlength_at,
              static_cast<std::uint16_t>(w.size() - rdata_start));
}

std::vector<std::uint8_t> legacy_encode_message(const Message& m) {
  LegacyWriter w;
  const std::size_t arcount =
      m.additionals.size() + (m.edns.has_value() ? 1 : 0);
  w.u16(m.header.id);
  w.u16(legacy_pack_flags(m.header));
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authorities.size()));
  w.u16(static_cast<std::uint16_t>(arcount));
  for (const auto& q : m.questions) {
    w.name(q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : m.answers) legacy_encode_record(w, rr);
  for (const auto& rr : m.authorities) legacy_encode_record(w, rr);
  for (const auto& rr : m.additionals) legacy_encode_record(w, rr);
  if (m.edns) {
    w.name(Name{});
    w.u16(static_cast<std::uint16_t>(RRType::OPT));
    w.u16(m.edns->udp_payload_size);
    std::uint32_t ttl = (std::uint32_t{m.edns->extended_rcode} << 24) |
                        (std::uint32_t{m.edns->version} << 16);
    if (m.edns->dnssec_ok) ttl |= 0x8000;
    w.u32(ttl);
    const std::size_t rdlength_at = w.size();
    w.u16(0);
    const std::size_t rdata_start = w.size();
    for (const auto& opt : m.edns->options.options) {
      w.u16(opt.code);
      w.u16(static_cast<std::uint16_t>(opt.data.size()));
      w.bytes(opt.data);
    }
    w.patch_u16(rdlength_at,
                static_cast<std::uint16_t>(w.size() - rdata_start));
  }
  return std::move(w).take();
}

// ---------------------------------------------------------------------------
// Corpus: the message shapes campaign traffic is made of.

std::vector<Message> build_corpus() {
  std::vector<Message> corpus;

  // Iterative query with EDNS, unique-label style qname (paper §3.1).
  Message query = Message::make_query(0x4242,
                                      Name::parse("p91.vp17.recwild-test.nl"),
                                      RRType::A);
  query.edns = EdnsInfo{};
  corpus.push_back(query);

  const Name zone = Name::parse("recwild-test.nl");
  const Name ns1 = Name::parse("ns1.recwild-test.nl");
  const Name ns2 = Name::parse("ns2.recwild-test.nl");

  // Referral: empty answer, NS authority, glue additionals.
  Message referral = Message::make_response(query);
  referral.authorities.push_back(
      ResourceRecord{zone, RRClass::IN, 172800, NsRdata{ns1}});
  referral.authorities.push_back(
      ResourceRecord{zone, RRClass::IN, 172800, NsRdata{ns2}});
  referral.additionals.push_back(ResourceRecord{
      ns1, RRClass::IN, 172800, ARdata{net::IpAddress::from_octets(10, 0, 0, 1)}});
  referral.additionals.push_back(ResourceRecord{
      ns2, RRClass::IN, 172800, ARdata{net::IpAddress::from_octets(10, 0, 0, 2)}});
  referral.edns = EdnsInfo{};
  corpus.push_back(referral);

  // Authoritative answer with NS + glue.
  Message answer = Message::make_response(query);
  answer.header.aa = true;
  answer.answers.push_back(ResourceRecord{
      query.question().qname, RRClass::IN, 5,
      ARdata{net::IpAddress::from_octets(10, 9, 8, 7)}});
  answer.authorities.push_back(
      ResourceRecord{zone, RRClass::IN, 172800, NsRdata{ns1}});
  answer.additionals.push_back(ResourceRecord{
      ns1, RRClass::IN, 172800, ARdata{net::IpAddress::from_octets(10, 0, 0, 1)}});
  answer.edns = EdnsInfo{};
  corpus.push_back(answer);

  // CNAME chain.
  Message chain = Message::make_response(query);
  chain.header.aa = true;
  chain.answers.push_back(
      ResourceRecord{query.question().qname, RRClass::IN, 300,
                     CnameRdata{Name::parse("alias.recwild-test.nl")}});
  chain.answers.push_back(ResourceRecord{
      Name::parse("alias.recwild-test.nl"), RRClass::IN, 300,
      ARdata{net::IpAddress::from_octets(10, 1, 2, 3)}});
  corpus.push_back(chain);

  // NXDOMAIN with SOA (negative caching, RFC 2308).
  Message nxdomain = Message::make_response(query);
  nxdomain.header.aa = true;
  nxdomain.header.rcode = Rcode::NxDomain;
  SoaRdata soa;
  soa.mname = ns1;
  soa.rname = Name::parse("hostmaster.recwild-test.nl");
  soa.serial = 2017031501;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = 300;
  nxdomain.authorities.push_back(
      ResourceRecord{zone, RRClass::IN, 300, Rdata{soa}});
  corpus.push_back(nxdomain);

  // TXT answer (CH-class hostname.bind style payloads ride this shape too).
  Message txt = Message::make_response(query);
  txt.header.aa = true;
  txt.answers.push_back(ResourceRecord{query.question().qname, RRClass::IN,
                                       60, TxtRdata{{"recwild", "datapath"}}});
  corpus.push_back(txt);

  // Answers with the remaining compressed RDATA names (MX, PTR) and an
  // SRV target, which is never compressed (RFC 2782).
  Message mx = Message::make_response(query);
  mx.header.aa = true;
  mx.answers.push_back(
      ResourceRecord{zone, RRClass::IN, 300,
                     MxRdata{10, Name::parse("mail.recwild-test.nl")}});
  mx.additionals.push_back(ResourceRecord{
      Name::parse("mail.recwild-test.nl"), RRClass::IN, 300,
      ARdata{net::IpAddress::from_octets(10, 0, 0, 25)}});
  corpus.push_back(mx);

  Message ptr = Message::make_response(query);
  ptr.header.aa = true;
  ptr.answers.push_back(ResourceRecord{
      query.question().qname, RRClass::IN, 300,
      PtrRdata{Name::parse("host.recwild-test.nl")}});
  corpus.push_back(ptr);

  Message srv = Message::make_response(query);
  srv.header.aa = true;
  srv.answers.push_back(ResourceRecord{
      Name::parse("_dns._udp.recwild-test.nl"), RRClass::IN, 300,
      SrvRdata{0, 5, 53, ns1}});
  corpus.push_back(srv);

  return corpus;
}

struct ModeResult {
  double allocs_per_op = 0.0;
  double ns_per_op = 0.0;
};

template <typename Item, typename Fn>
ModeResult measure(const std::vector<Item>& corpus, std::size_t iters,
                   Fn&& run_one) {
  // Warm-up pass (pool fill, cache warm, reused targets grown); not counted.
  for (const Item& item : corpus) run_one(item);
  g_allocs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    run_one(corpus[i % corpus.size()]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  ModeResult r;
  r.allocs_per_op = double(g_allocs) / double(iters);
  r.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      double(iters);
  return r;
}

}  // namespace
}  // namespace recwild::dns

int main(int argc, char** argv) {
  using namespace recwild;
  using namespace recwild::dns;

  std::size_t iters = 20'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const std::vector<Message> corpus = build_corpus();

  // Differential oracle: the frozen legacy encoder and the new single-pass
  // encoder must agree byte-for-byte on every corpus message, and the new
  // bytes must decode back to a message that re-encodes identically.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<std::uint8_t> legacy = legacy_encode_message(corpus[i]);
    const net::WireBuffer fast = encode_message(corpus[i]);
    if (!(fast == legacy)) {
      std::fprintf(stderr,
                   "DIFFERENTIAL MISMATCH on corpus message %zu "
                   "(legacy %zu bytes, fastpath %zu bytes)\n",
                   i, legacy.size(), fast.size());
      return 1;
    }
    const Message round = decode_message(fast);
    const net::WireBuffer again = encode_message(round);
    if (!(again == legacy)) {
      std::fprintf(stderr, "ROUND-TRIP MISMATCH on corpus message %zu\n", i);
      return 1;
    }
  }
  std::printf("differential: %zu/%zu corpus messages byte-identical\n",
              corpus.size(), corpus.size());

  // Legacy: fresh vector + string-keyed compression map per message.
  const auto legacy = measure(corpus, iters, [](const Message& m) {
    const std::vector<std::uint8_t> wire = legacy_encode_message(m);
    (void)wire;
  });

  // New encoder, pool off: isolates the single-pass rewrite.
  net::WireBufferPool::set_enabled(false);
  net::WireBufferPool::clear();
  const auto unpooled = measure(corpus, iters, [](const Message& m) {
    const net::WireBuffer wire = encode_message(m);
    (void)wire;
  });

  // Production configuration: pooled buffers, single-pass encoder.
  net::WireBufferPool::set_enabled(true);
  net::WireBufferPool::clear();
  const auto pooled = measure(corpus, iters, [](const Message& m) {
    const net::WireBuffer wire = encode_message(m);
    (void)wire;
  });

  // Decoding the same messages' bytes into a new Message each time, then
  // into one reused Message (the nodes' receive path).
  std::vector<net::WireBuffer> wires;
  for (const Message& m : corpus) wires.push_back(encode_message(m));
  const auto decode_fresh =
      measure(wires, iters, [](const net::WireBuffer& wire) {
        const Message m = decode_message(wire);
        (void)m;
      });
  Message target;
  const auto decode_reused =
      measure(wires, iters, [&target](const net::WireBuffer& wire) {
        decode_message(wire, target);
      });
  const bool reused_decode_alloc_free = decode_reused.allocs_per_op == 0.0;

  // The acceptance gate is allocs/encode reduced >= 5x. The single-pass
  // encoder alone (pool disabled) clears it; a pooled steady-state encode
  // is typically allocation-free, so its ratio is reported only when the
  // denominator is nonzero.
  const double reduction_encoder =
      legacy.allocs_per_op / std::max(unpooled.allocs_per_op, 1e-9);
  const bool pooled_alloc_free = pooled.allocs_per_op == 0.0;
  const double reduction_pooled =
      pooled_alloc_free ? 0.0 : legacy.allocs_per_op / pooled.allocs_per_op;

  std::printf("%-28s %14s %12s\n", "mode", "allocs/encode", "ns/encode");
  std::printf("%-28s %14.3f %12.1f\n", "legacy (map + fresh vector)",
              legacy.allocs_per_op, legacy.ns_per_op);
  std::printf("%-28s %14.3f %12.1f\n", "fastpath, pool disabled",
              unpooled.allocs_per_op, unpooled.ns_per_op);
  std::printf("%-28s %14.3f %12.1f\n", "fastpath, pooled",
              pooled.allocs_per_op, pooled.ns_per_op);
  std::printf("%-28s %14.3f %12.1f\n", "decode, fresh target",
              decode_fresh.allocs_per_op, decode_fresh.ns_per_op);
  std::printf("%-28s %14.3f %12.1f\n", "decode, reused target",
              decode_reused.allocs_per_op, decode_reused.ns_per_op);
  std::printf("alloc reduction, encoder alone: %.1fx\n", reduction_encoder);
  if (pooled_alloc_free) {
    std::printf("alloc reduction, pooled: allocation-free steady state\n");
  } else {
    std::printf("alloc reduction, pooled: %.1fx\n", reduction_pooled);
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"datapath\",\n"
                 "  \"corpus_messages\": %zu,\n"
                 "  \"iterations\": %zu,\n"
                 "  \"differential\": \"byte-identical\",\n"
                 "  \"modes\": {\n"
                 "    \"legacy_map_encoder\": "
                 "{\"allocs_per_encode\": %.3f, \"ns_per_encode\": %.1f},\n"
                 "    \"fastpath_pool_disabled\": "
                 "{\"allocs_per_encode\": %.3f, \"ns_per_encode\": %.1f},\n"
                 "    \"fastpath_pooled\": "
                 "{\"allocs_per_encode\": %.3f, \"ns_per_encode\": %.1f}\n"
                 "  },\n"
                 "  \"decode\": {\n"
                 "    \"fresh_target\": "
                 "{\"allocs_per_decode\": %.3f, \"ns_per_decode\": %.1f},\n"
                 "    \"reused_target\": "
                 "{\"allocs_per_decode\": %.3f, \"ns_per_decode\": %.1f}\n"
                 "  },\n"
                 "  \"alloc_reduction_encoder_alone\": %.1f,\n"
                 "  \"pooled_allocation_free\": %s,\n"
                 "  \"reused_decode_allocation_free\": %s\n"
                 "}\n",
                 corpus.size(), iters, legacy.allocs_per_op, legacy.ns_per_op,
                 unpooled.allocs_per_op, unpooled.ns_per_op,
                 pooled.allocs_per_op, pooled.ns_per_op,
                 decode_fresh.allocs_per_op, decode_fresh.ns_per_op,
                 decode_reused.allocs_per_op, decode_reused.ns_per_op,
                 reduction_encoder, pooled_alloc_free ? "true" : "false",
                 reused_decode_alloc_free ? "true" : "false");
    std::fclose(f);
    std::printf("json -> %s\n", json_path.c_str());
  }
  return 0;
}
