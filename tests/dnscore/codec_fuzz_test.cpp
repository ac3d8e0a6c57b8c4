// Hostile-input hardening for decode_message: a datagram from the network
// is attacker-controlled from the first byte, and the decoder's only
// acceptable failure mode is WireError. These tests drive it with every
// truncation and thousands of seeded mutations of the golden fixtures —
// the closest thing to a fuzzer that still runs deterministically in CI.
#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "dnscore/wire.hpp"

namespace recwild::dns {
namespace {

/// VerdictsAndReencodingsArePinned's expected digest, and how many of its
/// cases decode.
constexpr std::uint64_t kPinnedDigest = 0xfd75d7acdfb48daaull;
constexpr std::size_t kPinnedAccepted = 3155;

const char* const kFixtures[] = {
    "ns_referral_compressed.bin",
    "truncated_udp_answer.bin",
    "notify.bin",
    "pointer_loop.bin",
};

std::vector<std::uint8_t> load_fixture(const std::string& name) {
  const std::string path = std::string{RECWILD_GOLDEN_DIR} + "/" + name;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "missing golden fixture: " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// decode_message must either produce a Message or throw WireError; any
/// other exception (or a crash/sanitizer report) fails the test.
void must_decode_or_reject(std::span<const std::uint8_t> wire) {
  try {
    const Message m = decode_message(wire);
    (void)m;
  } catch (const WireError&) {
    // rejected cleanly
  }
}

TEST(CodecFuzz, EveryPrefixOfEveryFixtureDecodesOrRejects) {
  for (const char* name : kFixtures) {
    const auto wire = load_fixture(name);
    for (std::size_t len = 0; len <= wire.size(); ++len) {
      must_decode_or_reject(std::span{wire.data(), len});
    }
  }
}

TEST(CodecFuzz, SeededMutationsOfFixturesDecodeOrReject) {
  std::mt19937 rng{0xC0DEC};
  for (const char* name : kFixtures) {
    const auto original = load_fixture(name);
    if (original.empty()) continue;
    std::uniform_int_distribution<std::size_t> pos{0, original.size() - 1};
    std::uniform_int_distribution<int> byte{0, 255};
    std::uniform_int_distribution<int> muts{1, 8};
    for (int iter = 0; iter < 2000; ++iter) {
      std::vector<std::uint8_t> wire = original;
      const int n = muts(rng);
      for (int m = 0; m < n; ++m) {
        wire[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
      }
      must_decode_or_reject(wire);
    }
  }
}

TEST(CodecFuzz, MutatedAndTruncatedTogether) {
  // Both corruptions at once: flip bytes, then cut the tail — the shape a
  // fragmented/garbled datagram actually arrives in.
  std::mt19937 rng{0xF00D};
  for (const char* name : kFixtures) {
    const auto original = load_fixture(name);
    if (original.size() < 2) continue;
    std::uniform_int_distribution<std::size_t> pos{0, original.size() - 1};
    std::uniform_int_distribution<int> byte{0, 255};
    for (int iter = 0; iter < 1000; ++iter) {
      std::vector<std::uint8_t> wire = original;
      wire[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
      wire[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
      wire.resize(pos(rng));
      must_decode_or_reject(wire);
    }
  }
}

TEST(CodecFuzz, PureGarbageDecodesOrRejects) {
  std::mt19937 rng{0xBAD};
  std::uniform_int_distribution<std::size_t> len{0, 600};
  std::uniform_int_distribution<int> byte{0, 255};
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::uint8_t> wire(len(rng));
    for (auto& b : wire) b = static_cast<std::uint8_t>(byte(rng));
    must_decode_or_reject(wire);
  }
}

/// FNV-1a over a run of decode cases: each case's verdict (accepted or
/// rejected) and, for an accepted message, the length and bytes of its
/// re-encoding.
class VerdictDigest {
 public:
  void add(std::span<const std::uint8_t> wire) {
    Message m;
    try {
      decode_message(wire, m);
    } catch (const WireError&) {
      mix(0);  // rejected
      return;
    }
    mix(1);  // accepted
    ++accepted_;
    try {
      const net::WireBuffer out = encode_message(m);
      mix(static_cast<std::uint8_t>(out.size() >> 8));
      mix(static_cast<std::uint8_t>(out.size()));
      for (const std::uint8_t b : out.span()) mix(b);
    } catch (const WireError&) {
      mix(2);  // accepted, but does not re-encode
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::size_t accepted() const noexcept { return accepted_; }

 private:
  void mix(std::uint8_t b) noexcept { h_ = (h_ ^ b) * 0x100000001b3ull; }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
  std::size_t accepted_ = 0;
};

/// A response holding one record of every type the codec knows, one of an
/// unknown type and an OPT record, so that mutations reach each RDATA
/// decoder.
std::vector<std::uint8_t> every_type_message() {
  Message m = Message::make_response(
      Message::make_query(0x5eed, Name::parse("www.example.nl"), RRType::A));
  const Name owner = Name::parse("www.example.nl");
  const Name zone = Name::parse("example.nl");
  m.answers.push_back(ResourceRecord{
      owner, RRClass::IN, 300, ARdata{net::IpAddress::from_octets(192, 0, 2, 1)}});
  AaaaRdata v6;
  v6.address[15] = 1;
  m.answers.push_back(ResourceRecord{owner, RRClass::IN, 300, v6});
  m.answers.push_back(ResourceRecord{
      owner, RRClass::IN, 300, CnameRdata{Name::parse("web.example.nl")}});
  m.answers.push_back(ResourceRecord{
      owner, RRClass::IN, 300, PtrRdata{Name::parse("host.example.nl")}});
  m.answers.push_back(ResourceRecord{
      zone, RRClass::IN, 300, MxRdata{10, Name::parse("mail.example.nl")}});
  m.answers.push_back(ResourceRecord{owner, RRClass::IN, 300,
                                     TxtRdata{{"FRA", "", "probe"}}});
  m.answers.push_back(ResourceRecord{
      owner, RRClass::IN, 300,
      SrvRdata{1, 2, 5353, Name::parse("svc.example.nl")}});
  m.answers.push_back(ResourceRecord{
      zone, RRClass::IN, 300, CaaRdata{128, "issue", "ca.example"}});
  m.answers.push_back(
      ResourceRecord{owner, RRClass::IN, 300, RawRdata{4242, {9, 8, 7}}});
  m.authorities.push_back(ResourceRecord{
      zone, RRClass::IN, 300,
      SoaRdata{Name::parse("ns1.example.nl"),
               Name::parse("hostmaster.example.nl"), 2017041201, 14400,
               3600, 1209600, 300}});
  m.authorities.push_back(ResourceRecord{
      zone, RRClass::IN, 300, NsRdata{Name::parse("ns1.example.nl")}});
  m.additionals.push_back(
      ResourceRecord{Name::parse("ns1.example.nl"), RRClass::IN, 300,
                     ARdata{net::IpAddress::from_octets(10, 0, 0, 1)}});
  EdnsInfo edns;
  edns.options.options.push_back({10, {1, 2, 3, 4}});
  m.edns = edns;
  const net::WireBuffer wire = encode_message(m);
  return {wire.span().begin(), wire.span().end()};
}

TEST(CodecFuzz, VerdictsAndReencodingsArePinned) {
  // Every truncation and 2000 seeded mutations of each golden fixture and
  // of a message holding every type. The expected digest was computed on
  // the decoder that built typed RDATA; a decoder that accepts, rejects or
  // re-encodes any of these cases differently changes it.
  std::vector<std::vector<std::uint8_t>> inputs;
  for (const char* name : kFixtures) inputs.push_back(load_fixture(name));
  inputs.push_back(every_type_message());
  VerdictDigest digest;
  std::mt19937 rng{0xD16E57};
  for (const auto& original : inputs) {
    ASSERT_FALSE(original.empty());
    for (std::size_t len = 0; len <= original.size(); ++len) {
      digest.add(std::span{original.data(), len});
    }
    std::uniform_int_distribution<std::size_t> pos{0, original.size() - 1};
    std::uniform_int_distribution<int> byte{0, 255};
    std::uniform_int_distribution<int> muts{1, 4};
    for (int iter = 0; iter < 2000; ++iter) {
      std::vector<std::uint8_t> wire = original;
      const int n = muts(rng);
      for (int m = 0; m < n; ++m) {
        wire[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
      }
      digest.add(wire);
    }
  }
  EXPECT_EQ(digest.accepted(), kPinnedAccepted);
  EXPECT_EQ(digest.value(), kPinnedDigest) << std::hex << digest.value();
}

TEST(CodecFuzz, RuntAdvertisingMaxCountsRejectsWithoutPreallocating) {
  // 12 octets claiming 65535 records in every section. The bounded
  // reserve() in decode_message must keep this from allocating megabytes
  // before the parse error fires; the vectors never grow past what the
  // remaining zero bytes could hold.
  const std::vector<std::uint8_t> runt{0x00, 0x01, 0x00, 0x00,
                                       0xff, 0xff, 0xff, 0xff,
                                       0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW((void)decode_message(runt), WireError);
}

}  // namespace
}  // namespace recwild::dns
