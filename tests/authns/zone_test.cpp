#include "authns/zone.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "authns/query_engine.hpp"
#include "dnscore/codec.hpp"

namespace recwild::authns {
namespace {

constexpr const char* kZoneText = R"(
$TTL 3600
@       IN SOA ns1 hostmaster 2017041201 14400 3600 1209600 300
@       IN NS  ns1
@       IN NS  ns2
ns1     IN A   192.0.2.1
ns2     IN A   192.0.2.2
www     IN A   192.0.2.80
www     IN A   192.0.2.81
alias   IN CNAME www
*.wild  IN TXT "caught"
child   IN NS  ns1.child
ns1.child IN A 192.0.2.100
a.b.c   IN A   192.0.2.9
)";

Zone make_zone() {
  return Zone::from_text(dns::Name::parse("example.nl"), kZoneText);
}

TEST(Zone, LoadsFromMasterText) {
  const Zone z = make_zone();
  EXPECT_EQ(z.origin(), dns::Name::parse("example.nl"));
  EXPECT_GT(z.rrset_count(), 5u);
  EXPECT_EQ(z.record_count(), 12u);
}

TEST(Zone, FindExactRRset) {
  const Zone z = make_zone();
  const auto* www = z.find(dns::Name::parse("www.example.nl"), dns::RRType::A);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(www->size(), 2u);
  EXPECT_EQ(www->ttl, 3600u);
}

TEST(Zone, FindMissesWrongType) {
  const Zone z = make_zone();
  EXPECT_EQ(z.find(dns::Name::parse("www.example.nl"), dns::RRType::TXT),
            nullptr);
  EXPECT_EQ(z.find(dns::Name::parse("nope.example.nl"), dns::RRType::A),
            nullptr);
}

TEST(Zone, FindAllReturnsEverythingAtName) {
  const Zone z = make_zone();
  const auto* apex = z.find_all(z.origin());
  ASSERT_NE(apex, nullptr);
  EXPECT_EQ(apex->size(), 2u);  // SOA + NS
}

TEST(Zone, SoaAccessors) {
  const Zone z = make_zone();
  const auto soa = z.soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(soa->soa_serial(), 2017041201u);
  EXPECT_EQ(z.negative_ttl(), 300u);
}

TEST(Zone, NegativeTtlClampsToSoaRecordTtl) {
  Zone z{dns::Name::parse("x.nl")};
  dns::SoaRdata soa;
  soa.minimum = 9999;
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60, soa});
  EXPECT_EQ(z.negative_ttl(), 60u);
}

TEST(Zone, ApexNs) {
  const Zone z = make_zone();
  const auto* ns = z.apex_ns();
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->size(), 2u);
}

TEST(Zone, RejectsOutOfZoneRecord) {
  Zone z{dns::Name::parse("example.nl")};
  EXPECT_THROW(
      z.add(dns::ResourceRecord{dns::Name::parse("other.org"),
                                dns::RRClass::IN, 60,
                                dns::ARdata{net::IpAddress{1}}}),
      std::invalid_argument);
}

TEST(Zone, RejectsClassMismatch) {
  Zone z{dns::Name::parse("example.nl")};
  EXPECT_THROW(
      z.add(dns::ResourceRecord{z.origin(), dns::RRClass::CH, 60,
                                dns::TxtRdata{{"x"}}}),
      std::invalid_argument);
}

TEST(Zone, NameExistsIncludesEmptyNonTerminals) {
  const Zone z = make_zone();
  EXPECT_TRUE(z.name_exists(dns::Name::parse("www.example.nl")));
  // b.c.example.nl has no records but a.b.c.example.nl exists below it.
  EXPECT_TRUE(z.name_exists(dns::Name::parse("b.c.example.nl")));
  EXPECT_TRUE(z.name_exists(dns::Name::parse("c.example.nl")));
  EXPECT_FALSE(z.name_exists(dns::Name::parse("zzz.example.nl")));
}

TEST(Zone, FindDelegationBelowApex) {
  const Zone z = make_zone();
  const auto* cut =
      z.find_delegation(dns::Name::parse("deep.child.example.nl"));
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->name, dns::Name::parse("child.example.nl"));
  // The delegation point itself is also under the cut.
  EXPECT_NE(z.find_delegation(dns::Name::parse("child.example.nl")),
            nullptr);
}

TEST(Zone, ApexNsIsNotADelegation) {
  const Zone z = make_zone();
  EXPECT_EQ(z.find_delegation(dns::Name::parse("www.example.nl")), nullptr);
  EXPECT_EQ(z.find_delegation(z.origin()), nullptr);
}

TEST(Zone, WildcardMatchesUncoveredNames) {
  const Zone z = make_zone();
  const auto* wc = z.find_wildcard(
      dns::Name::parse("anything.wild.example.nl"), dns::RRType::TXT);
  ASSERT_NE(wc, nullptr);
  EXPECT_EQ(wc->type, dns::RRType::TXT);
}

TEST(Zone, WildcardDoesNotShadowExistingNames) {
  Zone z{dns::Name::parse("x.nl")};
  dns::SoaRdata soa;
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60, soa});
  z.add(dns::ResourceRecord{dns::Name::parse("*.x.nl"), dns::RRClass::IN, 5,
                            dns::TxtRdata{{"wild"}}});
  z.add(dns::ResourceRecord{dns::Name::parse("real.x.nl"), dns::RRClass::IN,
                            5, dns::ARdata{net::IpAddress{1}}});
  // real.x.nl exists; wildcard must not apply to it (engine checks
  // existence first — find_wildcard is only called for nonexistent names).
  const auto* wc =
      z.find_wildcard(dns::Name::parse("other.x.nl"), dns::RRType::TXT);
  EXPECT_NE(wc, nullptr);
}

TEST(Zone, WildcardWrongTypeGivesNull) {
  const Zone z = make_zone();
  EXPECT_EQ(z.find_wildcard(dns::Name::parse("anything.wild.example.nl"),
                            dns::RRType::A),
            nullptr);
}

TEST(Zone, GlueForReturnsAddresses) {
  const Zone z = make_zone();
  const auto glue = z.glue_for(dns::Name::parse("ns1.example.nl"));
  ASSERT_EQ(glue.size(), 1u);
  EXPECT_EQ(glue[0].type(), dns::RRType::A);
  EXPECT_TRUE(z.glue_for(dns::Name::parse("nobody.example.nl")).empty());
}

TEST(Zone, ValidateAcceptsHealthyZone) {
  EXPECT_TRUE(make_zone().validate().empty());
}

TEST(Zone, ValidateFlagsMissingSoaAndNs) {
  Zone z{dns::Name::parse("x.nl")};
  const auto problems = z.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("SOA"), std::string::npos);
  EXPECT_NE(problems[1].find("NS"), std::string::npos);
}

TEST(Zone, ValidateFlagsCnameAndOtherData) {
  Zone z{dns::Name::parse("x.nl")};
  dns::SoaRdata soa;
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60, soa});
  z.add(dns::ResourceRecord{z.origin(), dns::RRClass::IN, 60,
                            dns::NsRdata{dns::Name::parse("ns.x.nl")}});
  z.add(dns::ResourceRecord{dns::Name::parse("bad.x.nl"), dns::RRClass::IN,
                            60, dns::CnameRdata{dns::Name::parse("a.x.nl")}});
  z.add(dns::ResourceRecord{dns::Name::parse("bad.x.nl"), dns::RRClass::IN,
                            60, dns::ARdata{net::IpAddress{1}}});
  const auto problems = z.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("CNAME"), std::string::npos);
}

TEST(Zone, OwnerNamesInCanonicalOrder) {
  const Zone z = make_zone();
  const auto names = z.owner_names();
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1].compare(names[i]), 0);
  }
}

TEST(Zone, MergesRecordsIntoRRsets) {
  Zone z{dns::Name::parse("x.nl")};
  z.add(dns::ResourceRecord{dns::Name::parse("h.x.nl"), dns::RRClass::IN,
                            100, dns::ARdata{net::IpAddress{1}}});
  z.add(dns::ResourceRecord{dns::Name::parse("h.x.nl"), dns::RRClass::IN,
                            50, dns::ARdata{net::IpAddress{2}}});
  const auto* set = z.find(dns::Name::parse("h.x.nl"), dns::RRType::A);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->size(), 2u);
  EXPECT_EQ(set->ttl, 50u);  // min TTL wins
}

TEST(Zone, DropsDuplicateRecords) {
  // RFC 2181 §5: a zone text listing one record twice serves it once. The
  // duplicate's lower TTL still applies to the set.
  const Zone z = Zone::from_text(dns::Name::parse("x.nl"), R"(
$TTL 3600
@    IN SOA ns hostmaster 1 2 3 4 300
@    IN NS  ns
ns   IN A   192.0.2.53
www  IN A   192.0.2.1
www  IN A   192.0.2.1
www  60 IN A 192.0.2.1
www  IN A   192.0.2.2
)");
  const auto* set = z.find(dns::Name::parse("www.x.nl"), dns::RRType::A);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->size(), 2u);
  EXPECT_EQ(set->ttl, 60u);
  EXPECT_EQ(z.record_count(), 5u);
  const LookupResult r = QueryEngine{z}.lookup(dns::Question{
      dns::Name::parse("www.x.nl"), dns::RRType::A, dns::RRClass::IN});
  EXPECT_EQ(r.answers.size(), 2u);
}

// Shard replicas answer from the same const zones on several threads. Every
// reply must match a single-thread answer byte for byte (the tsan job runs
// this test).
TEST(SharedZone, FourThreadsAnswerByteIdentically) {
  const Zone zone = make_zone();
  std::vector<dns::Message> queries;
  for (const auto& [name, type] :
       std::vector<std::pair<const char*, dns::RRType>>{
           {"www.example.nl", dns::RRType::A},
           {"alias.example.nl", dns::RRType::A},
           {"x.wild.example.nl", dns::RRType::TXT},
           {"host.child.example.nl", dns::RRType::A},
           {"example.nl", dns::RRType::NS},
           {"example.nl", dns::RRType::SOA},
           {"www.example.nl", dns::RRType::TXT},
           {"b.c.example.nl", dns::RRType::A},
           {"nope.example.nl", dns::RRType::A}}) {
    queries.push_back(dns::Message::make_query(
        static_cast<std::uint16_t>(queries.size()), dns::Name::parse(name),
        type));
  }
  const auto answer = [&zone](const dns::Message& q) {
    dns::Message resp = dns::Message::make_response(q);
    (void)QueryEngine{zone}.lookup(q.question(), resp);
    const net::WireBuffer wire = dns::encode_message(resp);
    return std::vector<std::uint8_t>(wire.data(), wire.data() + wire.size());
  };
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& q : queries) expected.push_back(answer(q));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          if (answer(queries[i]) != expected[i]) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace recwild::authns
