// Property sweep: randomly generated zones must uphold the RFC 1034
// lookup invariants for every query the engine can face.
#include <gtest/gtest.h>

#include "authns/query_engine.hpp"
#include "stats/rng.hpp"

namespace recwild::authns {
namespace {

struct GeneratedZone {
  Zone zone{dns::Name::parse("ptest.nl")};
  std::vector<dns::Name> owners;       // names with records
  std::vector<dns::Name> delegations;  // cut points
  bool has_wildcard = false;
};

GeneratedZone generate(std::uint64_t seed) {
  stats::Rng rng{seed};
  GeneratedZone g;
  const dns::Name origin = g.zone.origin();

  dns::SoaRdata soa;
  soa.mname = origin.prefixed("ns1");
  soa.rname = origin.prefixed("hostmaster");
  soa.serial = 1;
  soa.minimum = 60;
  g.zone.add({origin, dns::RRClass::IN, 3600, soa});
  g.zone.add({origin, dns::RRClass::IN, 3600,
              dns::NsRdata{origin.prefixed("ns1")}});
  g.zone.add({origin.prefixed("ns1"), dns::RRClass::IN, 3600,
              dns::ARdata{net::IpAddress{1}}});
  g.owners.push_back(origin);
  g.owners.push_back(origin.prefixed("ns1"));

  const std::size_t hosts = 3 + rng.index(20);
  for (std::size_t i = 0; i < hosts; ++i) {
    dns::Name owner = origin.prefixed("h" + std::to_string(i));
    if (rng.chance(0.3)) owner = owner.prefixed("sub");
    switch (rng.index(3)) {
      case 0:
        g.zone.add({owner, dns::RRClass::IN, 300,
                    dns::ARdata{net::IpAddress{
                        static_cast<std::uint32_t>(i + 10)}}});
        break;
      case 1:
        g.zone.add({owner, dns::RRClass::IN, 300,
                    dns::TxtRdata{{"t" + std::to_string(i)}}});
        break;
      default:
        g.zone.add({owner, dns::RRClass::IN, 300,
                    dns::MxRdata{10, origin.prefixed("mail")}});
        break;
    }
    g.owners.push_back(owner);
  }

  if (rng.chance(0.5)) {
    g.zone.add({origin.prefixed("*"), dns::RRClass::IN, 60,
                dns::TxtRdata{{"wild"}}});
    g.has_wildcard = true;
  }

  const std::size_t cuts = rng.index(3);
  for (std::size_t i = 0; i < cuts; ++i) {
    const dns::Name child = origin.prefixed("child" + std::to_string(i));
    g.zone.add({child, dns::RRClass::IN, 3600,
                dns::NsRdata{child.prefixed("ns")}});
    g.zone.add({child.prefixed("ns"), dns::RRClass::IN, 3600,
                dns::ARdata{net::IpAddress{
                    static_cast<std::uint32_t>(100 + i)}}});
    g.delegations.push_back(child);
  }
  return g;
}

class ZoneProperties : public ::testing::TestWithParam<int> {};

TEST_P(ZoneProperties, ZoneValidates) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  EXPECT_TRUE(g.zone.validate().empty());
}

TEST_P(ZoneProperties, ExistingOwnersNeverNxDomain) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  const QueryEngine engine{g.zone};
  for (const auto& owner : g.owners) {
    // Skip names under a delegation cut (they refer).
    bool under_cut = false;
    for (const auto& cut : g.delegations) {
      if (owner.is_subdomain_of(cut)) under_cut = true;
    }
    if (under_cut) continue;
    const auto r = engine.lookup(
        dns::Question{owner, dns::RRType::TXT, dns::RRClass::IN});
    EXPECT_NE(r.rcode, dns::Rcode::NxDomain) << owner.to_string();
    EXPECT_TRUE(r.disposition == Disposition::Answer ||
                r.disposition == Disposition::NoData ||
                r.disposition == Disposition::Wildcard)
        << owner.to_string();
  }
}

TEST_P(ZoneProperties, DelegatedNamesAlwaysRefer) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  const QueryEngine engine{g.zone};
  for (const auto& cut : g.delegations) {
    const auto r = engine.lookup(dns::Question{
        cut.prefixed("below"), dns::RRType::A, dns::RRClass::IN});
    EXPECT_EQ(r.disposition, Disposition::Referral);
    EXPECT_FALSE(r.authoritative);
    EXPECT_FALSE(r.authorities.empty());
    // Referral glue must cover the NS target.
    EXPECT_FALSE(r.additionals.empty());
  }
}

TEST_P(ZoneProperties, UnknownNamesNxDomainOrWildcard) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  const QueryEngine engine{g.zone};
  stats::Rng rng{static_cast<std::uint64_t>(GetParam()) + 999};
  for (int i = 0; i < 20; ++i) {
    const dns::Name name = g.zone.origin().prefixed(
        "nope" + std::to_string(rng.next() % 100000));
    const auto r = engine.lookup(
        dns::Question{name, dns::RRType::TXT, dns::RRClass::IN});
    if (g.has_wildcard) {
      EXPECT_EQ(r.disposition, Disposition::Wildcard) << name.to_string();
      ASSERT_EQ(r.answers.size(), 1u);
      EXPECT_EQ(r.answers[0].name, name);  // synthesized at the qname
    } else {
      EXPECT_EQ(r.rcode, dns::Rcode::NxDomain) << name.to_string();
      ASSERT_FALSE(r.authorities.empty());
      EXPECT_EQ(r.authorities[0].type(), dns::RRType::SOA);
    }
  }
}

TEST_P(ZoneProperties, LookupNeverThrowsOnAnyType) {
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  const QueryEngine engine{g.zone};
  for (const auto type :
       {dns::RRType::A, dns::RRType::NS, dns::RRType::CNAME,
        dns::RRType::SOA, dns::RRType::MX, dns::RRType::TXT,
        dns::RRType::AAAA, dns::RRType::ANY}) {
    for (const auto& owner : g.owners) {
      EXPECT_NO_THROW((void)engine.lookup(
          dns::Question{owner, type, dns::RRClass::IN}));
    }
  }
}

TEST_P(ZoneProperties, AxfrRoundTripsThroughSecondaryPath) {
  // The AXFR payload rebuilt as a zone matches record-for-record.
  const auto g = generate(static_cast<std::uint64_t>(GetParam()));
  const auto all = g.zone.all_records();
  Zone rebuilt{g.zone.origin()};
  for (const auto& rr : all) rebuilt.add(rr);
  EXPECT_EQ(rebuilt.record_count(), g.zone.record_count());
  EXPECT_EQ(rebuilt.rrset_count(), g.zone.rrset_count());
  EXPECT_EQ(rebuilt.soa()->soa_serial(), g.zone.soa()->soa_serial());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneProperties, ::testing::Range(1, 16));

}  // namespace
}  // namespace recwild::authns
