// QNAME minimization (RFC 7816): the resolver exposes only the next label
// to each zone in the hierarchy. Verified from the AUTHORITATIVE side —
// the query logs show what each server actually learned.
#include <gtest/gtest.h>

#include "experiment/testbed.hpp"

namespace recwild::resolver {
namespace {

struct World {
  experiment::Testbed tb;
  std::unique_ptr<RecursiveResolver> res;

  explicit World(bool minimize) : tb(make_cfg()) {
    ResolverConfig rc;
    rc.name = "min-resolver";
    rc.qname_minimization = minimize;
    res = std::make_unique<RecursiveResolver>(
        tb.network(),
        tb.network().add_node("minres", net::find_location("AMS")->point),
        tb.network().allocate_address(), rc, tb.hints(), stats::Rng{77});
    res->start();
  }

  static experiment::TestbedConfig make_cfg() {
    experiment::TestbedConfig cfg;
    cfg.seed = 2001;
    cfg.build_population = false;
    cfg.test_sites = {"DUB", "FRA"};
    return cfg;
  }

  ResolveOutcome resolve(const char* name) {
    ResolveOutcome out;
    res->resolve(dns::Question{dns::Name::parse(name), dns::RRType::TXT,
                               dns::RRClass::IN},
                 [&](const ResolveOutcome& o) { out = o; });
    tb.sim().run();
    return out;
  }

  /// All qnames seen across every site of a service group.
  std::vector<dns::Name> qnames_at(
      std::vector<anycast::AnycastService>& group) {
    std::vector<dns::Name> out;
    for (auto& svc : group) {
      for (auto& site : svc.sites()) {
        for (const auto& e : site.server->log().entries()) {
          out.push_back(e.qname);
        }
      }
    }
    return out;
  }
};

TEST(QnameMinimization, ResolvesCorrectly) {
  World w{true};
  const auto out = w.resolve("secret-host.ourtestdomain.nl");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  ASSERT_FALSE(out.answers.empty());
}

TEST(QnameMinimization, RootOnlySeesTld) {
  World w{true};
  (void)w.resolve("secret-host.ourtestdomain.nl");
  const auto root_qnames = w.qnames_at(w.tb.roots());
  ASSERT_FALSE(root_qnames.empty());
  for (const auto& q : root_qnames) {
    EXPECT_LE(q.label_count(), 1u) << q.to_string();  // "nl.", never more
  }
}

TEST(QnameMinimization, TldOnlySeesSecondLevel) {
  World w{true};
  (void)w.resolve("secret-host.ourtestdomain.nl");
  const auto nl_qnames = w.qnames_at(w.tb.nl_services());
  ASSERT_FALSE(nl_qnames.empty());
  for (const auto& q : nl_qnames) {
    EXPECT_LE(q.label_count(), 2u) << q.to_string();
    EXPECT_NE(q.to_string().find("ourtestdomain"), std::string::npos);
    EXPECT_EQ(q.to_string().find("secret-host"), std::string::npos);
  }
}

TEST(QnameMinimization, AuthoritativeSeesFullName) {
  World w{true};
  (void)w.resolve("secret-host.ourtestdomain.nl");
  bool saw_full = false;
  for (const auto& q : w.qnames_at(w.tb.test_services())) {
    if (q == dns::Name::parse("secret-host.ourtestdomain.nl")) {
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_full);
}

TEST(QnameMinimization, WithoutItRootSeesEverything) {
  World w{false};
  (void)w.resolve("secret-host.ourtestdomain.nl");
  bool leaked = false;
  for (const auto& q : w.qnames_at(w.tb.roots())) {
    if (q.label_count() == 3) leaked = true;  // the full name hit the root
  }
  EXPECT_TRUE(leaked);
}

TEST(QnameMinimization, CachedCutsSkipUpperZones) {
  World w{true};
  (void)w.resolve("first.ourtestdomain.nl");
  const auto root_before = w.qnames_at(w.tb.roots()).size();
  const auto out = w.resolve("second.ourtestdomain.nl");
  EXPECT_EQ(out.rcode, dns::Rcode::NoError);
  EXPECT_EQ(out.upstream_queries, 1);  // straight to the test domain
  EXPECT_EQ(w.qnames_at(w.tb.roots()).size(), root_before);
}

TEST(QnameMinimization, NxDomainStillWorks) {
  World w{true};
  const auto out = w.resolve("nope.nosuchdomain.nl");
  EXPECT_EQ(out.rcode, dns::Rcode::NxDomain);
}

TEST(QnameMinimization, SameAnswerWithAndWithout) {
  World with{true};
  World without{false};
  const auto a = with.resolve("parity.ourtestdomain.nl");
  const auto b = without.resolve("parity.ourtestdomain.nl");
  EXPECT_EQ(a.rcode, b.rcode);
  ASSERT_FALSE(a.answers.empty());
  ASSERT_FALSE(b.answers.empty());
  // Both got a TXT payload naming one of the two authoritatives.
  const auto payload = [](const ResolveOutcome& o) {
    return std::string{*o.answers.back().rdata().txt().begin()};
  };
  EXPECT_TRUE(payload(a) == "DUB" || payload(a) == "FRA");
  EXPECT_TRUE(payload(b) == "DUB" || payload(b) == "FRA");
}

}  // namespace
}  // namespace recwild::resolver
