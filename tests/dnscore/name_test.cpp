#include "dnscore/name.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "name_gen.hpp"
#include "stats/rng.hpp"

namespace recwild::dns {
namespace {

TEST(Name, RootParsesAndPrints) {
  const Name root = Name::parse(".");
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.label_count(), 0u);
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root.wire_length(), 1u);
}

TEST(Name, DefaultConstructedIsRoot) {
  EXPECT_TRUE(Name{}.is_root());
}

TEST(Name, ParsesRelativeAndAbsoluteForms) {
  const Name a = Name::parse("www.example.nl");
  const Name b = Name::parse("www.example.nl.");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.label_count(), 3u);
  EXPECT_EQ(a.label(0), "www");
  EXPECT_EQ(a.label(2), "nl");
}

TEST(Name, ToStringAppendsTrailingDot) {
  EXPECT_EQ(Name::parse("example.nl").to_string(), "example.nl.");
}

TEST(Name, RejectsEmptyAndMalformed) {
  EXPECT_THROW(Name::parse(""), std::invalid_argument);
  EXPECT_THROW(Name::parse("a..b"), std::invalid_argument);
  EXPECT_THROW(Name::parse(".a"), std::invalid_argument);
  EXPECT_THROW(Name::parse("a\\"), std::invalid_argument);
}

TEST(Name, EscapedDotStaysInLabel) {
  const Name n = Name::parse("a\\.b.nl");
  EXPECT_EQ(n.label_count(), 2u);
  EXPECT_EQ(n.label(0), "a.b");
  EXPECT_EQ(n.to_string(), "a\\.b.nl.");
}

TEST(Name, RoundTripsThroughToString) {
  for (const char* text :
       {"example.nl.", "a.b.c.d.e.", "xn--caf-dma.fr.", "a\\.b.nl."}) {
    const Name n = Name::parse(text);
    EXPECT_EQ(Name::parse(n.to_string()), n) << text;
  }
}

TEST(Name, LabelLengthLimitEnforced) {
  const std::string max_label(63, 'a');
  EXPECT_NO_THROW(Name::parse(max_label + ".nl"));
  const std::string too_long(64, 'a');
  EXPECT_THROW(Name::parse(too_long + ".nl"), std::invalid_argument);
}

TEST(Name, TotalLengthLimitEnforced) {
  // Four 63-byte labels: 4*64 + 1 = 257 > 255.
  const std::string l(63, 'a');
  EXPECT_THROW(Name::parse(l + "." + l + "." + l + "." + l),
               std::invalid_argument);
  // Three long labels + short one stays within 255.
  EXPECT_NO_THROW(Name::parse(l + "." + l + "." + l + ".x"));
}

TEST(Name, WireLengthCountsLabelBytes) {
  EXPECT_EQ(Name::parse("ab.nl").wire_length(), 1 + 2 + 1 + 2 + 1u);
}

TEST(Name, ComparisonIsCaseInsensitive) {
  EXPECT_EQ(Name::parse("WWW.Example.NL"), Name::parse("www.example.nl"));
  EXPECT_EQ(Name::parse("WWW.Example.NL").hash(),
            Name::parse("www.example.nl").hash());
}

TEST(Name, CanonicalOrderIsRightToLeft) {
  // example.com < example.nl (com < nl at the rightmost label).
  EXPECT_LT(Name::parse("example.com"), Name::parse("example.nl"));
  // Parent sorts before child.
  EXPECT_LT(Name::parse("nl"), Name::parse("example.nl"));
  // Root sorts first.
  EXPECT_LT(Name{}, Name::parse("nl"));
}

TEST(Name, CompareIsAntisymmetric) {
  const Name a = Name::parse("a.nl");
  const Name b = Name::parse("b.nl");
  EXPECT_EQ(a.compare(b), -b.compare(a));
  EXPECT_EQ(a.compare(a), 0);
}

TEST(Name, SubdomainChecks) {
  const Name zone = Name::parse("example.nl");
  EXPECT_TRUE(Name::parse("www.example.nl").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(Name{}));  // everything under root
  EXPECT_FALSE(Name::parse("example.com").is_subdomain_of(zone));
  EXPECT_FALSE(Name::parse("nl").is_subdomain_of(zone));
  // Not fooled by string suffixes: "badexample.nl" is not under
  // "example.nl".
  EXPECT_FALSE(Name::parse("badexample.nl").is_subdomain_of(zone));
}

TEST(Name, SubdomainIsCaseInsensitive) {
  EXPECT_TRUE(Name::parse("WWW.EXAMPLE.NL")
                  .is_subdomain_of(Name::parse("example.nl")));
}

TEST(Name, ParentWalksUp) {
  const Name n = Name::parse("a.b.c");
  EXPECT_EQ(n.parent(), Name::parse("b.c"));
  EXPECT_EQ(n.parent().parent(), Name::parse("c"));
  EXPECT_TRUE(n.parent().parent().parent().is_root());
  EXPECT_TRUE(Name{}.parent().is_root());
}

TEST(Name, PrefixedAddsLeftmostLabel) {
  EXPECT_EQ(Name::parse("example.nl").prefixed("www"),
            Name::parse("www.example.nl"));
  EXPECT_EQ(Name{}.prefixed("nl"), Name::parse("nl"));
}

TEST(Name, PrefixedValidatesLimits) {
  EXPECT_THROW(Name::parse("nl").prefixed(std::string(64, 'a')),
               std::invalid_argument);
}

TEST(Name, ConcatJoinsNames) {
  EXPECT_EQ(Name::parse("www").concat(Name::parse("example.nl")),
            Name::parse("www.example.nl"));
  EXPECT_EQ(Name::parse("www.example.nl").concat(Name{}),
            Name::parse("www.example.nl"));
}

TEST(Name, FromLabelsValidates) {
  EXPECT_THROW(Name::from_labels({""}), std::invalid_argument);
  EXPECT_NO_THROW(Name::from_labels({"a", "b"}));
}

TEST(Name, HashDistinguishesNames) {
  EXPECT_NE(Name::parse("a.nl").hash(), Name::parse("b.nl").hash());
  EXPECT_NE(Name::parse("ab.nl").hash(), Name::parse("a.bnl").hash());
}

TEST(Name, MovedFromNameDropsCachedHash) {
  // Regression: moving out of a Name with a populated hash cache must not
  // leave the stale cache behind — a reused moved-from Name has to hash
  // consistently with its current labels.
  Name a = Name::parse("example.nl");
  (void)a.hash();  // populate the cache
  Name b{std::move(a)};
  const Name fresh_a = Name::from_labels({a.begin(), a.end()});
  EXPECT_EQ(a.hash(), fresh_a.hash());

  (void)b.hash();
  Name c;
  c = std::move(b);
  const Name fresh_b = Name::from_labels({b.begin(), b.end()});
  EXPECT_EQ(b.hash(), fresh_b.hash());
  EXPECT_EQ(c, Name::parse("example.nl"));
}

TEST(Name, MovedFromNameIsRoot) {
  const std::string long_label(Name::kInlineCapacity, 'x');
  for (const std::string& text :
       {std::string{"www.example.nl"}, long_label + ".nl"}) {
    Name a = Name::parse(text);
    (void)a.hash();
    Name b{std::move(a)};
    EXPECT_TRUE(a.is_root()) << text;
    EXPECT_EQ(a.wire_length(), 1u);
    EXPECT_EQ(a.begin(), a.end());
    EXPECT_EQ(a, Name{});
    EXPECT_EQ(a.hash(), Name{}.hash());
    EXPECT_EQ(b.to_string(), Name::parse(text).to_string());

    Name c = Name::parse("other.nl");
    c = std::move(b);
    EXPECT_TRUE(b.is_root()) << text;
    EXPECT_EQ(b.hash(), Name{}.hash());
    EXPECT_EQ(c, Name::parse(text));
    // A moved-from Name is usable again.
    b.append_label("nl");
    EXPECT_EQ(b, Name::parse("nl"));
  }
}

TEST(Name, IteratesLabelsMostSpecificFirst) {
  const Name n = Name::parse("WWW.example.nl");
  const std::vector<std::string> labels(n.begin(), n.end());
  EXPECT_EQ(labels, (std::vector<std::string>{"WWW", "example", "nl"}));
  EXPECT_EQ(n.label(1), "example");
  EXPECT_THROW((void)n.label(3), std::out_of_range);
  const Name root;
  EXPECT_EQ(root.begin(), root.end());
}

TEST(Name, WireFormIsUncompressedLabelsWithoutRoot) {
  const Name n = Name::parse("ab.C");
  const std::vector<std::uint8_t> expected{2, 'a', 'b', 1, 'C'};
  EXPECT_EQ(std::vector<std::uint8_t>(n.wire().begin(), n.wire().end()),
            expected);
  EXPECT_TRUE(Name{}.wire().empty());
}

TEST(Name, SuffixKeepsTheLastLabels) {
  const Name n = Name::parse("a.B.c.nl");
  EXPECT_EQ(n.suffix(4), n);
  EXPECT_EQ(n.suffix(2).to_string(), "c.nl.");
  EXPECT_EQ(n.suffix(3).to_string(), "B.c.nl.");  // case kept
  EXPECT_TRUE(n.suffix(0).is_root());
  EXPECT_THROW((void)n.suffix(5), std::out_of_range);
}

TEST(Name, InlineCapacityBoundary) {
  // One label of kInlineCapacity - 1 characters fills the buffer exactly.
  const std::string fits(Name::kInlineCapacity - 1, 'a');
  const std::uint64_t spills = Name::heap_spills();
  const Name inline_name = Name::parse(fits);
  EXPECT_FALSE(inline_name.spilled());
  EXPECT_EQ(inline_name.wire_length(), Name::kInlineCapacity + 1);
  Name copy = inline_name;
  EXPECT_EQ(Name::heap_spills(), spills);  // nothing above allocated

  // One octet more spills to a single heap block.
  const std::string over(Name::kInlineCapacity, 'B');
  const Name spilled = Name::parse(over);
  EXPECT_TRUE(spilled.spilled());
  EXPECT_EQ(spilled.wire_length(), Name::kInlineCapacity + 2);
  EXPECT_EQ(Name::heap_spills(), spills + 1);
  EXPECT_EQ(spilled.label(0), over);

  // Copies of a spilled name own their bytes.
  Name spilled_copy = spilled;
  EXPECT_EQ(Name::heap_spills(), spills + 2);
  EXPECT_EQ(spilled_copy, spilled);
  EXPECT_EQ(spilled_copy.hash(), Name::parse(std::string(over.size(), 'b'))
                                     .hash());
  spilled_copy.append_label("nl");
  EXPECT_EQ(spilled.label_count(), 1u);
  EXPECT_EQ(spilled_copy.to_string(), over + ".nl.");

  // Assignment across the boundary, both ways, and onto itself.
  copy = spilled;
  EXPECT_EQ(copy, spilled);
  copy = inline_name;
  EXPECT_EQ(copy, inline_name);
  EXPECT_FALSE(copy.spilled());
  const Name& self = copy;
  copy = self;
  EXPECT_EQ(copy, inline_name);

  // Appending across the boundary spills; ancestors that fit come back.
  Name grown = Name::parse(fits);
  grown.append_label("x");
  EXPECT_TRUE(grown.spilled());
  EXPECT_FALSE(grown.suffix(1).spilled());
  EXPECT_EQ(grown.suffix(1), Name::parse("x"));
  EXPECT_EQ(grown.parent(), Name::parse("x"));
}

TEST(Name, MaximalLabelsAndNames) {
  const std::string l63(63, 'x');
  EXPECT_NO_THROW(Name::parse(l63));
  EXPECT_THROW(Name::parse(l63 + "x"), std::invalid_argument);
  EXPECT_THROW(Name::from_labels({l63 + "x"}), std::invalid_argument);
  Name n;
  EXPECT_THROW(n.append_label(l63 + "x"), std::invalid_argument);
  EXPECT_THROW(n.append_label(""), std::invalid_argument);
  EXPECT_TRUE(n.is_root());  // a rejected append leaves the name unchanged

  // 255 octets: three 63-octet labels and one of 61.
  const Name max = Name::from_labels({l63, l63, l63, std::string(61, 'y')});
  EXPECT_EQ(max.wire_length(), 255u);
  EXPECT_EQ(Name::parse(max.to_string()), max);
  EXPECT_THROW(Name::from_labels({l63, l63, l63, std::string(62, 'y')}),
               std::invalid_argument);
  EXPECT_THROW((void)max.prefixed("z"), std::invalid_argument);
  EXPECT_THROW((void)max.concat(Name::parse("z")), std::invalid_argument);
  Name full = max;
  EXPECT_THROW(full.append_label("z"), std::invalid_argument);
  EXPECT_EQ(full, max);

  // 127 one-octet labels are also 255 octets; a 128th is too many.
  const std::vector<std::string> ones(127, "a");
  const Name deep = Name::from_labels(ones);
  EXPECT_EQ(deep.label_count(), 127u);
  EXPECT_EQ(deep.wire_length(), 255u);
  EXPECT_EQ(deep.label(126), "a");
  EXPECT_EQ(deep.suffix(1), Name::parse("a"));
  EXPECT_EQ(deep.compare(deep.parent()), 1);
  EXPECT_TRUE(deep.is_subdomain_of(deep.suffix(60)));
  EXPECT_THROW((void)deep.prefixed("a"), std::invalid_argument);
  EXPECT_THROW(Name::from_labels(std::vector<std::string>(128, "a")),
               std::invalid_argument);
}

TEST(Name, HashValuesArePinned) {
  // FNV-1a over lower-cased labels with 0xff separators. Unordered
  // containers keyed by Name iterate in the order these values fix, and
  // the committed fixtures record that order, so the values must not move.
  const std::pair<const char*, std::size_t> pinned[] = {
      {".", 0xcbf29ce484222325ULL},
      {"nl", 0x21584d19258d33a8ULL},
      {"NL", 0x21584d19258d33a8ULL},
      {"example.nl", 0x2299c1f350e0f61dULL},
      {"www.Example.NL", 0x276751d6fe6362d9ULL},
      {"ourtestdomain.nl", 0x91939c443cc5c749ULL},
      {"q12345x30.ourtestdomain.nl", 0x941c8a1e277a835bULL},
      {"Q12345X30.OurTestDomain.NL", 0x941c8a1e277a835bULL},
      {"s149999.ourtestdomain.nl", 0xae2a867b2be11a92ULL},
      {"a.root-servers.net", 0x490079984c2d3379ULL},
      {"hostmaster.ourtestdomain.nl", 0xd07fc7454a3d19b0ULL},
      {"*.ourtestdomain.nl", 0x18d9336951b61b38ULL},
      {"a\\.b.c", 0x0db071b3800357d3ULL},
      {"xn--bcher-kva.example", 0xbcc4d7ccfe1aaf52ULL},
  };
  for (const auto& [text, h] : pinned) {
    EXPECT_EQ(Name::parse(text).hash(), h) << text;
  }
  const std::string l63(63, 'x');
  EXPECT_EQ(Name::from_labels({l63, l63, l63, std::string(61, 'y')}).hash(),
            0x41fd6c2af3af9428ULL);
  EXPECT_EQ(Name::from_labels(std::vector<std::string>(127, "a")).hash(),
            0x511d3fc7c4615389ULL);
}

/// Property sweep: parse/print round-trip over generated names.
class NameRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(NameRoundTrip, ParsePrintParse) {
  stats::Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::vector<std::string> labels;
  const std::size_t n = 1 + rng.index(5);
  for (std::size_t i = 0; i < n; ++i) {
    std::string label;
    const std::size_t len = 1 + rng.index(12);
    for (std::size_t j = 0; j < len; ++j) {
      static constexpr char alphabet[] =
          "abcdefghijklmnopqrstuvwxyzABC0123456789-_.";
      label.push_back(
          alphabet[rng.index(sizeof(alphabet) - 1)]);
    }
    labels.push_back(std::move(label));
  }
  const Name n1 = Name::from_labels(labels);
  const Name n2 = Name::parse(n1.to_string());
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(n1.compare(n2), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameRoundTrip, ::testing::Range(1, 21));

// A label-vector reference model of the Name operations, checked against
// the flat Name over the names the codec property test draws.
using Labels = std::vector<std::string>;

int ref_compare_labels(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(Name::to_lower(a[i]));
    const auto cb = static_cast<unsigned char>(Name::to_lower(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

bool ref_equals(const Labels& a, const Labels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ref_compare_labels(a[i], b[i]) != 0) return false;
  }
  return true;
}

int ref_compare(const Labels& a, const Labels& b) {
  std::size_t i = a.size();
  std::size_t j = b.size();
  while (i > 0 && j > 0) {
    const int c = ref_compare_labels(a[--i], b[--j]);
    if (c != 0) return c;
  }
  if (i != j) return i < j ? -1 : 1;
  return 0;
}

bool ref_subdomain(const Labels& a, const Labels& anc) {
  if (anc.size() > a.size()) return false;
  const Labels tail(a.end() - static_cast<long>(anc.size()), a.end());
  return ref_equals(tail, anc);
}

Labels labels_of(const Name& n) { return Labels(n.begin(), n.end()); }

/// Flips the case of every other letter: equal names, different bytes.
Labels case_flipped(Labels labels) {
  bool flip = false;
  for (auto& l : labels) {
    for (char& c : l) {
      if (flip && c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      if (flip && c >= 'A' && c <= 'Z') c = Name::to_lower(c);
      flip = !flip;
    }
  }
  return labels;
}

TEST(NameModel, OperationsMatchLabelVectorReference) {
  NameGen gen{2026};
  std::vector<Labels> pool;
  for (int i = 0; i < 200; ++i) {
    Labels l = gen.name_labels();
    pool.push_back(case_flipped(l));
    pool.push_back(std::move(l));
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Labels& la = pool[i];
    const Name a = Name::from_labels(la);
    ASSERT_EQ(labels_of(a), la);
    std::size_t wire = 1;
    for (const auto& l : la) wire += 1 + l.size();
    EXPECT_EQ(a.wire_length(), wire);
    EXPECT_EQ(a.label_count(), la.size());
    EXPECT_EQ(a.spilled(), wire - 1 > Name::kInlineCapacity);

    // Unary operations against the model (case kept as written).
    if (!la.empty()) {
      EXPECT_EQ(labels_of(a.parent()), Labels(la.begin() + 1, la.end()));
    }
    for (std::size_t d = 0; d <= la.size(); ++d) {
      EXPECT_EQ(labels_of(a.suffix(d)),
                Labels(la.end() - static_cast<long>(d), la.end()));
    }
    if (wire + 4 <= kMaxNameWireLength) {
      Labels pre{"Pre"};
      pre.insert(pre.end(), la.begin(), la.end());
      EXPECT_EQ(labels_of(a.prefixed("Pre")), pre);
    }

    // Binary operations over a sample of partners, including the name's
    // own suffixes so subdomain hits are common.
    std::vector<Labels> partners;
    for (std::size_t k = 0; k < 8; ++k) {
      partners.push_back(pool[(i * 7 + k * 31) % pool.size()]);
    }
    for (std::size_t d = 0; d <= la.size(); ++d) {
      partners.emplace_back(la.end() - static_cast<long>(d), la.end());
    }
    for (const Labels& lb : partners) {
      const Name b = Name::from_labels(lb);
      EXPECT_EQ(a.equals(b), ref_equals(la, lb));
      EXPECT_EQ(a.compare(b), ref_compare(la, lb));
      EXPECT_EQ(a.is_subdomain_of(b), ref_subdomain(la, lb));
      if (ref_equals(la, lb)) {
        EXPECT_EQ(a.hash(), b.hash());
      }
      std::size_t joined_wire = wire;
      for (const auto& l : lb) joined_wire += 1 + l.size();
      if (joined_wire <= kMaxNameWireLength) {
        Labels joined = la;
        joined.insert(joined.end(), lb.begin(), lb.end());
        EXPECT_EQ(labels_of(a.concat(b)), joined);
      } else {
        EXPECT_THROW((void)a.concat(b), std::invalid_argument);
      }
    }
  }
}

TEST(NameConcurrency, SharedNameCopiedHashedAndComparedFrom4Threads) {
  // Shard threads share read-only Names (WorldSnapshot). Copying, hashing
  // and comparing one Name from several threads at once must be race-free,
  // including the first hash() calls that fill the relaxed-atomic cache.
  const std::string long_label(Name::kInlineCapacity, 'L');
  for (const std::string& text :
       {std::string{"q12345x30.OurTestDomain.nl"}, long_label + ".nl"}) {
    const Name shared = Name::parse(text);
    const Name expected = Name::parse(text);
    const std::size_t expected_hash = expected.hash();
    std::vector<std::thread> threads;
    std::vector<int> ok(4, 0);
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        bool good = true;
        for (int i = 0; i < 200; ++i) {
          const Name copy = shared;
          good = good && shared.hash() == expected_hash &&
                 copy.hash() == expected_hash && copy == shared &&
                 shared.compare(expected) == 0 &&
                 copy.is_subdomain_of(shared.suffix(1));
        }
        ok[static_cast<std::size_t>(t)] = good ? 1 : 0;
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(ok, std::vector<int>(4, 1)) << text;
  }
}

}  // namespace
}  // namespace recwild::dns
