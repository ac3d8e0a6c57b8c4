// Random domain names for the dnscore property tests: mixed-case labels of
// 1..12 characters prepended to one of a few shared suffix families, so an
// encoder finds compression hits across names and comparisons must fold
// case. Deterministic per seed.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "dnscore/name.hpp"

namespace recwild::dns {

class NameGen {
 public:
  explicit NameGen(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return rng_() % n; }

  /// A label of 1..12 chars, mixed case.
  std::string label() {
    static const char* kChars =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
    const std::size_t len = 1 + below(12);
    std::string out;
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i) out.push_back(kChars[below(64)]);
    return out;
  }

  /// The labels of a random name, most-specific first.
  std::vector<std::string> name_labels() {
    static const std::vector<std::vector<std::string>> kSuffixes = {
        {"example", "nl"},
        {"Example", "NL"},
        {"ns", "ourtestdomain", "nl"},
        {"a", "very", "deep", "suffix", "chain", "test"},
        {},  // the root
    };
    std::vector<std::string> labels = kSuffixes[below(kSuffixes.size())];
    const std::size_t extra = below(3);
    for (std::size_t i = 0; i < extra; ++i) {
      std::string l = label();
      // Stay inside the 255-octet wire limit.
      std::size_t total = 1;
      for (const auto& s : labels) total += 1 + s.size();
      if (total + 1 + l.size() > 250) break;
      labels.insert(labels.begin(), std::move(l));
    }
    return labels;
  }

  Name name() { return Name::from_labels(name_labels()); }

 protected:
  std::mt19937_64 rng_;
};

}  // namespace recwild::dns
