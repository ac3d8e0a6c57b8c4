// Resource records (RFC 1035 §3.2.1) and record sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dnscore/rdata.hpp"

namespace recwild::dns {

using Ttl = std::uint32_t;

struct ResourceRecord {
  Name name;
  RRClass rrclass = RRClass::IN;
  Ttl ttl = 0;
  Rdata rdata;

  [[nodiscard]] RRType type() const noexcept { return rdata_type(rdata); }

  /// "name TTL class type rdata" presentation line.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const ResourceRecord&) const = default;
};

/// An RRset: all records sharing (name, class, type). DNS semantics operate
/// on RRsets — caches store and expire them as a unit (RFC 2181 §5).
struct RRset {
  Name name;
  RRClass rrclass = RRClass::IN;
  RRType type = RRType::A;
  Ttl ttl = 0;  // by RFC 2181 §5.2 all members share one TTL
  std::vector<Rdata> rdatas;

  [[nodiscard]] bool empty() const noexcept { return rdatas.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return rdatas.size(); }

  /// Appends the set's records to `out`, each owned by `owner` and carrying
  /// `ttl` (a wildcard synthesizes at the query name, a cache hands out the
  /// remaining TTL).
  void append_records(std::vector<ResourceRecord>& out, const Name& owner,
                      Ttl ttl) const;
  /// Appends the set's records as stored.
  void append_records(std::vector<ResourceRecord>& out) const {
    append_records(out, name, ttl);
  }

  /// Expands back into individual records.
  [[nodiscard]] std::vector<ResourceRecord> to_records() const;
};

/// Calls `fn(RRset&&)` for each RRset the records form, in first-seen
/// order. Mixed TTLs within a set are normalized to the minimum
/// (conservative, RFC 2181). Each set's storage is sized exactly and is
/// the caller's to keep (a cache moves it in as it is).
template <class Fn>
void for_each_rrset(const std::vector<ResourceRecord>& records, Fn&& fn) {
  for (auto rr = records.begin(); rr != records.end(); ++rr) {
    const RRType type = rr->type();
    const auto same_set = [&](const ResourceRecord& o) {
      return o.type() == type && o.rrclass == rr->rrclass &&
             o.name == rr->name;
    };
    if (std::any_of(records.begin(), rr, same_set)) continue;  // grouped
    RRset set{rr->name, rr->rrclass, type, rr->ttl, {}};
    set.rdatas.reserve(
        static_cast<std::size_t>(std::count_if(rr, records.end(), same_set)));
    for (auto o = rr; o != records.end(); ++o) {
      if (!same_set(*o)) continue;
      set.ttl = std::min(set.ttl, o->ttl);
      set.rdatas.push_back(o->rdata);
    }
    fn(std::move(set));
  }
}

/// Groups records into RRsets (see for_each_rrset).
std::vector<RRset> group_rrsets(const std::vector<ResourceRecord>& records);

}  // namespace recwild::dns
