// Authoritative zone storage.
//
// A Zone holds the RRsets of one zone cut, indexed by owner name and type,
// in canonical name order (so delegations and wildcard owners can be found
// by ancestor walks). Mirrors what NSD loads from a master file.
#pragma once

#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dnscore/name_table.hpp"
#include "dnscore/record.hpp"
#include "dnscore/zonefile.hpp"

namespace recwild::authns {

using dns::Name;
using dns::ResourceRecord;
using dns::RRClass;
using dns::RRset;
using dns::RRType;

class Zone {
 public:
  /// An empty zone rooted at `origin`. Records are added with add().
  explicit Zone(Name origin, RRClass rrclass = RRClass::IN);

  // Copies rebuild the interned-name index (it points into names_); moves
  // keep it — std::map moves preserve its nodes, so the pointers survive.
  Zone(const Zone& o);
  Zone& operator=(const Zone& o);
  Zone(Zone&&) noexcept = default;
  Zone& operator=(Zone&&) noexcept = default;

  /// Loads a zone from master-file text. The zone origin is `origin`
  /// unless the text overrides it with $ORIGIN before the first record.
  static Zone from_text(Name origin, std::string_view master_text,
                        dns::Ttl default_ttl = 3600);

  [[nodiscard]] const Name& origin() const noexcept { return origin_; }
  [[nodiscard]] RRClass rrclass() const noexcept { return rrclass_; }

  /// Adds one record to its RRset. An exact duplicate of a record already
  /// there is dropped, as NSD and BIND do on load (RFC 2181 §5); its TTL
  /// still lowers the set's. Throws std::invalid_argument if the owner is
  /// outside the zone or the class mismatches.
  void add(const ResourceRecord& rr);

  /// The RRset at (name, type), or nullptr.
  [[nodiscard]] const RRset* find(const Name& name, RRType type) const;

  /// All RRsets at a name (nullptr if the name has none).
  [[nodiscard]] const std::vector<RRset>* find_all(const Name& name) const;

  /// True if `name` exists in the zone (has any RRset), or is an empty
  /// non-terminal (an existing name descends from it).
  [[nodiscard]] bool name_exists(const Name& name) const;

  /// The zone's SOA RDATA, valid while the zone is unmodified; nullopt for
  /// a zone still being built.
  [[nodiscard]] std::optional<dns::RdataView> soa() const;
  /// SOA negative-caching TTL (minimum field), per RFC 2308.
  [[nodiscard]] dns::Ttl negative_ttl() const;

  /// The apex NS set.
  [[nodiscard]] const RRset* apex_ns() const;

  /// The closest delegation point strictly between the apex and `name`
  /// (exclusive of the apex, inclusive of `name` itself), or nullptr.
  /// A delegation point is a name below the apex owning an NS RRset.
  [[nodiscard]] const RRset* find_delegation(const Name& name) const;

  /// The wildcard RRset that would synthesize `name` with `type`
  /// (RFC 1034 §4.3.3): checks "*.<closest-encloser>". Returns nullptr if
  /// no wildcard applies.
  [[nodiscard]] const RRset* find_wildcard(const Name& name,
                                           RRType type) const;

  /// Glue lookup: appends the A/AAAA records for `target` present in zone
  /// data to `out` (the additional section of referrals and NS answers).
  void append_glue(const Name& target,
                   std::vector<ResourceRecord>& out) const;
  /// append_glue into a fresh vector.
  [[nodiscard]] std::vector<ResourceRecord> glue_for(const Name& target) const;

  /// Sanity checks NSD performs at load: SOA present at apex, at least one
  /// apex NS, CNAME not mixed with other data at a name. Returns a list of
  /// human-readable problems (empty = valid).
  [[nodiscard]] std::vector<std::string> validate() const;

  [[nodiscard]] std::size_t rrset_count() const noexcept;
  [[nodiscard]] std::size_t record_count() const noexcept;

  /// Iteration over owner names in canonical order, for diagnostics.
  [[nodiscard]] std::vector<Name> owner_names() const;

  /// Every record in canonical owner order — the AXFR payload.
  [[nodiscard]] std::vector<ResourceRecord> all_records() const;

 private:
  struct NameCompare {
    bool operator()(const Name& a, const Name& b) const {
      return a.compare(b) < 0;
    }
  };

  void rebuild_index();

  Name origin_;
  RRClass rrclass_;
  std::map<Name, std::vector<RRset>, NameCompare> names_;
  // Exact-match fast path: owner names are interned once at add() time and
  // the per-query lookup is one hash probe + 32-bit id compare instead of
  // an O(log n) walk of label-by-label compares. names_ stays the source
  // of truth (and keeps canonical order for the ancestor/ENT walks).
  dns::NameTable owners_;
  std::unordered_map<std::uint32_t, std::vector<RRset>*> by_ref_;
};

}  // namespace recwild::authns
