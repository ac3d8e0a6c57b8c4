// Interned domain names.
//
// A NameTable assigns every distinct name (case-insensitively, matching
// Name::equals) a dense 32-bit id. Hot paths that repeatedly compare the
// same names — zone exact-match lookups, matching upstream responses to
// outstanding queries — intern once and then compare NameRef ids instead
// of walking label vectors. Tables are plain members of whatever owns the
// hot path (a Zone, a resolver); there is deliberately no global table, so
// ids never cross threads and shard workers stay independent.
//
// Storage is a dense Name vector plus a flat open-addressed id index (no
// node allocations, one Name copy per distinct name ever).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dnscore/name.hpp"

namespace recwild::dns {

/// Dense id of an interned name, valid only within the issuing NameTable.
struct NameRef {
  std::uint32_t value = 0;
  friend bool operator==(NameRef, NameRef) noexcept = default;
};

class NameTable {
 public:
  /// The id for `name`, interning it on first sight. Case-insensitive:
  /// names equal under Name::equals share one id.
  NameRef intern(const Name& name);

  /// The id for `name` if already interned; nullopt otherwise. Lookup-only
  /// (query-side callers must not grow the table with miss garbage).
  [[nodiscard]] std::optional<NameRef> find(const Name& name) const;

  /// The canonical (first-interned) spelling behind an id.
  [[nodiscard]] const Name& name(NameRef ref) const {
    return names_.at(ref.value);
  }

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  /// Forgets every name (ids restart at 0) but keeps the storage, so
  /// refilling the table up to its old size allocates nothing.
  void clear() noexcept;

 private:
  void grow();

  std::vector<Name> names_;
  /// Open-addressed probe table of id+1 (0 = empty slot), hashed by
  /// Name::hash, linear probing, kept under 75% load.
  std::vector<std::uint32_t> slots_;
};

}  // namespace recwild::dns
