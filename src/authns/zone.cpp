#include "authns/zone.hpp"

#include <algorithm>
#include <stdexcept>

namespace recwild::authns {

Zone::Zone(Name origin, RRClass rrclass)
    : origin_(std::move(origin)), rrclass_(rrclass) {}

Zone::Zone(const Zone& o)
    : origin_(o.origin_), rrclass_(o.rrclass_), names_(o.names_) {
  rebuild_index();
}

Zone& Zone::operator=(const Zone& o) {
  if (this != &o) {
    origin_ = o.origin_;
    rrclass_ = o.rrclass_;
    names_ = o.names_;
    rebuild_index();
  }
  return *this;
}

void Zone::rebuild_index() {
  owners_ = dns::NameTable{};
  by_ref_.clear();
  for (auto& [name, sets] : names_) {
    by_ref_[owners_.intern(name).value] = &sets;
  }
}

Zone Zone::from_text(Name origin, std::string_view master_text,
                     dns::Ttl default_ttl) {
  dns::ZoneFileOptions opts;
  opts.origin = origin;
  opts.default_ttl = default_ttl;
  Zone zone{std::move(origin)};
  for (const auto& rr : dns::parse_zone_text(master_text, opts)) {
    zone.add(rr);
  }
  return zone;
}

void Zone::add(const ResourceRecord& rr) {
  if (!rr.name.is_subdomain_of(origin_)) {
    throw std::invalid_argument{"Zone::add: " + rr.name.to_string() +
                                " is outside zone " + origin_.to_string()};
  }
  if (rr.rrclass != rrclass_) {
    throw std::invalid_argument{"Zone::add: class mismatch"};
  }
  auto& sets = names_[rr.name];
  by_ref_[owners_.intern(rr.name).value] = &sets;
  const RRType t = rr.type();
  auto it = std::find_if(sets.begin(), sets.end(),
                         [t](const RRset& s) { return s.type == t; });
  if (it == sets.end()) {
    it = sets.insert(it, RRset{rr.name, rr.rrclass, t, rr.ttl, {}});
  }
  it->ttl = std::min(it->ttl, rr.ttl);
  it->add(rr.rdata().wire());  // an exact duplicate is dropped (RFC 2181 §5)
}

const RRset* Zone::find(const Name& name, RRType type) const {
  const std::vector<RRset>* sets = find_all(name);
  if (sets == nullptr) return nullptr;
  for (const auto& s : *sets) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

const std::vector<RRset>* Zone::find_all(const Name& name) const {
  const auto ref = owners_.find(name);
  if (!ref) return nullptr;
  const auto it = by_ref_.find(ref->value);
  return it == by_ref_.end() ? nullptr : it->second;
}

bool Zone::name_exists(const Name& name) const {
  if (owners_.find(name)) return true;
  // Empty non-terminal: any stored name that descends from `name`.
  // names_ is in canonical order, so descendants sort directly after it.
  const auto it = names_.lower_bound(name);
  return it != names_.end() && it->first.is_subdomain_of(name);
}

std::optional<dns::RdataView> Zone::soa() const {
  const RRset* s = find(origin_, RRType::SOA);
  if (s == nullptr || s->empty()) return std::nullopt;
  return s->front();
}

dns::Ttl Zone::negative_ttl() const {
  const RRset* soa_set = find(origin_, RRType::SOA);
  if (soa_set == nullptr || soa_set->empty()) return 300;
  return std::min(soa_set->front().soa_minimum(), soa_set->ttl);
}

const RRset* Zone::apex_ns() const { return find(origin_, RRType::NS); }

const RRset* Zone::find_delegation(const Name& name) const {
  if (!name.is_subdomain_of(origin_)) return nullptr;
  // Walk from just below the apex down towards `name`, looking for NS sets.
  // The shallowest delegation wins (everything below it is cut away).
  const std::size_t apex_labels = origin_.label_count();
  const std::size_t name_labels = name.label_count();
  for (std::size_t depth = apex_labels + 1; depth <= name_labels; ++depth) {
    if (const RRset* ns = find(name.suffix(depth), RRType::NS)) return ns;
  }
  return nullptr;
}

const RRset* Zone::find_wildcard(const Name& name, RRType type) const {
  if (!name.is_subdomain_of(origin_) || name == origin_) return nullptr;
  // Find the closest encloser: longest existing ancestor of `name`.
  Name encloser = name.parent();
  while (encloser.label_count() >= origin_.label_count()) {
    if (name_exists(encloser)) break;
    if (encloser.is_root()) return nullptr;
    encloser = encloser.parent();
  }
  const Name wildcard = encloser.prefixed("*");
  return find(wildcard, type);
}

void Zone::append_glue(const Name& target,
                       std::vector<ResourceRecord>& out) const {
  for (const RRType t : {RRType::A, RRType::AAAA}) {
    if (const RRset* s = find(target, t)) s->append_records(out);
  }
}

std::vector<ResourceRecord> Zone::glue_for(const Name& target) const {
  std::vector<ResourceRecord> out;
  append_glue(target, out);
  return out;
}

std::vector<std::string> Zone::validate() const {
  std::vector<std::string> problems;
  if (!soa()) problems.push_back("missing SOA at apex");
  if (apex_ns() == nullptr || apex_ns()->empty()) {
    problems.push_back("missing NS at apex");
  }
  for (const auto& [name, sets] : names_) {
    bool has_cname = false;
    for (const auto& s : sets) {
      if (s.type == RRType::CNAME) has_cname = true;
    }
    if (has_cname && sets.size() > 1) {
      problems.push_back("CNAME and other data at " + name.to_string());
    }
    for (const auto& s : sets) {
      if (s.type == RRType::CNAME && s.size() > 1) {
        problems.push_back("multiple CNAMEs at " + name.to_string());
      }
    }
  }
  return problems;
}

std::size_t Zone::rrset_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, sets] : names_) n += sets.size();
  return n;
}

std::size_t Zone::record_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, sets] : names_) {
    for (const auto& s : sets) n += s.size();
  }
  return n;
}

std::vector<ResourceRecord> Zone::all_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(record_count());
  for (const auto& [name, sets] : names_) {
    for (const auto& s : sets) s.append_records(out);
  }
  return out;
}

std::vector<Name> Zone::owner_names() const {
  std::vector<Name> out;
  out.reserve(names_.size());
  for (const auto& [name, sets] : names_) out.push_back(name);
  return out;
}

}  // namespace recwild::authns
