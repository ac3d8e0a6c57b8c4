#include "resolver/record_cache.hpp"

#include <algorithm>

#include "obs/names.hpp"

namespace recwild::resolver {

CacheEntry* RecordCache::find_live(const dns::Name& name, dns::RRType type,
                                   net::SimTime now) {
  auto it = entries_.find(KeyView{name, type});
  if (it == entries_.end()) return nullptr;
  if (it->second.entry.expires_at <= now) {
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    return nullptr;
  }
  touch(it->second);
  return &it->second.entry;
}

void RecordCache::touch(Slot& slot) {
  // splice: O(1) relink, no node alloc/free, no Key copy; slot.lru_pos
  // stays valid (splice never invalidates list iterators).
  lru_.splice(lru_.begin(), lru_, slot.lru_pos);
}

void CacheHit::append_records(std::vector<dns::ResourceRecord>& out) const {
  for (const auto& rd : rrset->rdatas) {
    out.push_back(dns::ResourceRecord{rrset->name, rrset->rrclass, ttl, rd});
  }
}

CacheHit RecordCache::get(const dns::Name& name, dns::RRType type,
                          net::SimTime now) {
  CacheEntry* e = find_live(name, type, now);
  if (e == nullptr || e->negative) {
    ++misses_;
    if (obs_misses_ != nullptr) obs_misses_->add(1, now);
    return {};
  }
  ++hits_;
  if (obs_hits_ != nullptr) obs_hits_->add(1, now);
  const double remaining = (e->expires_at - now).sec();
  return {&e->rrset, static_cast<dns::Ttl>(std::max(0.0, remaining))};
}

std::optional<dns::Rcode> RecordCache::get_negative(const dns::Name& name,
                                                    dns::RRType type,
                                                    net::SimTime now) {
  CacheEntry* e = find_live(name, type, now);
  if (e == nullptr || !e->negative) return std::nullopt;
  if (obs_negative_hits_ != nullptr) obs_negative_hits_->add(1, now);
  return e->negative_rcode;
}

const dns::RRset* RecordCache::peek(const dns::Name& name, dns::RRType type,
                                    net::SimTime now) const {
  const auto it = entries_.find(KeyView{name, type});
  if (it == entries_.end()) return nullptr;
  const CacheEntry& e = it->second.entry;
  if (e.expires_at <= now || e.negative) return nullptr;
  return &e.rrset;
}

void RecordCache::put(const dns::RRset& rrset, net::SimTime now) {
  const dns::Ttl ttl =
      std::clamp(rrset.ttl, config_.min_ttl, config_.max_ttl);
  CacheEntry entry;
  entry.rrset = rrset;
  entry.rrset.ttl = ttl;
  entry.expires_at = now + net::Duration::seconds(ttl);
  insert(Key{rrset.name, rrset.type}, std::move(entry), now);
}

void RecordCache::put_negative(const dns::Name& name, dns::RRType type,
                               dns::Rcode rcode, dns::Ttl ttl,
                               net::SimTime now) {
  CacheEntry entry;
  entry.negative = true;
  entry.negative_rcode = rcode;
  entry.rrset.name = name;
  entry.rrset.type = type;
  entry.expires_at =
      now + net::Duration::seconds(
                std::clamp(ttl, config_.min_ttl, config_.max_ttl));
  insert(Key{name, type}, std::move(entry), now);
}

void RecordCache::insert(Key key, CacheEntry entry, net::SimTime now) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.entry = std::move(entry);
    touch(it->second);
    return;
  }
  while (entries_.size() >= config_.max_entries) evict_one(now);
  it = entries_.emplace(std::move(key), Slot{std::move(entry), {}}).first;
  lru_.push_front(&it->first);
  it->second.lru_pos = lru_.begin();
}

void RecordCache::evict_one(net::SimTime now) {
  if (lru_.empty()) return;
  const Key* victim = lru_.back();
  lru_.pop_back();
  entries_.erase(entries_.find(*victim));
  ++evictions_;
  if (obs_evictions_ != nullptr) obs_evictions_->add(1, now);
}

void RecordCache::attach_metrics(obs::MetricRegistry& registry) {
  obs_hits_ = &registry.counter(obs::names::kRrcacheHits);
  obs_misses_ = &registry.counter(obs::names::kRrcacheMisses);
  obs_negative_hits_ = &registry.counter(obs::names::kRrcacheNegativeHits);
  obs_evictions_ = &registry.counter(obs::names::kRrcacheEvictions);
}

void RecordCache::clear() {
  entries_.clear();
  lru_.clear();
}

}  // namespace recwild::resolver
