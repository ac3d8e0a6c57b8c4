#include "resolver/record_cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/names.hpp"

namespace recwild::resolver {

std::uint32_t RecordCache::hash_of(const dns::Name& name,
                                   dns::RRType type) noexcept {
  const std::uint64_t h =
      name.hash() ^ (static_cast<std::uint64_t>(type) * 0x9e3779b9u);
  // Fibonacci mixing; the top bits feed home(), so keep the high half.
  return static_cast<std::uint32_t>((h * 0x9e3779b97f4a7c15ull) >> 32);
}

std::size_t RecordCache::find(const dns::Name& name, dns::RRType type,
                              std::uint32_t hash) const noexcept {
  if (index_.empty()) return kNotFound;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(hash);; i = (i + 1) & mask) {
    const Bucket& b = index_[i];
    if (b.slot == kNone) return kNotFound;
    if (b.hash == hash) {
      const dns::RRset& key = slot(b.slot).entry.rrset;
      if (key.type == type && key.name == name) return i;
    }
  }
}

CacheEntry* RecordCache::find_live(const dns::Name& name, dns::RRType type,
                                   net::SimTime now) {
  const std::size_t pos = find(name, type, hash_of(name, type));
  if (pos == kNotFound) return nullptr;
  const SlotId id = index_[pos].slot;
  if (slot(id).entry.expires_at <= now) {
    erase_at(pos);
    return nullptr;
  }
  touch(id);
  return &slot(id).entry;
}

void RecordCache::touch(SlotId id) {
  if (lru_head_ == id) return;
  unlink(id);
  link_front(id);
}

void RecordCache::link_front(SlotId id) {
  Slot& s = slot(id);
  s.prev = kNone;
  s.next = lru_head_;
  if (lru_head_ != kNone) slot(lru_head_).prev = id;
  lru_head_ = id;
  if (lru_tail_ == kNone) lru_tail_ = id;
}

void RecordCache::unlink(SlotId id) {
  const Slot& s = slot(id);
  (s.prev != kNone ? slot(s.prev).next : lru_head_) = s.next;
  (s.next != kNone ? slot(s.next).prev : lru_tail_) = s.prev;
}

void CacheHit::append_records(std::vector<dns::ResourceRecord>& out) const {
  rrset->append_records(out, rrset->name, ttl);
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
  const std::size_t pos = find(name, type, hash_of(name, type));
  if (pos == kNotFound) return nullptr;
  const CacheEntry& e = slot(index_[pos].slot).entry;
  if (e.expires_at <= now || e.negative) return nullptr;
  return &e.rrset;
}

void RecordCache::put(dns::RRset rrset, net::SimTime now) {
  const dns::Ttl ttl =
      std::clamp(rrset.ttl, config_.min_ttl, config_.max_ttl);
  CacheEntry entry;
  entry.rrset = std::move(rrset);
  entry.rrset.ttl = ttl;
  entry.expires_at = now + net::Duration::seconds(ttl);
  insert(std::move(entry), now);
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
  insert(std::move(entry), now);
}

void RecordCache::insert(CacheEntry entry, net::SimTime now) {
  const dns::RRset& key = entry.rrset;
  const std::uint32_t hash = hash_of(key.name, key.type);
  const std::size_t pos = find(key.name, key.type, hash);
  if (pos != kNotFound) {
    const SlotId id = index_[pos].slot;
    slot(id).entry = std::move(entry);
    touch(id);
    return;
  }
  if (size_ >= sweep_at_) sweep(now);
  while (size_ >= config_.max_entries && lru_tail_ != kNone) evict_one(now);

  SlotId id = free_head_;
  if (id != kNone) {
    free_head_ = slot(id).next;
  } else {
    if (slots_used_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    id = slots_used_++;
  }
  Slot& s = slot(id);
  s.entry = std::move(entry);
  s.hash = hash;
  link_front(id);
  if ((size_ + 1) * 4 > index_.size() * 3) grow_index();
  place(id, hash);
  ++size_;
}

void RecordCache::place(SlotId id, std::uint32_t hash) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(hash);
  while (index_[i].slot != kNone) i = (i + 1) & mask;
  index_[i] = Bucket{id, hash};
}

void RecordCache::grow_index() {
  std::vector<Bucket> old = std::move(index_);
  index_.assign(old.empty() ? 16 : old.size() * 2, Bucket{});
  shift_ = 32u - static_cast<unsigned>(std::countr_zero(index_.size()));
  for (const Bucket& b : old) {
    if (b.slot != kNone) place(b.slot, b.hash);
  }
}

void RecordCache::erase_at(std::size_t pos) {
  const SlotId id = index_[pos].slot;
  // Backward-shift deletion: pull each later bucket of the probe run into
  // the hole when the hole lies between its home and its position.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (pos + 1) & mask; index_[j].slot != kNone;
       j = (j + 1) & mask) {
    if (((j - home(index_[j].hash)) & mask) >= ((j - pos) & mask)) {
      index_[pos] = index_[j];
      pos = j;
    }
  }
  index_[pos] = Bucket{};

  unlink(id);
  Slot& s = slot(id);
  s.entry = CacheEntry{};
  s.next = free_head_;
  free_head_ = id;
  --size_;
}

std::size_t RecordCache::pos_of(SlotId id) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(slot(id).hash);
  while (index_[pos].slot != id) pos = (pos + 1) & mask;
  return pos;
}

void RecordCache::evict_one(net::SimTime now) {
  erase_at(pos_of(lru_tail_));
  ++evictions_;
  if (obs_evictions_ != nullptr) obs_evictions_->add(1, now);
}

void RecordCache::sweep(net::SimTime now) {
  for (SlotId id = lru_head_; id != kNone;) {
    const SlotId next = slot(id).next;  // erase_at relinks the slot
    if (slot(id).entry.expires_at <= now) erase_at(pos_of(id));
    id = next;
  }
  sweep_at_ = std::max(kMinSweepAt, 2 * size_);
}

void RecordCache::attach_metrics(obs::MetricRegistry& registry) {
  obs_hits_ = &registry.counter(obs::names::kRrcacheHits);
  obs_misses_ = &registry.counter(obs::names::kRrcacheMisses);
  obs_negative_hits_ = &registry.counter(obs::names::kRrcacheNegativeHits);
  obs_evictions_ = &registry.counter(obs::names::kRrcacheEvictions);
}

std::size_t RecordCache::bytes() const noexcept {
  std::size_t n = chunks_.capacity() * sizeof(chunks_[0]) +
                  chunks_.size() * kChunkSlots * sizeof(Slot) +
                  index_.capacity() * sizeof(Bucket);
  for_each_entry([&n](const CacheEntry& e) {
    if (e.rrset.name.spilled()) n += e.rrset.name.wire().size();
    if (e.rrset.block.spilled()) n += e.rrset.block.bytes().size();
  });
  return n;
}

void RecordCache::clear() {
  chunks_.clear();
  slots_used_ = 0;
  index_ = std::vector<Bucket>{};
  shift_ = 32;
  size_ = 0;
  sweep_at_ = kMinSweepAt;
  free_head_ = lru_head_ = lru_tail_ = kNone;
}

}  // namespace recwild::resolver
