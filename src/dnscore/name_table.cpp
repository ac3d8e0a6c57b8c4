#include "dnscore/name_table.hpp"

#include <algorithm>

namespace recwild::dns {

namespace {
constexpr std::size_t kInitialSlots = 16;  // power of two
}

NameRef NameTable::intern(const Name& name) {
  if (slots_.empty()) {
    slots_.assign(kInitialSlots, 0);
  } else if ((names_.size() + 1) * 4 > slots_.size() * 3) {
    grow();
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = name.hash() & mask;
  while (slots_[idx] != 0) {
    const std::uint32_t id = slots_[idx] - 1;
    if (names_[id].equals(name)) return NameRef{id};
    idx = (idx + 1) & mask;
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  slots_[idx] = id + 1;
  return NameRef{id};
}

std::optional<NameRef> NameTable::find(const Name& name) const {
  if (slots_.empty()) return std::nullopt;
  const std::size_t mask = slots_.size() - 1;
  std::size_t idx = name.hash() & mask;
  while (slots_[idx] != 0) {
    const std::uint32_t id = slots_[idx] - 1;
    if (names_[id].equals(name)) return NameRef{id};
    idx = (idx + 1) & mask;
  }
  return std::nullopt;
}

void NameTable::clear() noexcept {
  names_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void NameTable::grow() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint32_t s : old) {
    if (s == 0) continue;
    std::size_t idx = names_[s - 1].hash() & mask;  // hash is cached
    while (slots_[idx] != 0) idx = (idx + 1) & mask;
    slots_[idx] = s;
  }
}

}  // namespace recwild::dns
