#include "dnscore/record.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>

namespace recwild::dns {

namespace {

std::atomic<std::uint64_t> g_block_heap_spills{0};

}  // namespace

std::string ResourceRecord::to_string() const {
  return name.to_string() + " " + std::to_string(ttl) + " " +
         std::string{dns::to_string(rrclass)} + " " +
         std::string{dns::to_string(type())} + " " + rdata_to_string(rdata);
}

Name RdataView::target() const {
  WireReader r{wire_};
  return r.name();
}

Rdata RdataView::to_rdata() const {
  WireReader r{wire_};
  return decode_rdata(r, type_, wire_.size());
}

std::uint8_t* RdataBlock::allocate(std::size_t size) {
  g_block_heap_spills.fetch_add(1, std::memory_order_relaxed);
  return new std::uint8_t[size];
}

std::uint64_t RdataBlock::heap_spills() noexcept {
  return g_block_heap_spills.load(std::memory_order_relaxed);
}

void RdataBlock::append(std::span<const std::uint8_t> entries) {
  if (entries.empty()) return;
  const std::span<const std::uint8_t> old = bytes();
  const std::size_t size = old.size() + entries.size();
  if (size <= kInlineCapacity) {
    std::memcpy(buf_ + size_, entries.data(), entries.size());
    size_ = static_cast<std::uint16_t>(size);
    return;
  }
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"RdataBlock: block exceeds 4 GiB"};
  }
  std::uint8_t* block = allocate(size);
  std::memcpy(block, old.data(), old.size());
  std::memcpy(block + old.size(), entries.data(), entries.size());
  free_heap();
  set_heap(block, static_cast<std::uint32_t>(size));
}

void write_block_entry(WireWriter& w, const Rdata& rdata) {
  const std::size_t length_at = w.size();
  w.u16(0);  // placeholder
  encode_rdata(w, rdata);
  const std::size_t length = w.size() - length_at - 2;
  if (length > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError{"RDATA too long"};
  }
  w.patch_u16(length_at, static_cast<std::uint16_t>(length));
}

bool RRset::add(const Rdata& rdata) {
  WireWriter w{/*compress=*/false};
  write_block_entry(w, rdata);
  const std::span<const std::uint8_t> entry{w.data()};
  const std::span<const std::uint8_t> wire = entry.subspan(2);
  for (const RdataView rd : *this) {
    if (std::ranges::equal(rd.wire(), wire)) return false;
  }
  block.append(entry);
  return true;
}

void RRset::append_records(std::vector<ResourceRecord>& out,
                           const Name& owner, Ttl ttl) const {
  for (const RdataView rd : *this) {
    out.push_back(ResourceRecord{owner, rrclass, ttl, rd.to_rdata()});
  }
}

}  // namespace recwild::dns
