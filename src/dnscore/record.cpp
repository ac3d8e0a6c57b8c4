#include "dnscore/record.hpp"

namespace recwild::dns {

ResourceRecord::ResourceRecord(Name name, RRClass rrclass, Ttl ttl,
                               const Rdata& rdata)
    : name(std::move(name)),
      rrclass(rrclass),
      ttl(ttl),
      type_(rdata_type(rdata)) {
  WireWriter w{/*compress=*/false};
  encode_rdata(w, rdata);
  if (w.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError{"RDATA too long"};
  }
  rdata_.assign(w.data());
}

std::string ResourceRecord::to_string() const {
  return name.to_string() + " " + std::to_string(ttl) + " " +
         std::string{dns::to_string(rrclass)} + " " +
         std::string{dns::to_string(type_)} + " " + rdata_to_string(rdata());
}

bool RRset::add(std::span<const std::uint8_t> wire) {
  if (wire.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError{"RDATA too long"};
  }
  for (const RdataView rd : *this) {
    if (std::ranges::equal(rd.wire(), wire)) return false;
  }
  put_entry(block.extend(2 + wire.size()), wire);
  return true;
}

void RRset::append_records(std::vector<ResourceRecord>& out,
                           const Name& owner, Ttl ttl) const {
  for (const RdataView rd : *this) {
    out.emplace_back(owner, type, rrclass, ttl, rd.wire());
  }
}

}  // namespace recwild::dns
