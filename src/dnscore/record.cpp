#include "dnscore/record.hpp"

namespace recwild::dns {

std::string ResourceRecord::to_string() const {
  return name.to_string() + " " + std::to_string(ttl) + " " +
         std::string{dns::to_string(rrclass)} + " " +
         std::string{dns::to_string(type())} + " " + rdata_to_string(rdata);
}

void RRset::append_records(std::vector<ResourceRecord>& out,
                           const Name& owner, Ttl ttl) const {
  for (const auto& rd : rdatas) {
    out.push_back(ResourceRecord{owner, rrclass, ttl, rd});
  }
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> out;
  append_records(out);
  return out;
}

std::vector<RRset> group_rrsets(const std::vector<ResourceRecord>& records) {
  std::vector<RRset> sets;
  for_each_rrset(records,
                 [&sets](RRset&& set) { sets.push_back(std::move(set)); });
  return sets;
}

}  // namespace recwild::dns
