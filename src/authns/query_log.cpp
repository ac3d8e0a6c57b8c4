#include "authns/query_log.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "dnscore/wire.hpp"

namespace recwild::authns {

std::size_t QueryLog::chunk_records(std::size_t chunk) noexcept {
  return std::size_t{1} << (kFirstRecordsShift +
                            std::min(chunk, kDoublingChunks));
}

std::pair<std::size_t, std::size_t> QueryLog::locate(std::size_t i) noexcept {
  constexpr std::size_t first = std::size_t{1} << kFirstRecordsShift;
  constexpr std::size_t cap = std::size_t{1} << kMaxRecordsShift;
  if (i < cap - first) {
    // Chunk k holds records [first·(2^k − 1), first·(2^(k+1) − 1)), so
    // i + first lies in [first·2^k, first·2^(k+1)).
    const std::size_t j = i + first;
    const std::size_t k = std::bit_width(j) - 1 - kFirstRecordsShift;
    return {k, j - (first << k)};
  }
  const std::size_t j = i - (cap - first);
  return {kDoublingChunks + j / cap, j % cap};
}

void QueryLog::record(const QueryLogEntry& entry) {
  ++total_;
  ++per_client_[entry.client];
  if (!retain_entries_) return;
  const auto [chunk, offset] = locate(size_);
  if (chunk == records_.size()) {
    records_.push_back(
        std::make_unique_for_overwrite<Record[]>(chunk_records(chunk)));
  }
  records_[chunk][offset] =
      Record{entry.at.count_micros(), store_name(entry.qname),
             entry.client.bits(), entry.qtype,
             static_cast<std::uint8_t>(entry.qname.wire_length())};
  ++size_;
}

const std::uint8_t* QueryLog::store_name(const dns::Name& name) {
  const std::size_t n = name.wire_length();
  if (names_.empty() || name_used_ + n > name_chunk_) {
    name_chunk_ = names_.empty() ? kFirstNameChunk
                                 : std::min(name_chunk_ * 2, kMaxNameChunk);
    names_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(name_chunk_));
    name_used_ = 0;
  }
  std::uint8_t* dst = names_.back().get() + name_used_;
  const auto wire = name.wire();
  std::memcpy(dst, wire.data(), wire.size());
  dst[wire.size()] = 0;  // root
  name_used_ += n;
  return dst;
}

QueryLogEntry QueryLog::entry(std::size_t i) const {
  const auto [chunk, offset] = locate(i);
  const Record& r = records_[chunk][offset];
  dns::WireReader reader{{r.qname, r.qname_length}};
  return QueryLogEntry{net::SimTime::from_micros(r.at_us),
                       net::IpAddress{r.client}, reader.name(), r.qtype};
}

std::size_t QueryLog::bytes() const noexcept {
  std::size_t n = records_.capacity() * sizeof(records_[0]) +
                  names_.capacity() * sizeof(names_[0]);
  for (std::size_t k = 0; k < records_.size(); ++k) {
    n += chunk_records(k) * sizeof(Record);
  }
  for (std::size_t k = 0, chunk = kFirstNameChunk; k < names_.size(); ++k) {
    n += chunk;
    chunk = std::min(chunk * 2, kMaxNameChunk);
  }
  // A node holds its value, the next pointer and the cached hash.
  n += per_client_.bucket_count() * sizeof(void*) +
       per_client_.size() *
           (sizeof(decltype(per_client_)::value_type) + 2 * sizeof(void*));
  return n;
}

void QueryLog::clear() {
  records_.clear();
  size_ = 0;
  names_.clear();
  name_chunk_ = name_used_ = 0;
  per_client_.clear();
  total_ = 0;
}

}  // namespace recwild::authns
