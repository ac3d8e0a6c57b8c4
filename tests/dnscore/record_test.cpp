#include "dnscore/record.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "dnscore/codec.hpp"

namespace recwild::dns {
namespace {

ResourceRecord a_record(const char* name, std::uint32_t ip, Ttl ttl = 60) {
  return ResourceRecord{Name::parse(name), RRClass::IN, ttl,
                        ARdata{net::IpAddress{ip}}};
}

std::vector<RRset> group(const std::vector<ResourceRecord>& records) {
  std::vector<RRset> sets;
  for_each_rrset(records,
                 [&sets](RRset&& set) { sets.push_back(std::move(set)); });
  return sets;
}

/// The uncompressed wire form of `rdata`.
std::vector<std::uint8_t> wire_of(const Rdata& rdata) {
  const ResourceRecord rr{Name{}, RRClass::IN, 0, rdata};
  return {rr.rdata().wire().begin(), rr.rdata().wire().end()};
}

RRset set_of(RRType type, std::initializer_list<Rdata> rdatas) {
  RRset set{Name::parse("x.nl"), RRClass::IN, type, 60, {}};
  for (const Rdata& rd : rdatas) set.add(wire_of(rd));
  return set;
}

std::vector<std::uint8_t> name_wire(const Name& name) {
  std::vector<std::uint8_t> out{name.wire().begin(), name.wire().end()};
  out.push_back(0);
  return out;
}

TEST(Record, TypeComesFromRdata) {
  EXPECT_EQ(a_record("x.nl", 1).type(), RRType::A);
  const ResourceRecord txt{Name::parse("x.nl"), RRClass::IN, 5,
                           TxtRdata{{"v"}}};
  EXPECT_EQ(txt.type(), RRType::TXT);
  EXPECT_EQ(txt.rdata().type(), RRType::TXT);
  EXPECT_EQ(txt.rdata().wire().size(), 2u);
}

TEST(Record, SoaWithTwoLongInlineNamesStaysInline) {
  // Two names of Name's full inline size (38 label octets, 39 on the wire).
  const Name mname = Name::parse(std::string(34, 'm') + ".nl");
  const Name rname = Name::parse(std::string(34, 'r') + ".nl");
  ASSERT_FALSE(mname.spilled());
  ASSERT_EQ(mname.wire_length(), 39u);
  const std::uint64_t before = RecordRdata::heap_spills();
  const ResourceRecord soa{Name::parse("nl"), RRClass::IN, 60,
                           SoaRdata{mname, rname, 1, 2, 3, 4, 5}};
  EXPECT_FALSE(soa.spilled());
  EXPECT_EQ(soa.rdata().wire().size(), 98u);
  EXPECT_EQ(RecordRdata::heap_spills(), before);
}

TEST(Record, ToStringIsPresentationLine) {
  const auto rr = a_record("www.example.nl", 0x0a000001, 300);
  EXPECT_EQ(rr.to_string(), "www.example.nl. 300 IN A 10.0.0.1");
}

TEST(RRset, ToRecordsExpandsAll) {
  const RRset set = set_of(
      RRType::A, {ARdata{net::IpAddress{1}}, ARdata{net::IpAddress{2}}});
  std::vector<ResourceRecord> records;
  set.append_records(records);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].ttl, 60u);
  EXPECT_EQ(records[0].name, set.name);
  EXPECT_EQ(records[0], a_record("x.nl", 1));
  EXPECT_EQ(records[1], a_record("x.nl", 2));
}

TEST(RRset, ViewsReadTypedFields) {
  EXPECT_EQ(set_of(RRType::A, {ARdata{net::IpAddress{0x0a000001}}})
                .front()
                .a(),
            net::IpAddress{0x0a000001});
  AaaaRdata aaaa;
  aaaa.address[15] = 7;
  EXPECT_EQ(set_of(RRType::AAAA, {aaaa}).front().aaaa(), aaaa.address);
  EXPECT_EQ(set_of(RRType::CNAME, {CnameRdata{Name::parse("t.example")}})
                .front()
                .target(),
            Name::parse("t.example"));
  SoaRdata soa{Name::parse("ns.x.nl"), Name::parse("h.x.nl"), 1, 2, 3, 4,
               300};
  const RRset soa_set = set_of(RRType::SOA, {soa});
  EXPECT_EQ(soa_set.front().soa_minimum(), 300u);
  EXPECT_EQ(soa_set.front().soa_serial(), 1u);
  EXPECT_EQ(rdata_to_string(soa_set.front()), "ns.x.nl. h.x.nl. 1 2 3 4 300");
}

TEST(RRset, DropsExactDuplicates) {
  RRset set = set_of(RRType::A, {ARdata{net::IpAddress{1}}});
  EXPECT_FALSE(set.add(wire_of(ARdata{net::IpAddress{1}})));
  EXPECT_TRUE(set.add(wire_of(ARdata{net::IpAddress{2}})));
  EXPECT_EQ(set.size(), 2u);
}

TEST(RRset, OneTxtAndOneAddressStayInline) {
  EXPECT_FALSE(set_of(RRType::TXT, {TxtRdata{{"FRA"}}}).block.spilled());
  EXPECT_FALSE(
      set_of(RRType::A, {ARdata{net::IpAddress{1}}}).block.spilled());
  EXPECT_LE(sizeof(RRset), 80u);
}

TEST(RRset, EmptyRdataIsOneEntry) {
  const RRset set = set_of(RRType::TXT, {TxtRdata{}});
  EXPECT_FALSE(set.empty());
  ASSERT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.front().wire().empty());
  EXPECT_EQ(set.front().txt().begin(), set.front().txt().end());
}

TEST(RRset, BlockPastInlineCapacitySpillsOnce) {
  const std::uint64_t before = RdataBlock::heap_spills();
  // Four A records take 4 x (2 + 4) = 24 bytes, past the 22 inline.
  const RRset set =
      set_of(RRType::A, {ARdata{net::IpAddress{1}}, ARdata{net::IpAddress{2}},
                         ARdata{net::IpAddress{3}}});
  EXPECT_FALSE(set.block.spilled());
  RRset big = set;
  big.add(wire_of(ARdata{net::IpAddress{4}}));
  EXPECT_TRUE(big.block.spilled());
  EXPECT_EQ(RdataBlock::heap_spills() - before, 1u);
  const RRset copy = big;  // a deep copy of the heap block
  EXPECT_NE(copy.block.bytes().data(), big.block.bytes().data());
  EXPECT_TRUE(std::ranges::equal(copy.block.bytes(), big.block.bytes()));
  std::uint32_t ip = 1;
  for (const RdataView rd : copy) EXPECT_EQ(rd.a(), net::IpAddress{ip++});
  EXPECT_EQ(ip, 5u);
}

TEST(RRset, HoldsA65535OctetRdata) {
  RawRdata raw{0xff00, std::vector<std::uint8_t>(65'535, 0xab)};
  const RRset set = set_of(static_cast<RRType>(0xff00), {raw});
  EXPECT_TRUE(set.block.spilled());
  EXPECT_EQ(set.block.bytes().size(), 65'537u);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(set.front().wire(), raw.data));
  raw.data.push_back(0);
  EXPECT_THROW(wire_of(raw), WireError);
  RRset over{Name::parse("x.nl"), RRClass::IN, static_cast<RRType>(0xff00),
             60, {}};
  EXPECT_THROW(over.add(raw.data), WireError);
  EXPECT_TRUE(over.empty());
}

TEST(RRset, CompressedNsTargetIsStoredUncompressed) {
  std::ifstream in{std::string{RECWILD_GOLDEN_DIR} +
                       "/ns_referral_compressed.bin",
                   std::ios::binary};
  const std::vector<std::uint8_t> wire{std::istreambuf_iterator<char>(in),
                                       std::istreambuf_iterator<char>()};
  const Message m = decode_message(wire);
  const std::vector<RRset> sets = group(m.authorities);
  ASSERT_EQ(sets.size(), 1u);
  ASSERT_EQ(sets[0].size(), 2u);
  EXPECT_TRUE(std::ranges::equal(sets[0].front().wire(),
                                 name_wire(Name::parse("ns1.example.nl"))));
  EXPECT_TRUE(std::ranges::equal((*std::next(sets[0].begin())).wire(),
                                 name_wire(Name::parse("ns2.example.nl"))));
}

TEST(RRset, CaseIsPreserved) {
  const RRset set =
      set_of(RRType::NS, {NsRdata{Name::parse("NS1.Example.NL")}});
  EXPECT_EQ(set.front().target().to_string(), "NS1.Example.NL.");
  std::vector<ResourceRecord> out;
  set.append_records(out);
  EXPECT_EQ(out[0].to_string(), "x.nl. 60 IN NS NS1.Example.NL.");
}

TEST(GroupRRsets, GroupsByNameAndType) {
  const std::vector<ResourceRecord> records{
      a_record("a.nl", 1),
      a_record("a.nl", 2),
      a_record("b.nl", 3),
      {Name::parse("a.nl"), RRClass::IN, 60, TxtRdata{{"t"}}},
  };
  const auto sets = group(records);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0].size(), 2u);  // two A records at a.nl
  EXPECT_EQ(sets[1].size(), 1u);
  EXPECT_EQ(sets[2].type, RRType::TXT);
}

TEST(GroupRRsets, MixedTtlNormalizedToMinimum) {
  const std::vector<ResourceRecord> records{
      a_record("a.nl", 1, 300),
      a_record("a.nl", 2, 100),
  };
  const auto sets = group(records);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].ttl, 100u);
}

TEST(GroupRRsets, CaseInsensitiveOwnerMatch) {
  const std::vector<ResourceRecord> records{
      a_record("A.NL", 1),
      a_record("a.nl", 2),
  };
  EXPECT_EQ(group(records).size(), 1u);
}

TEST(GroupRRsets, EmptyInput) { EXPECT_TRUE(group({}).empty()); }

TEST(GroupRRsets, PreservesFirstSeenOrder) {
  const std::vector<ResourceRecord> records{
      a_record("z.nl", 1),
      a_record("a.nl", 2),
  };
  const auto sets = group(records);
  EXPECT_EQ(sets[0].name, Name::parse("z.nl"));
  EXPECT_EQ(sets[1].name, Name::parse("a.nl"));
}

}  // namespace
}  // namespace recwild::dns
