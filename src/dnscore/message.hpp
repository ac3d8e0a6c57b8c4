// DNS message (RFC 1035 §4.1): header, question, answer/authority/additional
// sections, plus first-class EDNS0 (RFC 6891) so the OPT pseudo-record's
// packed fields don't leak into user code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/record.hpp"

namespace recwild::dns {

struct Question {
  Name qname;
  RRType qtype = RRType::A;
  RRClass qclass = RRClass::IN;

  bool operator==(const Question&) const = default;
  [[nodiscard]] std::string to_string() const;
};

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::Query;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  Rcode rcode = Rcode::NoError;

  bool operator==(const Header&) const = default;
};

/// EDNS0 state carried by an OPT record in the additional section.
struct EdnsInfo {
  std::uint16_t udp_payload_size = 1232;
  std::uint8_t extended_rcode = 0;
  std::uint8_t version = 0;
  bool dnssec_ok = false;
  OptRdata options;

  bool operator==(const EdnsInfo&) const = default;
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;  // excluding OPT
  std::optional<EdnsInfo> edns;

  /// Convenience: the first (and in practice only) question.
  [[nodiscard]] const Question& question() const { return questions.at(0); }

  /// Makes this message a query with one question, RD clear (iterative by
  /// default — recursive-to-authoritative traffic is what this library
  /// simulates) and no EDNS. Keeps the capacity of the sections, so a
  /// node's reused transmit message builds queries without allocating.
  void reset_query(std::uint16_t id, const Name& qname, RRType qtype,
                   RRClass qclass = RRClass::IN);

  /// Makes this message a response skeleton echoing `query`'s
  /// id/question/opcode, with empty sections and no EDNS; keeps capacity.
  void reset_response(const Message& query);

  /// Releases the storage of each section with room for more than
  /// `max_records` records, so a reused message does not keep the largest
  /// message it ever held.
  void trim(std::size_t max_records);

  /// reset_query on a fresh Message.
  static Message make_query(std::uint16_t id, const Name& qname,
                            RRType qtype, RRClass qclass = RRClass::IN);

  /// reset_response on a fresh Message.
  static Message make_response(const Message& query);

  /// Multi-line dig-style rendering for logs and examples.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Message&) const = default;
};

}  // namespace recwild::dns
