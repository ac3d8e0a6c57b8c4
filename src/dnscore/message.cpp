#include "dnscore/message.hpp"

#include <type_traits>

namespace recwild::dns {

std::string Question::to_string() const {
  return qname.to_string() + " " + std::string{dns::to_string(qclass)} + " " +
         std::string{dns::to_string(qtype)};
}

void Message::reset_query(std::uint16_t id, const Name& qname, RRType qtype,
                          RRClass qclass) {
  header = Header{};
  header.id = id;
  questions.clear();
  questions.push_back(Question{qname, qtype, qclass});
  answers.clear();
  authorities.clear();
  additionals.clear();
  edns.reset();
}

void Message::reset_response(const Message& query) {
  if (this != &query) {
    header = query.header;
    questions = query.questions;
  }
  header.qr = true;
  header.ra = false;
  answers.clear();
  authorities.clear();
  additionals.clear();
  edns.reset();
}

void Message::trim(std::size_t max_records) {
  const auto release = [max_records](auto& section) {
    if (section.capacity() > max_records) {
      std::remove_reference_t<decltype(section)>{}.swap(section);
    }
  };
  release(questions);
  release(answers);
  release(authorities);
  release(additionals);
}

Message Message::make_query(std::uint16_t id, const Name& qname, RRType qtype,
                            RRClass qclass) {
  Message m;
  m.reset_query(id, qname, qtype, qclass);
  return m;
}

Message Message::make_response(const Message& query) {
  Message m;
  m.reset_response(query);
  return m;
}

std::string Message::to_string() const {
  std::string out;
  out += ";; opcode: " + std::string{dns::to_string(header.opcode)};
  out += ", rcode: " + std::string{dns::to_string(header.rcode)};
  out += ", id: " + std::to_string(header.id) + "\n;; flags:";
  if (header.qr) out += " qr";
  if (header.aa) out += " aa";
  if (header.tc) out += " tc";
  if (header.rd) out += " rd";
  if (header.ra) out += " ra";
  out += "\n";
  if (edns) {
    out += ";; EDNS: version " + std::to_string(edns->version) + ", udp " +
           std::to_string(edns->udp_payload_size) + "\n";
  }
  out += ";; QUESTION:\n";
  for (const auto& q : questions) out += ";  " + q.to_string() + "\n";
  auto section = [&out](const char* title,
                        const std::vector<ResourceRecord>& rrs) {
    if (rrs.empty()) return;
    out += std::string{";; "} + title + ":\n";
    for (const auto& rr : rrs) out += rr.to_string() + "\n";
  };
  section("ANSWER", answers);
  section("AUTHORITY", authorities);
  section("ADDITIONAL", additionals);
  return out;
}

}  // namespace recwild::dns
