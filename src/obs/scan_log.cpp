#include "obs/scan_log.hpp"

#include <cctype>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace recwild::obs {

namespace {

/// LEB128: seven bits a byte, low bits first, high bit set on all but the
/// last byte.
std::size_t varint_size(std::size_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

char* put_varint(char* out, std::size_t v) noexcept {
  while (v >= 0x80) {
    *out++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

const char* get_varint(const char* in, std::size_t& v) noexcept {
  v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const auto b = static_cast<unsigned char>(*in++);
    v |= static_cast<std::size_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return in;
  }
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Strict single-line parser for exactly the shape write_scan_rows emits.
/// Anything else — reordered keys, missing fields, trailing bytes — is an
/// error; a scan fixture is a format contract, not general JSON.
class RowParser {
 public:
  RowParser(std::string_view line, std::size_t line_no)
      : line_(line), line_no_(line_no) {}

  ScanRow parse() {
    ScanRow row;
    expect('{');
    row.index = parse_uint(key("i"));
    expect(',');
    const std::string qname = parse_string(key("qname"));
    if (qname.size() > std::numeric_limits<std::uint16_t>::max()) {
      fail("qname longer than 65535 bytes");
    }
    row.set_qname(qname);
    expect(',');
    const std::string rcode = parse_string(key("rcode"));
    if (rcode.size() > ShortText::kCapacity) {
      fail("rcode longer than 11 characters");
    }
    row.rcode = rcode;
    expect(',');
    key("answers");
    expect('[');
    std::vector<std::string> answers;
    if (peek() != ']') {
      for (;;) {
        answers.push_back(parse_string("answers element"));
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect(']');
    const std::vector<std::string_view> views(answers.begin(), answers.end());
    row.set_answers(views);
    expect(',');
    row.chain = static_cast<std::uint32_t>(parse_uint(key("chain")));
    expect(',');
    row.sim_ms = parse_double(key("sim_ms"));
    expect(',');
    row.upstream = static_cast<std::uint32_t>(parse_uint(key("upstream")));
    expect(',');
    row.cache_hit = parse_bool(key("cache_hit"));
    expect('}');
    if (pos_ != line_.size()) fail("trailing bytes after row object");
    return row;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error{"scan jsonl line " + std::to_string(line_no_) +
                             ": " + what};
  }
  char peek() const {
    if (pos_ >= line_.size()) fail("unexpected end of line");
    return line_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      fail(std::string{"expected '"} + c + "', got '" + line_[pos_] + "'");
    }
    ++pos_;
  }
  /// Consumes `"name":` and returns the key name (for error context).
  const char* key(const char* name) {
    const std::string want = std::string{"\""} + name + "\":";
    if (line_.substr(pos_, want.size()) != want) {
      fail(std::string{"expected key \""} + name + "\"");
    }
    pos_ += want.size();
    return name;
  }
  std::uint64_t parse_uint(const char* what) {
    if (pos_ >= line_.size() || !std::isdigit(
            static_cast<unsigned char>(line_[pos_]))) {
      fail(std::string{"expected unsigned integer for "} + what);
    }
    std::uint64_t v = 0;
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      v = v * 10 + static_cast<std::uint64_t>(line_[pos_] - '0');
      ++pos_;
    }
    return v;
  }
  double parse_double(const char* what) {
    const std::size_t start = pos_;
    if (pos_ < line_.size() && line_[pos_] == '-') ++pos_;
    while (pos_ < line_.size() &&
           (std::isdigit(static_cast<unsigned char>(line_[pos_])) ||
            line_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) fail(std::string{"expected number for "} + what);
    try {
      return std::stod(std::string{line_.substr(start, pos_ - start)});
    } catch (const std::exception&) {
      fail(std::string{"bad number for "} + what);
    }
  }
  bool parse_bool(const char* what) {
    if (line_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (line_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    fail(std::string{"expected true/false for "} + what);
  }
  std::string parse_string(const char* what) {
    if (peek() != '"') fail(std::string{"expected string for "} + what);
    ++pos_;
    std::string out;
    while (pos_ < line_.size() && line_[pos_] != '"') {
      char c = line_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= line_.size()) fail("unterminated escape");
      const char esc = line_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > line_.size()) fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          if (v > 0xFF) fail("\\u escape beyond latin-1 in scan row");
          out.push_back(static_cast<char>(v));
          break;
        }
        default: fail("unknown escape");
      }
    }
    if (pos_ >= line_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  std::string_view line_;
  std::size_t line_no_;
  std::size_t pos_ = 0;
};

}  // namespace

ShortText& ShortText::operator=(std::string_view s) {
  if (s.size() > kCapacity) {
    throw std::length_error{"ShortText: more than 11 characters"};
  }
  std::memset(chars_, 0, kCapacity);
  std::memcpy(chars_, s.data(), s.size());
  size_ = static_cast<std::uint8_t>(s.size());
  return *this;
}

std::string_view ScanRow::Answers::iterator::operator*() const noexcept {
  std::size_t n = 0;
  const char* p = get_varint(p_, n);
  return {p, n};
}

ScanRow::Answers::iterator& ScanRow::Answers::iterator::operator++() noexcept {
  std::size_t n = 0;
  p_ = get_varint(p_, n) + n;
  return *this;
}

ScanRow::ScanRow(const ScanRow& o)
    : index(o.index),
      sim_ms(o.sim_ms),
      chain(o.chain),
      upstream(o.upstream),
      rcode(o.rcode),
      cache_hit(o.cache_hit),
      qname_size_(o.qname_size_),
      size_(o.size_) {
  if (o.spilled()) {
    char* p = new char[size_];
    std::memcpy(p, o.heap(), size_);
    std::memcpy(buf_, &p, sizeof p);
  } else {
    std::memcpy(buf_, o.buf_, kInlineCapacity);
  }
}

void ScanRow::steal(ScanRow& o) noexcept {
  index = o.index;
  sim_ms = o.sim_ms;
  chain = o.chain;
  upstream = o.upstream;
  rcode = o.rcode;
  cache_hit = o.cache_hit;
  qname_size_ = o.qname_size_;
  size_ = o.size_;
  std::memcpy(buf_, o.buf_, kInlineCapacity);  // text or heap address
  o.qname_size_ = 0;
  o.size_ = 0;
}

void ScanRow::set_qname(std::string_view qname) {
  if (qname.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::length_error{"ScanRow: qname longer than 65535 bytes"};
  }
  rebuild(qname, {text() + qname_size_, size_ - qname_size_}, {});
}

void ScanRow::set_answers(std::span<const std::string_view> answers) {
  rebuild(qname(), {}, answers);
}

void ScanRow::rebuild(std::string_view qname, std::string_view encoded,
                      std::span<const std::string_view> answers) {
  std::size_t size = qname.size() + encoded.size();
  for (const std::string_view a : answers) {
    size += varint_size(a.size()) + a.size();
  }
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"ScanRow: text past 4 GiB"};
  }
  // Build beside the old text: `qname` and `encoded` may point into it.
  char inline_text[kInlineCapacity]{};
  char* const out = size > kInlineCapacity ? new char[size] : inline_text;
  char* p = out;
  if (!qname.empty()) std::memcpy(p, qname.data(), qname.size());
  p += qname.size();
  if (!encoded.empty()) std::memcpy(p, encoded.data(), encoded.size());
  p += encoded.size();
  for (const std::string_view a : answers) {
    p = put_varint(p, a.size());
    if (!a.empty()) std::memcpy(p, a.data(), a.size());
    p += a.size();
  }
  free_heap();
  if (out == inline_text) {
    std::memcpy(buf_, inline_text, kInlineCapacity);
  } else {
    std::memcpy(buf_, &out, sizeof out);
  }
  qname_size_ = static_cast<std::uint16_t>(qname.size());
  size_ = static_cast<std::uint32_t>(size);
}

bool operator==(const ScanRow& a, const ScanRow& b) noexcept {
  return a.index == b.index && a.sim_ms == b.sim_ms && a.chain == b.chain &&
         a.upstream == b.upstream && a.rcode == b.rcode &&
         a.cache_hit == b.cache_hit && a.qname_size_ == b.qname_size_ &&
         std::string_view{a.text(), a.size_} ==
             std::string_view{b.text(), b.size_};
}

void write_scan_rows(std::ostream& out, const std::vector<ScanRow>& rows) {
  std::string buf;
  for (const ScanRow& row : rows) {
    buf.clear();
    buf += "{\"i\":";
    buf += std::to_string(row.index);
    buf += ",\"qname\":";
    append_json_string(buf, row.qname());
    buf += ",\"rcode\":";
    append_json_string(buf, row.rcode);
    buf += ",\"answers\":[";
    bool first = true;
    for (const std::string_view answer : row.answers()) {
      if (!first) buf.push_back(',');
      first = false;
      append_json_string(buf, answer);
    }
    buf += "],\"chain\":";
    buf += std::to_string(row.chain);
    buf += ",\"sim_ms\":";
    {
      char num[32];
      std::snprintf(num, sizeof num, "%.3f", row.sim_ms);
      buf += num;
    }
    buf += ",\"upstream\":";
    buf += std::to_string(row.upstream);
    buf += ",\"cache_hit\":";
    buf += row.cache_hit ? "true" : "false";
    buf += "}\n";
    out << buf;
  }
}

std::vector<ScanRow> read_scan_rows(std::istream& in) {
  std::vector<ScanRow> rows;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    rows.push_back(RowParser{line, line_no}.parse());
  }
  return rows;
}

}  // namespace recwild::obs
