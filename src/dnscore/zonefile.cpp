#include "dnscore/zonefile.hpp"

#include <charconv>
#include <cstdint>
#include <optional>

namespace recwild::dns {

namespace {

struct Token {
  std::string text;
  bool quoted = false;
  bool first_on_line = false;  // i.e. appeared in column 0 context
  std::size_t line = 0;
};

/// Tokenizes the whole file: handles comments, quotes, parentheses
/// (line-continuation), and records whether a token starts its logical line.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  /// Returns tokens grouped into logical lines (paren-joined).
  std::vector<std::vector<Token>> lines() {
    std::vector<std::vector<Token>> out;
    std::vector<Token> current;
    bool line_had_leading_ws = false;
    int paren_depth = 0;

    auto flush = [&] {
      if (!current.empty()) {
        out.push_back(std::move(current));
        current.clear();
      }
    };

    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ';') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '\n') {
        ++line_;
        ++pos_;
        if (paren_depth == 0) {
          flush();
          line_had_leading_ws = false;
        }
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        if (current.empty() && paren_depth == 0) line_had_leading_ws = true;
        ++pos_;
        continue;
      }
      if (c == '(') {
        ++paren_depth;
        ++pos_;
        continue;
      }
      if (c == ')') {
        if (paren_depth == 0) {
          throw ZoneParseError{line_, "unbalanced ')'"};
        }
        --paren_depth;
        ++pos_;
        continue;
      }
      Token t;
      t.line = line_;
      t.first_on_line = current.empty() && !line_had_leading_ws &&
                        paren_depth == 0;
      if (c == '"') {
        t.quoted = true;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
          if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
          if (text_[pos_] == '\n') ++line_;
          t.text.push_back(text_[pos_++]);
        }
        if (pos_ >= text_.size()) {
          throw ZoneParseError{t.line, "unterminated quoted string"};
        }
        ++pos_;  // closing quote
      } else {
        while (pos_ < text_.size()) {
          const char d = text_[pos_];
          if (d == ' ' || d == '\t' || d == '\r' || d == '\n' || d == ';' ||
              d == '(' || d == ')' || d == '"') {
            break;
          }
          t.text.push_back(d);
          ++pos_;
        }
      }
      current.push_back(std::move(t));
    }
    if (paren_depth != 0) throw ZoneParseError{line_, "unbalanced '('"};
    flush();
    return out;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

std::optional<std::uint32_t> parse_u32(std::string_view s) {
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// TTL with optional unit suffix (s/m/h/d/w), e.g. "2h", "1d".
std::optional<Ttl> parse_ttl(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t mult = 1;
  const char last = s.back();
  if (last < '0' || last > '9') {
    switch (last | 0x20) {
      case 's': mult = 1; break;
      case 'm': mult = 60; break;
      case 'h': mult = 3600; break;
      case 'd': mult = 86400; break;
      case 'w': mult = 604800; break;
      default: return std::nullopt;
    }
    s.remove_suffix(1);
  }
  const auto base = parse_u32(s);
  if (!base) return std::nullopt;
  const std::uint64_t ttl = static_cast<std::uint64_t>(*base) * mult;
  if (ttl > 0x7fffffffULL) return std::nullopt;  // RFC 2181 §8
  return static_cast<Ttl>(ttl);
}

Name parse_name_token(const Token& t, const Name& origin) {
  if (t.text == "@") return origin;
  if (!t.text.empty() && t.text.back() == '.') return Name::parse(t.text);
  return Name::parse(t.text).concat(origin);
}

net::IpAddress parse_ipv4(const Token& t) {
  unsigned a = 256, b = 256, c = 256, d = 256;
  char extra = 0;
  if (std::sscanf(t.text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) !=
          4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    throw ZoneParseError{t.line, "bad IPv4 address '" + t.text + "'"};
  }
  return net::IpAddress::from_octets(
      static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
      static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

std::array<std::uint8_t, 16> parse_ipv6(const Token& t) {
  // Minimal parser: groups separated by ':', one optional '::'.
  std::array<std::uint8_t, 16> out{};
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  bool in_tail = false;
  const std::string& s = t.text;
  std::size_t i = 0;
  auto fail = [&]() -> ZoneParseError {
    return ZoneParseError{t.line, "bad IPv6 address '" + s + "'"};
  };
  if (s.size() >= 2 && s[0] == ':' && s[1] == ':') {
    in_tail = true;
    i = 2;
  }
  while (i < s.size()) {
    std::size_t j = i;
    unsigned group = 0;
    while (j < s.size() && s[j] != ':') {
      const char c = s[j];
      unsigned digit = 0;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if ((c | 0x20) >= 'a' && (c | 0x20) <= 'f')
        digit = static_cast<unsigned>((c | 0x20) - 'a' + 10);
      else
        throw fail();
      group = group * 16 + digit;
      if (group > 0xffff) throw fail();
      ++j;
    }
    if (j == i) throw fail();
    (in_tail ? tail : head).push_back(static_cast<std::uint16_t>(group));
    i = j;
    if (i < s.size()) {
      ++i;  // ':'
      if (i < s.size() && s[i] == ':') {
        if (in_tail) throw fail();
        in_tail = true;
        ++i;
      } else if (i >= s.size()) {
        throw fail();
      }
    }
  }
  const std::size_t total = head.size() + tail.size();
  if ((in_tail && total > 7) || (!in_tail && total != 8)) throw fail();
  for (std::size_t k = 0; k < head.size(); ++k) {
    out[2 * k] = static_cast<std::uint8_t>(head[k] >> 8);
    out[2 * k + 1] = static_cast<std::uint8_t>(head[k] & 0xff);
  }
  for (std::size_t k = 0; k < tail.size(); ++k) {
    const std::size_t slot = 8 - tail.size() + k;
    out[2 * slot] = static_cast<std::uint8_t>(tail[k] >> 8);
    out[2 * slot + 1] = static_cast<std::uint8_t>(tail[k] & 0xff);
  }
  return out;
}

/// parse_zone_text, keeping in `lineno` the line it is on.
std::vector<ResourceRecord> parse_records(std::string_view text,
                                          const ZoneFileOptions& options,
                                          std::size_t& lineno) {
  Tokenizer tokenizer{text};
  const auto lines = tokenizer.lines();

  Name origin = options.origin;
  Ttl default_ttl = options.default_ttl;
  std::optional<Name> last_name;
  std::vector<ResourceRecord> records;

  for (const auto& line : lines) {
    if (line.empty()) continue;
    lineno = line.front().line;

    // Directives.
    if (line.front().text == "$ORIGIN") {
      if (line.size() != 2) throw ZoneParseError{lineno, "$ORIGIN arity"};
      origin = Name::parse(line[1].text);
      continue;
    }
    if (line.front().text == "$TTL") {
      if (line.size() != 2) throw ZoneParseError{lineno, "$TTL arity"};
      const auto ttl = parse_ttl(line[1].text);
      if (!ttl) throw ZoneParseError{lineno, "bad $TTL value"};
      default_ttl = *ttl;
      continue;
    }
    if (line.front().text.starts_with("$")) {
      throw ZoneParseError{lineno,
                           "unsupported directive " + line.front().text};
    }

    std::size_t idx = 0;
    Name name;
    if (line.front().first_on_line) {
      name = parse_name_token(line[idx++], origin);
      last_name = name;
    } else {
      if (!last_name) {
        throw ZoneParseError{lineno, "record with no owner name"};
      }
      name = *last_name;
    }

    // [TTL] and [class] may appear in either order before the type.
    Ttl ttl = default_ttl;
    RRClass rrclass = RRClass::IN;
    std::optional<RRType> type;
    while (idx < line.size() && !type) {
      const std::string& tok = line[idx].text;
      if (const auto t = rrtype_from_string(tok);
          t && tok != "ANY") {  // ANY is query-only
        type = t;
        ++idx;
        break;
      }
      if (const auto c = rrclass_from_string(tok)) {
        rrclass = *c;
        ++idx;
        continue;
      }
      if (const auto tv = parse_ttl(tok)) {
        ttl = *tv;
        ++idx;
        continue;
      }
      throw ZoneParseError{lineno, "unexpected token '" + tok + "'"};
    }
    if (!type) throw ZoneParseError{lineno, "missing record type"};

    const std::span<const Token> args{line.data() + idx, line.size() - idx};
    auto need = [&](std::size_t n) {
      if (args.size() != n) {
        throw ZoneParseError{lineno,
                             std::string{to_string(*type)} +
                                 " expects " + std::to_string(n) +
                                 " field(s), got " +
                                 std::to_string(args.size())};
      }
    };

    Rdata rdata;
    switch (*type) {
      case RRType::A:
        need(1);
        rdata = ARdata{parse_ipv4(args[0])};
        break;
      case RRType::AAAA:
        need(1);
        rdata = AaaaRdata{parse_ipv6(args[0])};
        break;
      case RRType::NS:
        need(1);
        rdata = NsRdata{parse_name_token(args[0], origin)};
        break;
      case RRType::CNAME:
        need(1);
        rdata = CnameRdata{parse_name_token(args[0], origin)};
        break;
      case RRType::PTR:
        need(1);
        rdata = PtrRdata{parse_name_token(args[0], origin)};
        break;
      case RRType::MX: {
        need(2);
        const auto pref = parse_u32(args[0].text);
        if (!pref || *pref > 0xffff) {
          throw ZoneParseError{lineno, "bad MX preference"};
        }
        rdata = MxRdata{static_cast<std::uint16_t>(*pref),
                        parse_name_token(args[1], origin)};
        break;
      }
      case RRType::TXT: {
        if (args.empty()) throw ZoneParseError{lineno, "TXT needs strings"};
        TxtRdata txt;
        for (const auto& a : args) {
          if (a.text.size() > 255) {
            throw ZoneParseError{lineno, "TXT string exceeds 255 octets"};
          }
          txt.strings.push_back(a.text);
        }
        rdata = std::move(txt);
        break;
      }
      case RRType::SOA: {
        need(7);
        SoaRdata soa;
        soa.mname = parse_name_token(args[0], origin);
        soa.rname = parse_name_token(args[1], origin);
        const auto serial = parse_u32(args[2].text);
        const auto refresh = parse_ttl(args[3].text);
        const auto retry = parse_ttl(args[4].text);
        const auto expire = parse_ttl(args[5].text);
        const auto minimum = parse_ttl(args[6].text);
        if (!serial || !refresh || !retry || !expire || !minimum) {
          throw ZoneParseError{lineno, "bad SOA numeric field"};
        }
        soa.serial = *serial;
        soa.refresh = *refresh;
        soa.retry = *retry;
        soa.expire = *expire;
        soa.minimum = *minimum;
        rdata = std::move(soa);
        break;
      }
      case RRType::SRV: {
        need(4);
        SrvRdata srv;
        const auto prio = parse_u32(args[0].text);
        const auto weight = parse_u32(args[1].text);
        const auto port = parse_u32(args[2].text);
        if (!prio || !weight || !port || *prio > 0xffff ||
            *weight > 0xffff || *port > 0xffff) {
          throw ZoneParseError{lineno, "bad SRV numeric field"};
        }
        srv.priority = static_cast<std::uint16_t>(*prio);
        srv.weight = static_cast<std::uint16_t>(*weight);
        srv.port = static_cast<std::uint16_t>(*port);
        srv.target = parse_name_token(args[3], origin);
        rdata = std::move(srv);
        break;
      }
      case RRType::CAA: {
        need(3);
        const auto flags = parse_u32(args[0].text);
        if (!flags || *flags > 255) {
          throw ZoneParseError{lineno, "bad CAA flags"};
        }
        rdata = CaaRdata{static_cast<std::uint8_t>(*flags), args[1].text,
                         args[2].text};
        break;
      }
      default:
        throw ZoneParseError{lineno, "unsupported type in zone file"};
    }
    records.emplace_back(std::move(name), rrclass, ttl, rdata);
  }
  return records;
}

}  // namespace

std::vector<ResourceRecord> parse_zone_text(std::string_view text,
                                            const ZoneFileOptions& options) {
  std::size_t lineno = 1;
  try {
    return parse_records(text, options, lineno);
  } catch (const std::invalid_argument& e) {  // a malformed name
    throw ZoneParseError{lineno, e.what()};
  } catch (const WireError& e) {  // past a wire limit (RDATA, CAA tag)
    throw ZoneParseError{lineno, e.what()};
  }
}

std::string to_zone_text(const std::vector<ResourceRecord>& records) {
  std::string out;
  for (const auto& rr : records) {
    out += rr.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace recwild::dns
