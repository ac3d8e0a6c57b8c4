// tdig — a dig-style query client for authnsd (and any DNS server).
//
// Builds a query with the repo's own codec, exchanges it over UDP or TCP
// through netio::exchange, and prints the decoded response. `--raw HEX`
// sends arbitrary bytes instead (the FORMERR smoke probe); `--hex-out`
// prints the raw response bytes, which is what the transport-equivalence
// test compares against the simulated server.
//
//   tdig @127.0.0.1 -p 5300 www.example.com A
//   tdig @127.0.0.1 -p 5300 example.com AXFR +tcp
//   tdig @127.0.0.1 -p 5300 --raw deadbeef --hex-out

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/codec.hpp"
#include "dnscore/message.hpp"
#include "netio/client.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [@server] [-p port] NAME [TYPE] [options]\n"
               "  +tcp            use TCP (2-byte framing)\n"
               "  +norecurse      clear the RD bit\n"
               "  +noedns         send no OPT record\n"
               "  +bufsize=N      EDNS advertised UDP payload size\n"
               "  +short          print answer rdata only\n"
               "  --id N          query id (default 1234)\n"
               "  --class CH|IN   query class\n"
               "  --timeout MS    exchange timeout (default 3000)\n"
               "  --raw HEX       send raw bytes instead of a query\n"
               "  --hex-out       print the raw response bytes as hex\n";
  return 2;
}

std::optional<std::vector<std::uint8_t>> parse_hex(const std::string& s) {
  if (s.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const auto nib = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = nib(s[i]);
    const int lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

void print_hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  std::cout << s << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  namespace dns = recwild::dns;

  std::string server = "127.0.0.1";
  std::uint16_t port = 53;
  std::string qname;
  std::string qtype_str = "A";
  bool have_name = false;
  bool have_type = false;
  recwild::netio::ExchangeOptions opts;
  bool rd = true;
  bool edns = true;
  std::uint16_t bufsize = 1232;
  bool short_out = false;
  bool hex_out = false;
  std::uint16_t id = 1234;
  dns::RRClass qclass = dns::RRClass::IN;
  std::optional<std::vector<std::uint8_t>> raw;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (!arg.empty() && arg[0] == '@') {
      server = arg.substr(1);
    } else if (arg == "-p") {
      port = static_cast<std::uint16_t>(std::stoi(next()));
    } else if (arg == "+tcp") {
      opts.tcp = true;
    } else if (arg == "+norecurse") {
      rd = false;
    } else if (arg == "+noedns") {
      edns = false;
    } else if (arg.rfind("+bufsize=", 0) == 0) {
      bufsize = static_cast<std::uint16_t>(std::stoi(arg.substr(9)));
    } else if (arg == "+short") {
      short_out = true;
    } else if (arg == "--id") {
      id = static_cast<std::uint16_t>(std::stoi(next()));
    } else if (arg == "--class") {
      const std::string c = next();
      const auto parsed = dns::rrclass_from_string(c);
      if (!parsed) {
        std::cerr << "unknown class: " << c << "\n";
        return usage(argv[0]);
      }
      qclass = *parsed;
    } else if (arg == "--timeout") {
      opts.timeout_ms = std::stoi(next());
    } else if (arg == "--raw") {
      raw = parse_hex(next());
      if (!raw) {
        std::cerr << "--raw wants an even-length hex string\n";
        return usage(argv[0]);
      }
    } else if (arg == "--hex-out") {
      hex_out = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!have_name) {
      qname = arg;
      have_name = true;
    } else if (!have_type) {
      qtype_str = arg;
      have_type = true;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return usage(argv[0]);
    }
  }

  std::vector<std::uint8_t> query_wire;
  if (raw) {
    query_wire = std::move(*raw);
  } else {
    if (!have_name) return usage(argv[0]);
    const auto qtype = dns::rrtype_from_string(qtype_str);
    if (!qtype) {
      std::cerr << "unknown type: " << qtype_str << "\n";
      return usage(argv[0]);
    }
    dns::Message query;
    try {
      query = dns::Message::make_query(id, dns::Name::parse(qname), *qtype,
                                       qclass);
    } catch (const std::exception& e) {
      std::cerr << "bad name: " << e.what() << "\n";
      return 2;
    }
    query.header.rd = rd;
    if (edns) {
      query.edns = dns::EdnsInfo{};
      query.edns->udp_payload_size = bufsize;
    }
    auto buf = dns::encode_message(query);
    query_wire.assign(buf.data(), buf.data() + buf.size());
  }

  const auto result =
      recwild::netio::exchange(server, port, query_wire, opts);
  if (!result) {
    std::cerr << ";; no response from " << server << ":" << port << " after "
              << opts.timeout_ms << " ms\n";
    return 1;
  }

  if (hex_out) {
    print_hex(result->wire);
    return 0;
  }
  try {
    const dns::Message resp = dns::decode_message(result->wire);
    if (short_out) {
      for (const auto& rr : resp.answers) {
        std::cout << dns::rdata_to_string(rr.rdata()) << "\n";
      }
    } else {
      std::cout << resp.to_string();
      std::cout << ";; SERVER: " << server << "#" << port << " ("
                << (opts.tcp ? "tcp" : "udp") << "), " << result->wire.size()
                << " bytes, " << result->rtt_ms << " ms\n";
    }
  } catch (const dns::WireError& e) {
    std::cerr << ";; undecodable response (" << e.what() << "), "
              << result->wire.size() << " bytes:\n";
    print_hex(result->wire);
    return 1;
  }
  return 0;
}
