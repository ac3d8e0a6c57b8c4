// Message <-> wire codec (RFC 1035 §4.1, RFC 6891 for OPT).
//
// Records keep their RDATA as uncompressed wire bytes (record.hpp), so the
// codec converts nothing else: decoding checks each RDATA as the wire
// format requires and expands its compressed names; encoding copies RDATA
// without names and sends the names of NS, CNAME, PTR, SOA and MX through
// the compression table (SRV's stay uncompressed, RFC 2782).
#pragma once

#include <cstdint>
#include <span>

#include "dnscore/message.hpp"
#include "net/wire_buffer.hpp"

namespace recwild::dns {

/// Serializes a message, applying name compression across all sections and
/// emitting the EDNS OPT record last in the additional section. The result
/// is a pooled buffer ready to move into Network::send — one encode, zero
/// copies, no heap allocation when the pool is warm.
/// Throws WireError on structural problems (e.g. >65535 records).
net::WireBuffer encode_message(const Message& m);

/// Parses a wire-format message into `out`, replacing its contents but
/// keeping the capacity of its sections, so a node that decodes every
/// datagram into the same Message stops allocating once its sections have
/// grown. Throws WireError on malformed input, leaving `out` unspecified
/// but valid (the next decode into it starts afresh). An OPT record in the
/// additional section is lifted into Message::edns.
void decode_message(std::span<const std::uint8_t> wire, Message& out);

/// decode_message into a fresh Message.
Message decode_message(std::span<const std::uint8_t> wire);

}  // namespace recwild::dns
