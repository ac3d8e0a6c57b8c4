// Authoritative query resolution (RFC 1034 §4.3.2) over a Zone:
// exact answers, in-zone CNAME chasing, wildcard synthesis, delegation
// referrals with glue, NODATA and NXDOMAIN with the SOA in authority.
#pragma once

#include "authns/zone.hpp"
#include "dnscore/message.hpp"

namespace recwild::authns {

/// Outcome categories, useful for stats and tests. The wire response is
/// fully described by (rcode, aa, sections); `disposition` names the branch
/// the engine took.
enum class Disposition : unsigned char {
  Answer,         // direct or CNAME-chained answer
  Wildcard,       // answer synthesized from a wildcard
  Referral,       // delegation NS in authority (aa = false)
  NoData,         // name exists, type doesn't (NOERROR + SOA)
  NxDomain,       // name does not exist (NXDOMAIN + SOA)
  NotAuth,        // question outside all served zones (REFUSED)
};

struct LookupResult {
  dns::Rcode rcode = dns::Rcode::NoError;
  bool authoritative = false;
  Disposition disposition = Disposition::NotAuth;
  std::vector<dns::ResourceRecord> answers;
  std::vector<dns::ResourceRecord> authorities;
  std::vector<dns::ResourceRecord> additionals;
};

class QueryEngine {
 public:
  explicit QueryEngine(const Zone& zone) : zone_(zone) {}

  /// Resolves one question against the zone into a caller-owned response:
  /// sets its rcode and aa flag and appends to its three sections (which
  /// the caller has emptied). Records are built straight from the blocks
  /// of the zone's RRsets, so a response whose sections have grown before
  /// allocates nothing. Returns the branch taken.
  Disposition lookup(const dns::Question& q, dns::Message& out) const;

  /// lookup into a fresh result.
  [[nodiscard]] LookupResult lookup(const dns::Question& q) const;

 private:
  void add_referral(dns::Message& out, const dns::RRset& delegation) const;
  void add_negative(dns::Message& out) const;

  const Zone& zone_;
};

}  // namespace recwild::authns
