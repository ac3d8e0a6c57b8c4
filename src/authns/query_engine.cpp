#include "authns/query_engine.hpp"

namespace recwild::authns {

namespace {

constexpr int kMaxCnameChain = 8;  // defensive bound on in-zone loops

}  // namespace

void QueryEngine::add_referral(dns::Message& out,
                               const dns::RRset& delegation) const {
  out.header.aa = false;
  delegation.append_records(out.authorities);
  for (const dns::RdataView ns : delegation) {
    zone_.append_glue(ns.target(), out.additionals);
  }
}

void QueryEngine::add_negative(dns::Message& out) const {
  const auto soa_set = zone_.find(zone_.origin(), dns::RRType::SOA);
  if (soa_set != nullptr) {
    // Negative answers carry the SOA with the negative TTL (RFC 2308 §3).
    soa_set->append_records(out.authorities, soa_set->name,
                            zone_.negative_ttl());
  }
}

LookupResult QueryEngine::lookup(const dns::Question& q) const {
  dns::Message m;
  LookupResult out;
  out.disposition = lookup(q, m);
  out.rcode = m.header.rcode;
  out.authoritative = m.header.aa;
  out.answers = std::move(m.answers);
  out.authorities = std::move(m.authorities);
  out.additionals = std::move(m.additionals);
  return out;
}

Disposition QueryEngine::lookup(const dns::Question& q,
                                dns::Message& out) const {
  out.header.rcode = dns::Rcode::NoError;
  out.header.aa = false;
  if (q.qclass != zone_.rrclass() && q.qclass != dns::RRClass::ANY) {
    out.header.rcode = dns::Rcode::Refused;
    return Disposition::NotAuth;
  }
  if (!q.qname.is_subdomain_of(zone_.origin())) {
    out.header.rcode = dns::Rcode::Refused;
    return Disposition::NotAuth;
  }

  out.header.aa = true;
  dns::Name qname = q.qname;

  for (int chain = 0; chain <= kMaxCnameChain; ++chain) {
    // 1. Delegation cut between apex and qname? Refer (unless the qname is
    //    the delegation point itself and asks for NS — still a referral per
    //    RFC 1034, since we are not authoritative below the cut).
    if (const dns::RRset* cut = zone_.find_delegation(qname)) {
      add_referral(out, *cut);
      return Disposition::Referral;
    }

    const auto* sets = zone_.find_all(qname);
    if (sets != nullptr) {
      // 2a. CNAME at the name (and question isn't CNAME itself): follow.
      const dns::RRset* cname = nullptr;
      for (const auto& s : *sets) {
        if (s.type == dns::RRType::CNAME) cname = &s;
      }
      if (cname != nullptr && q.qtype != dns::RRType::CNAME &&
          q.qtype != dns::RRType::ANY) {
        cname->append_records(out.answers);
        const dns::Name target = cname->front().target();
        if (target.is_subdomain_of(zone_.origin())) {
          qname = target;
          continue;  // chase in-zone
        }
        // Out-of-zone target: answer ends with the CNAME.
        return Disposition::Answer;
      }
      // 2b. Exact type match (or ANY: everything at the name).
      if (q.qtype == dns::RRType::ANY) {
        bool any = false;
        for (const auto& s : *sets) {
          s.append_records(out.answers);
          any = true;
        }
        if (any) return Disposition::Answer;
      } else {
        for (const auto& s : *sets) {
          if (s.type == q.qtype) {
            s.append_records(out.answers);
            // NS answers at the apex get glue in additional.
            if (q.qtype == dns::RRType::NS) {
              for (const dns::RdataView ns : s) {
                zone_.append_glue(ns.target(), out.additionals);
              }
            }
            return Disposition::Answer;
          }
        }
      }
      // 2c. Name exists, type doesn't: NODATA.
      add_negative(out);
      return Disposition::NoData;
    }

    // 3. Empty non-terminal: exists implicitly -> NODATA.
    if (zone_.name_exists(qname)) {
      add_negative(out);
      return Disposition::NoData;
    }

    // 4. Wildcard synthesis at the query name.
    if (const dns::RRset* wc = zone_.find_wildcard(qname, q.qtype)) {
      wc->append_records(out.answers, qname, wc->ttl);
      return Disposition::Wildcard;
    }
    // Wildcard CNAME?
    if (const dns::RRset* wc_cname =
            zone_.find_wildcard(qname, dns::RRType::CNAME);
        wc_cname != nullptr && q.qtype != dns::RRType::CNAME) {
      wc_cname->append_records(out.answers, qname, wc_cname->ttl);
      const dns::Name target = wc_cname->front().target();
      if (target.is_subdomain_of(zone_.origin())) {
        qname = target;
        continue;
      }
      return Disposition::Wildcard;
    }

    // 5. NXDOMAIN. A wildcard at the closest encloser for a *different*
    //    type means the name "exists" for NODATA purposes (RFC 4592), but
    //    we keep the simpler NXDOMAIN unless a wildcard of any common type
    //    applies — checked above for qtype and CNAME.
    out.header.rcode = dns::Rcode::NxDomain;
    add_negative(out);
    return Disposition::NxDomain;
  }
  // CNAME chain exceeded the bound: answer with what we have.
  return Disposition::Answer;
}

}  // namespace recwild::authns
