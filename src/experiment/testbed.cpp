#include "experiment/testbed.hpp"

#include <stdexcept>

namespace recwild::experiment {

Testbed::Testbed(TestbedConfig config)
    : Testbed(WorldSnapshot::build(std::move(config))) {}

Testbed::Testbed(std::shared_ptr<const WorldSnapshot> world,
                 const std::vector<std::size_t>* partition)
    : world_(std::move(world)),
      sim_(world_->config.seed),
      network_(std::make_unique<net::Network>(sim_, world_->config.latency,
                                              world_->catalog)) {
  const TestbedConfig& config = world_->config;
  sim_.trace().set_enabled(config.trace_decisions);

  materialize_services();
  for (auto* services : {&roots_, &nl_, &test_, &attacker_}) {
    for (auto& svc : *services) svc.start();
  }
  arm_defenses();

  if (config.build_population) {
    population_ = client::materialize_population(
        *network_, world_->population, config.population, world_->hints,
        partition);
  }

  apply_drains();

  if (!config.faults.empty()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(*network_, config.faults);
    for (auto* services : {&roots_, &nl_, &test_}) {
      for (auto& svc : *services) {
        for (auto& site : svc.sites()) injector_->bind_server(*site.server);
        injector_->bind_service(svc);
      }
    }
    injector_->arm();
  }
}

void Testbed::apply_drains() {
  // Drains are part of the world plan (TestbedConfig::drains): every
  // replica applies the identical windows during construction, before the
  // baseline metrics snapshot, so the sharded engines merge to the serial
  // bytes.
  for (const SiteDrain& d : world_->config.drains) {
    bool matched_service = false;
    for (auto* services : {&roots_, &nl_, &test_}) {
      for (auto& svc : *services) {
        if (svc.name() != d.service) continue;
        matched_service = true;
        bool matched_site = false;
        for (std::size_t i = 0; i < svc.sites().size(); ++i) {
          if (d.site != "*" && svc.sites()[i].code != d.site) continue;
          svc.drain(i, d.start, d.end);
          matched_site = true;
        }
        if (!matched_site) {
          throw std::invalid_argument{"Testbed: drain site '" + d.site +
                                      "' not in service '" + d.service + "'"};
        }
      }
    }
    if (!matched_service) {
      throw std::invalid_argument{"Testbed: drain service '" + d.service +
                                  "' unknown"};
    }
  }
}

void Testbed::materialize_services() {
  const auto materialize = [this](const std::vector<ServicePlan>& plans,
                                  std::vector<anycast::AnycastService>& out) {
    out.reserve(plans.size());
    for (const auto& sp : plans) {
      out.push_back(anycast::AnycastService::create_at(
          *network_, sp.label, sp.address, sp.sites));
      if (sp.address6) out.back().listen_also(*sp.address6);
      for (const auto& zone : sp.zones) out.back().add_zone(zone);
    }
  };
  materialize(world_->roots, roots_);
  materialize(world_->nl, nl_);
  materialize(world_->test, test_);
  materialize(world_->attacker, attacker_);
}

void Testbed::arm_defenses() {
  const TestbedConfig& config = world_->config;
  if (!config.attack.empty()) {
    // The test-domain authoritatives are the attack's victims: count their
    // load separately (attack.victim.queries, the amplification numerator).
    for (auto& svc : test_) {
      for (auto& site : svc.sites()) site.server->set_victim(true);
    }
  }
  if (config.rrl.rate > 0) {
    // RRL is the defender's: roots, .nl and the test domain arm it; the
    // attacker's own authoritative never does.
    for (auto* services : {&roots_, &nl_, &test_}) {
      for (auto& svc : *services) {
        for (auto& site : svc.sites()) site.server->set_rrl(config.rrl);
      }
    }
  }
  if (config.referral_fanout_cap > 0) {
    // The fanout cap is engine-wide (managed-DNS model): every hosted
    // zone's referrals are trimmed, the attacker's delegation included.
    for (auto* services : {&roots_, &nl_, &test_, &attacker_}) {
      for (auto& svc : *services) {
        for (auto& site : svc.sites()) {
          site.server->set_referral_fanout_cap(config.referral_fanout_cap);
        }
      }
    }
  }
}

void Testbed::retain_query_log_entries(bool retain) {
  for (auto* group : {&roots_, &nl_, &test_, &attacker_}) {
    for (auto& svc : *group) {
      for (auto& site : svc.sites()) {
        site.server->log().set_retain_entries(retain);
      }
    }
  }
}

int Testbed::test_index_of(const std::string& code) const {
  for (std::size_t i = 0; i < test_.size(); ++i) {
    if (test_[i].name() == code) return static_cast<int>(i);
  }
  return -1;
}

net::NodeId Testbed::recursive_node(net::IpAddress addr) const {
  const auto* info = population_.recursive_by_address(addr);
  return info != nullptr ? info->resolver->node() : net::kInvalidNode;
}

}  // namespace recwild::experiment
