#include "core/scenario.hpp"

#include "placement/pools.hpp"
#include "util/error.hpp"

namespace mlec {

void Scenario::validate() const {
  system.dc.validate();
  system.code.validate();
  system.bandwidth.validate();
  const LevelCode net = system.network_level();
  net.validate();
  if (system.network_family == CodeFamily::kLrc) {
    MLEC_REQUIRE(system.network_lrc.k == system.code.network.k &&
                     net.width() == system.code.network_width(),
                 "[code] mlec network part must equal the LRC shape: k_n = k and "
                 "p_n = l + r (pool layout arithmetic depends on it)");
  }
  // Surfaces family-specific limits (the GF(256) width cap, LRC table
  // width) here rather than mid-estimate; the factory caches the result.
  (void)make_code_model(net);
  MLEC_REQUIRE(system.afr > 0.0 && system.afr < 1.0, "AFR must be in (0,1)");
  MLEC_REQUIRE(system.detection_hours >= 0.0, "detection time must be non-negative");
  MLEC_REQUIRE(system.mission_hours > 0.0, "mission must be positive");
  MLEC_REQUIRE(ure_per_bit >= 0.0, "URE rate must be non-negative");
  MLEC_REQUIRE(bursts.bursts_per_year >= 0.0, "burst rate must be non-negative");
  MLEC_REQUIRE(missions > 0, "sim missions must be positive");
  MLEC_REQUIRE(split_missions > 0, "split missions must be positive");
  MLEC_REQUIRE(burst_trials > 0, "burst trials must be positive");
  // Construction checks the code fits the topology under this scheme.
  const PoolLayout layout(system.dc, system.code, system.scheme);
  (void)layout;
}

DurabilityEnv Scenario::durability_env() const {
  return {system.dc,           system.bandwidth,    system.afr,
          system.detection_hours, system.mission_hours, ure_per_bit};
}

FleetSimConfig Scenario::fleet_config() const {
  FleetSimConfig cfg;
  cfg.dc = system.dc;
  cfg.code = system.code;
  cfg.scheme = system.scheme;
  cfg.method = system.repair;
  cfg.bandwidth = system.bandwidth;
  cfg.failures.afr = system.afr;
  cfg.detection_hours = system.detection_hours;
  cfg.mission_hours = system.mission_hours;
  cfg.priority_repair = priority_repair;
  cfg.network_level = system.network_level();
  return cfg;
}

LocalPoolSimConfig Scenario::local_pool_config() const {
  return fleet_config().local_pool();
}

BurstPdlConfig Scenario::burst_config() const {
  BurstPdlConfig cfg;
  cfg.dc = system.dc;
  cfg.trials_per_cell = burst_trials;
  cfg.seed = seed;
  return cfg;
}

Scenario Scenario::paper_default() { return Scenario{}; }

}  // namespace mlec
