#include "sim/local_pool_sim.hpp"

#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

void LocalPoolSimConfig::validate() const {
  code.validate();
  bandwidth.validate();
  MLEC_REQUIRE(pool_disks >= code.width(), "pool must hold at least one stripe width of disks");
  if (placement == Placement::kClustered)
    MLEC_REQUIRE(pool_disks == code.width(), "clustered pool is exactly k+p disks");
  MLEC_REQUIRE(afr > 0.0 && afr < 1.0, "AFR must be in (0,1)");
  MLEC_REQUIRE(detection_hours >= 0.0, "detection time must be non-negative");
  MLEC_REQUIRE(mission_hours > 0.0, "mission must be positive");
  MLEC_REQUIRE(disk_capacity_tb > 0.0 && chunk_kb > 0.0, "capacity/chunk must be positive");
}

PoolRepairModel LocalPoolSimConfig::repair_model() const {
  PoolRepairModel model;
  model.code = code;
  model.pool_disks = pool_disks;
  model.clustered = placement == Placement::kClustered;
  model.priority_repair = priority_repair;
  model.detection_hours = detection_hours;
  model.disk_capacity_tb = disk_capacity_tb;
  model.chunk_kb = chunk_kb;
  model.disk_eff_mbps = bandwidth.effective_disk_mbps();
  model.finalize();
  return model;
}

LocalPoolEngine::LocalPoolEngine(const LocalPoolSimConfig& config)
    : mission_hours_(config.mission_hours) {
  config.validate();
  const double lambda = config.afr / units::kHoursPerYear;  // per disk-hour
  pool_rate_ = lambda * static_cast<double>(config.pool_disks);
  model_ = config.repair_model();
}

void LocalPoolEngine::run_mission(Rng& rng, LocalPoolSimResult& into) {
  ++into.missions;
  into.pool_years = static_cast<double>(into.missions) * mission_hours_ / units::kHoursPerYear;

  // The pool state is reused across missions: the walk's reset() keeps
  // its capacity, so the mission loop allocates nothing. One variate per
  // gap, the first arrival included.
  auto next_gap = [&](double) {
    ++into.rng_draws;
    return rng.exponential(pool_rate_);
  };
  double first_arrival = next_gap(0.0);
  AtRisk risk;
  into.events_processed += walk_pool(
      pool_, model_, mission_hours_, first_arrival, {}, next_gap,
      [&](double t, const InjectedFailure*) {
        ++into.catastrophes;
        return t;  // no network repair holds the pool
      },
      [](double, const InjectedFailure*) {},
      [&](double from, double to) { pool_.accrue_at_risk(from, to, model_, risk); });
  // The hazard of the walk's arrivals, pool_rate_, turns at-risk hours into
  // the catastrophes' compensator. Most missions are never at risk, and
  // adding their zeros would change no sum.
  if (!(risk.hours > 0.0)) return;
  const double expected = pool_rate_ * risk.hours;
  into.expected_catastrophes += expected;
  into.expected_catastrophes_sq += expected * expected;
  into.expected_lost_fraction += pool_rate_ * risk.fraction_hours;
}

LocalPoolSimResult simulate_local_pool(const LocalPoolSimConfig& cfg, std::uint64_t missions,
                                       Rng& rng) {
  LocalPoolEngine engine(cfg);
  LocalPoolSimResult result;
  for (std::uint64_t m = 0; m < missions; ++m) engine.run_mission(rng, result);
  return result;
}

}  // namespace mlec
