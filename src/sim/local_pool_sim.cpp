#include "sim/local_pool_sim.hpp"

#include <algorithm>
#include <cmath>

#include "math/combin.hpp"
#include "sim/pool_state.hpp"
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

double LocalPoolSimConfig::stripes_in_pool() const {
  const double chunks_per_disk = disk_capacity_tb * 1e12 / (chunk_kb * 1e3);
  return static_cast<double>(pool_disks) * chunks_per_disk / static_cast<double>(code.width());
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

LocalPoolEngine::LocalPoolEngine(const LocalPoolSimConfig& config, std::size_t max_samples)
    : mission_hours_(config.mission_hours), max_samples_(max_samples) {
  config.validate();
  const double lambda = config.afr / units::kHoursPerYear;  // per disk-hour
  pool_rate_ = lambda * static_cast<double>(config.pool_disks);
  stripes_in_pool_ = config.stripes_in_pool();
  model_ = config.repair_model();
}

void LocalPoolEngine::run_mission(Rng& rng, LocalPoolSimResult& into) {
  ++into.missions;
  into.pool_years = static_cast<double>(into.missions) * mission_hours_ / units::kHoursPerYear;

  // The pool state is reused across missions: reset() keeps its capacity,
  // so the mission loop allocates nothing. Nothing observable happens
  // between arrivals, so the pool steps only at failures.
  pool_.reset(model_);
  double t = rng.exponential(pool_rate_);
  ++into.rng_draws;
  for (; t < mission_hours_; t += rng.exponential(pool_rate_), ++into.rng_draws) {
    ++into.events_processed;
    if (!pool_.fail(t, model_)) continue;
    ++into.catastrophes;
    if (into.samples.size() < max_samples_) {
      CatastropheSample sample{};
      sample.time_hours = t;
      sample.concurrent_failures = static_cast<std::uint32_t>(pool_.concurrent_failures(model_));
      sample.unrebuilt_tb = pool_.unrebuilt_tb(model_);
      sample.lost_stripe_fraction = pool_.lost_stripe_fraction(model_);
      sample.lost_local_stripes = sample.lost_stripe_fraction * stripes_in_pool_;
      into.samples.push_back(sample);
    }
    pool_.reset(model_);
  }
}

LocalPoolSimResult simulate_local_pool(const LocalPoolSimConfig& cfg, std::uint64_t missions,
                                       Rng& rng, std::size_t max_samples) {
  LocalPoolEngine engine(cfg, max_samples);
  LocalPoolSimResult result;
  for (std::uint64_t m = 0; m < missions; ++m) engine.run_mission(rng, result);
  return result;
}

}  // namespace mlec
