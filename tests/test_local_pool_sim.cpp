#include "sim/local_pool_sim.hpp"

#include <gtest/gtest.h>

#include "math/markov.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/units.hpp"

namespace mlec {
namespace {

// Elevated AFR so Monte Carlo converges; the rate is then cross-checked
// against the Markov closed form under the same assumptions.
LocalPoolSimConfig clustered_cfg(double afr) {
  LocalPoolSimConfig cfg;
  cfg.code = {4, 2};
  cfg.placement = Placement::kClustered;
  cfg.pool_disks = 6;
  cfg.afr = afr;
  cfg.disk_capacity_tb = 60.0;  // long repairs keep overlaps frequent enough to sample
  return cfg;
}

TEST(LocalPoolSim, ClusteredRateMatchesMarkov) {
  const auto cfg = clustered_cfg(0.9);
  Rng rng(11);
  const auto result = simulate_local_pool(cfg, 4000, rng);
  ASSERT_GT(result.catastrophes, 50u);

  const double lambda = cfg.afr / units::kHoursPerYear;
  const double repair_hours =
      cfg.detection_hours + units::hours_to_move(cfg.disk_capacity_tb,
                                                 cfg.bandwidth.effective_disk_mbps());
  const double mttdl =
      erasure_set_mttdl(cfg.code.k, cfg.code.p, lambda, 1.0 / repair_hours, true);
  const double markov_rate = units::kHoursPerYear / mttdl;
  // Markov assumes exponential repairs; the simulator's are deterministic
  // and this regime is hot (lambda*T ~ 0.25), so expect the same magnitude
  // rather than equality: within a factor of two.
  EXPECT_GT(result.catastrophe_rate_per_year(), markov_rate / 2.0);
  EXPECT_LT(result.catastrophe_rate_per_year(), markov_rate * 2.0);
}

TEST(LocalPoolSim, RateScalesSteeplyWithAfr) {
  Rng rng1(3), rng2(4);
  const auto lo = simulate_local_pool(clustered_cfg(0.3), 6000, rng1);
  const auto hi = simulate_local_pool(clustered_cfg(0.9), 6000, rng2);
  ASSERT_GT(hi.catastrophes, 0u);
  // p+1 = 3 overlapping failures: rate ~ afr^3 -> 27x; allow a wide band.
  EXPECT_GT(hi.catastrophe_rate_per_year(),
            8.0 * std::max(lo.catastrophe_rate_per_year(), 1e-9));
}

TEST(LocalPoolSim, DeclusteredPriorityBeatsNoPriority) {
  LocalPoolSimConfig cfg;
  cfg.code = {4, 2};
  cfg.placement = Placement::kDeclustered;
  cfg.pool_disks = 24;
  cfg.afr = 0.9;
  cfg.disk_capacity_tb = 30.0;

  Rng rng1(5), rng2(6);
  cfg.priority_repair = false;
  const auto without = simulate_local_pool(cfg, 3000, rng1);
  cfg.priority_repair = true;
  const auto with = simulate_local_pool(cfg, 3000, rng2);
  ASSERT_GT(without.catastrophes, 20u);
  EXPECT_LT(with.catastrophe_rate_per_year(), without.catastrophe_rate_per_year());
}

TEST(LocalPoolSim, SamplesDescribeCatastrophes) {
  Rng rng(7);
  const auto result = simulate_local_pool(clustered_cfg(0.9), 3000, rng);
  ASSERT_FALSE(result.samples.empty());
  for (const auto& s : result.samples) {
    EXPECT_GE(s.concurrent_failures, 3u);  // p+1
    EXPECT_GE(s.lost_stripe_fraction, 0.0);
    EXPECT_LE(s.lost_stripe_fraction, 1.0);
    EXPECT_GT(s.unrebuilt_tb, 0.0);
    EXPECT_GE(s.time_hours, 0.0);
    EXPECT_LE(s.time_hours, 8766.0);
  }
}

TEST(LocalPoolSim, RepairDurationsObserved) {
  Rng rng(8);
  const auto result = simulate_local_pool(clustered_cfg(0.5), 2000, rng);
  ASSERT_GT(result.single_disk_repair_hours.count(), 100u);
  const double expected = 0.5 + units::hours_to_move(60.0, 40.0);
  EXPECT_NEAR(result.single_disk_repair_hours.mean(), expected, 5.0);
}

TEST(LocalPoolSim, MergeAccumulates) {
  // Stage-1 results merge through the campaign summary's fold.
  Rng rng(9);
  const auto a = simulate_local_pool(clustered_cfg(0.9), 500, rng);
  const auto b = simulate_local_pool(clustered_cfg(0.9), 500, rng);
  CampaignAccumulator acc;
  const SlotBinding<LocalPoolSummary> slots(acc);
  MissionSchema<LocalPoolSummary>::fold(slots, a);
  MissionSchema<LocalPoolSummary>::fold(slots, b);
  const auto merged = summary_from<LocalPoolSummary>(acc);
  EXPECT_EQ(merged.missions, 1000u);
  EXPECT_EQ(merged.catastrophes, a.catastrophes + b.catastrophes);
  EXPECT_EQ(merged.lost_stripe_fraction.count(), a.samples.size() + b.samples.size());
  EXPECT_NEAR(merged.pool_years, 1000.0, 1e-9);
}

void expect_identical(const LocalPoolSimResult& a, const LocalPoolSimResult& b) {
  EXPECT_EQ(a.missions, b.missions);
  EXPECT_EQ(a.catastrophes, b.catastrophes);
  EXPECT_EQ(a.pool_years, b.pool_years);  // bit-exact, not approximate
  EXPECT_TRUE(a.single_disk_repair_hours == b.single_disk_repair_hours);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].time_hours, b.samples[i].time_hours);
    EXPECT_EQ(a.samples[i].concurrent_failures, b.samples[i].concurrent_failures);
    EXPECT_EQ(a.samples[i].lost_local_stripes, b.samples[i].lost_local_stripes);
    EXPECT_EQ(a.samples[i].lost_stripe_fraction, b.samples[i].lost_stripe_fraction);
    EXPECT_EQ(a.samples[i].unrebuilt_tb, b.samples[i].unrebuilt_tb);
  }
}

TEST(LocalPoolEngine, MissionByMissionEqualsSimulateLocalPool) {
  LocalPoolSimConfig declustered;
  declustered.code = {4, 2};
  declustered.placement = Placement::kDeclustered;
  declustered.pool_disks = 24;
  declustered.afr = 0.9;
  declustered.disk_capacity_tb = 30.0;
  for (const LocalPoolSimConfig& cfg : {clustered_cfg(0.9), declustered}) {
    constexpr std::uint64_t kMissions = 1500;
    Rng batch_rng(21), engine_rng(21);
    const auto batch = simulate_local_pool(cfg, kMissions, batch_rng);
    LocalPoolEngine engine(cfg);
    LocalPoolSimResult stepped;
    for (std::uint64_t m = 0; m < kMissions; ++m) engine.run_mission(engine_rng, stepped);
    ASSERT_GT(batch.catastrophes, 0u);
    expect_identical(stepped, batch);
    EXPECT_EQ(engine_rng(), batch_rng());  // both consumed the same draws
  }
}

TEST(LocalPoolEngine, ClusteredPoolsStepOnlyAtFailures) {
  // Clustered rebuilds run on a closed-form clock: the only events are the
  // failures, each of which draws the next lifetime after the mission's
  // first draw. The counts are the ones the event-stepped engine produced.
  Rng rng(31);
  const auto result = simulate_local_pool(clustered_cfg(0.9), 2000, rng);
  EXPECT_EQ(result.events_processed, result.rng_draws - result.missions);
  EXPECT_EQ(result.catastrophes, 258u);
  EXPECT_EQ(result.single_disk_repair_hours.count(), 9488u);
  EXPECT_EQ(result.rng_draws, 12760u);
}

TEST(LocalPoolSim, ConfigValidation) {
  LocalPoolSimConfig cfg;
  cfg.pool_disks = 5;  // smaller than (17+3)
  Rng rng(1);
  EXPECT_THROW(simulate_local_pool(cfg, 1, rng), PreconditionError);
  cfg = {};
  cfg.placement = Placement::kClustered;
  cfg.pool_disks = 21;  // clustered pool must be exactly k+p
  EXPECT_THROW(simulate_local_pool(cfg, 1, rng), PreconditionError);
}

}  // namespace
}  // namespace mlec
