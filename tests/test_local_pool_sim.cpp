#include "sim/local_pool_sim.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "counting_allocator.hpp"
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
  EXPECT_EQ(result.samples.size(), result.catastrophes);  // every one sampled
  for (const auto& s : result.samples) {
    EXPECT_GE(s.lost_stripe_fraction, 0.0);
    EXPECT_LE(s.lost_stripe_fraction, 1.0);
    // p+1 = 3 failed disks: two still rebuilding and the newest, with all
    // of its capacity missing.
    EXPECT_GT(s.unrebuilt_tb, clustered_cfg(0.9).disk_capacity_tb);
  }
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
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
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
  EXPECT_EQ(result.rng_draws, 12760u);
}

TEST(LocalPoolEngine, ReplayedMissionsAllocateNothing) {
  // A campaign worker clears its one mission result before each mission.
  // clear() zeroes it but keeps the samples' capacity, so an engine that
  // replays missions it has already run allocates nothing, though a few
  // hundred of them record a catastrophe.
  LocalPoolEngine engine(clustered_cfg(0.9));
  LocalPoolSimResult one;
  auto run = [&](Rng rng) {
    std::uint64_t catastrophes = 0;
    for (int m = 0; m < 2000; ++m) {
      one.clear();
      engine.run_mission(rng, one);
      catastrophes += one.catastrophes;
    }
    return catastrophes;
  };
  const std::uint64_t warm = run(Rng(41));
  ASSERT_GT(warm, 100u);
  const std::uint64_t before = g_allocations.load();
  EXPECT_EQ(run(Rng(41)), warm);
  EXPECT_EQ(g_allocations.load() - before, 0u);

  one.clear();
  EXPECT_EQ(one.missions, 0u);
  EXPECT_EQ(one.events_processed, 0u);
  EXPECT_TRUE(one.samples.empty());
  EXPECT_GT(one.samples.capacity(), 0u);

  // The campaign path itself: a hot pool's campaign allocates no more than
  // a cold one's, though hundreds of its missions record a catastrophe.
  auto campaign_allocations = [](double afr) {
    CampaignConfig campaign;
    campaign.total_units = 4000;
    campaign.seed = 43;
    const std::uint64_t start = g_allocations.load();
    const auto result = run_local_pool_campaign(clustered_cfg(afr), campaign);
    return std::pair{g_allocations.load() - start, result.summary.catastrophes};
  };
  const auto [cold, cold_catastrophes] = campaign_allocations(0.01);
  const auto [hot, hot_catastrophes] = campaign_allocations(0.9);
  ASSERT_EQ(cold_catastrophes, 0u);
  ASSERT_GT(hot_catastrophes, 300u);
  EXPECT_LE(hot, cold + 4) << "cold " << cold << ", hot " << hot;
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
