#include "sim/local_pool_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "counting_allocator.hpp"
#include "math/markov.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/stats.hpp"
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

LocalPoolSimConfig declustered_cfg(bool priority_repair) {
  LocalPoolSimConfig cfg;
  cfg.code = {4, 2};
  cfg.placement = Placement::kDeclustered;
  cfg.pool_disks = 24;
  cfg.afr = 0.9;
  cfg.disk_capacity_tb = 30.0;
  cfg.priority_repair = priority_repair;
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
  Rng rng1(5), rng2(6);
  const auto without = simulate_local_pool(declustered_cfg(false), 3000, rng1);
  const auto with = simulate_local_pool(declustered_cfg(true), 3000, rng2);
  ASSERT_GT(without.catastrophes, 20u);
  EXPECT_LT(with.catastrophe_rate_per_year(), without.catastrophe_rate_per_year());
}

TEST(LocalPoolSim, SamplesDescribeCatastrophes) {
  // The compensator sums describe the catastrophes: a mean lost fraction in
  // (0, 1], and a rate whose RSE is finite.
  Rng rng(7);
  const auto result = simulate_local_pool(clustered_cfg(0.9), 3000, rng);
  ASSERT_GT(result.catastrophes, 0u);
  const double w = result.expected_catastrophes;
  EXPECT_GT(w, 0.0);
  EXPECT_GE(result.expected_catastrophes_sq, w * w / 3000.0);
  EXPECT_GT(result.lost_stripe_fraction(), 0.0);
  EXPECT_LE(result.lost_stripe_fraction(), 1.0);
  EXPECT_GT(result.rate_rse(), 0.0);
  EXPECT_LT(result.rate_rse(), 0.1);
}

TEST(LocalPoolSim, MergeAccumulates) {
  // Stage-1 results merge through the campaign summary's fold.
  Rng rng(9);
  const auto a = simulate_local_pool(clustered_cfg(0.9), 500, rng);
  const auto b = simulate_local_pool(clustered_cfg(0.9), 500, rng);
  CampaignAccumulator acc;
  const SlotBinding<LocalPoolSimResult> slots(acc);
  slots.fold(a);
  slots.fold(b);
  const auto merged = summary_from<LocalPoolSimResult>(acc);
  EXPECT_EQ(merged.missions, 1000u);
  EXPECT_EQ(merged.catastrophes, a.catastrophes + b.catastrophes);
  EXPECT_EQ(merged.expected_catastrophes, a.expected_catastrophes + b.expected_catastrophes);
  EXPECT_EQ(merged.expected_lost_fraction, a.expected_lost_fraction + b.expected_lost_fraction);
  EXPECT_NEAR(merged.pool_years, 1000.0, 1e-9);
}

void expect_identical(const LocalPoolSimResult& a, const LocalPoolSimResult& b) {
  EXPECT_EQ(a.missions, b.missions);
  EXPECT_EQ(a.catastrophes, b.catastrophes);
  EXPECT_EQ(a.pool_years, b.pool_years);  // bit-exact, not approximate
  EXPECT_EQ(a.expected_catastrophes, b.expected_catastrophes);
  EXPECT_EQ(a.expected_catastrophes_sq, b.expected_catastrophes_sq);
  EXPECT_EQ(a.expected_lost_fraction, b.expected_lost_fraction);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
}

TEST(LocalPoolEngine, MissionByMissionEqualsSimulateLocalPool) {
  for (const LocalPoolSimConfig& cfg : {clustered_cfg(0.9), declustered_cfg(true)}) {
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
  // A campaign worker zeroes its one mission result before each mission.
  // The result holds no buffers, so an engine that replays missions it has
  // already run allocates nothing, though a few hundred of them record a
  // catastrophe.
  LocalPoolEngine engine(clustered_cfg(0.9));
  LocalPoolSimResult one;
  auto run = [&](Rng rng) {
    std::uint64_t catastrophes = 0;
    for (int m = 0; m < 2000; ++m) {
      one = {};
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

/// Walk `missions` missions of `cfg` as LocalPoolEngine does, recording per
/// mission what the compensator stands for (the catastrophes and the sum of
/// their lost fractions, as observed) beside the compensator itself (W and
/// F), and check the engine's own result matches the walk bit for bit.
/// Returns the per-mission gaps observed - W and fractions - F.
std::pair<RunningStats, RunningStats> compensator_gaps(const LocalPoolSimConfig& cfg,
                                                       std::uint64_t missions) {
  const PoolRepairModel m = cfg.repair_model();
  const double rate = cfg.afr / units::kHoursPerYear * static_cast<double>(cfg.pool_disks);
  LocalPoolEngine engine(cfg);
  LocalPoolState state;
  Rng rng(2029), engine_rng(2029);
  RunningStats count_gap, fraction_gap;
  for (std::uint64_t mission = 0; mission < missions; ++mission) {
    std::uint64_t observed = 0;
    double fractions = 0.0;
    AtRisk risk;
    double arrival = rng.exponential(rate);
    walk_pool(
        state, m, cfg.mission_hours, arrival, {}, [&](double) { return rng.exponential(rate); },
        [&](double t, const InjectedFailure*) {
          ++observed;
          fractions += state.lost_stripe_fraction(m);
          return t;
        },
        [](double, const InjectedFailure*) {},
        [&](double from, double to) { state.accrue_at_risk(from, to, m, risk); });
    const double w = rate * risk.hours;
    const double f = rate * risk.fraction_hours;
    LocalPoolSimResult one;
    engine.run_mission(engine_rng, one);
    if (one.catastrophes != observed || one.expected_catastrophes != w ||
        one.expected_catastrophes_sq != w * w || one.expected_lost_fraction != f) {
      ADD_FAILURE() << "the engine's mission " << mission << " differs from the walk's";
      break;
    }
    count_gap.add(static_cast<double>(observed) - w);
    fraction_gap.add(fractions - f);
  }
  return {count_gap, fraction_gap};
}

TEST(LocalPoolSim, CompensatorIsAMartingaleCorrection) {
  // Failures arrive at the pool rate whatever the pool's state, so the
  // observed catastrophes minus W, and the sum of their lost fractions
  // minus F, have mean zero in every mission: the per-mission means sit
  // within 4 standard errors of 0.
  struct Case {
    std::string name;
    LocalPoolSimConfig cfg;
    std::uint64_t missions;
  };
  auto clustered = [](SlecCode code, double afr, double capacity_tb) {
    LocalPoolSimConfig cfg;
    cfg.code = code;
    cfg.pool_disks = code.width();
    cfg.afr = afr;
    cfg.disk_capacity_tb = capacity_tb;
    return cfg;
  };
  const Case cases[] = {
      {"clustered p_l=0", clustered({2, 0}, 0.5, 20.0), 100'000},
      {"clustered p_l=1", clustered({3, 1}, 0.5, 20.0), 200'000},
      {"clustered p_l=3", clustered({5, 3}, 0.9, 120.0), 200'000},
      {"declustered, priority", declustered_cfg(true), 40'000},
      {"declustered, no priority", declustered_cfg(false), 40'000},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto [count_gap, fraction_gap] = compensator_gaps(c.cfg, c.missions);
    ASSERT_EQ(count_gap.count(), c.missions);
    const double count_z = count_gap.mean() / count_gap.sem();
    const double fraction_z = fraction_gap.mean() / fraction_gap.sem();
    EXPECT_LT(std::abs(count_z), 4.0) << "mean " << count_gap.mean();
    EXPECT_LT(std::abs(fraction_z), 4.0) << "mean " << fraction_gap.mean();
  }
}

TEST(LocalPoolSim, RateIntervalsCoverTheLongRunRateUnderTargetRseStopping) {
  // Stage 1 stopped at a target RSE, as split runs it: the 95% intervals
  // rate x (1 +- 1.96 RSE) of 200 seeds cover a long-run reference about
  // 95% of the time. The reference's own RSE is 0.1% (a twentieth of a
  // run's).
  LocalPoolSimConfig cfg;
  cfg.code = {3, 1};
  cfg.pool_disks = 4;
  cfg.afr = 0.5;
  CampaignConfig reference_run;
  reference_run.total_units = 4'000'000;
  reference_run.seed = 1;
  reference_run.target_rse = 0.001;
  const auto reference = run_local_pool_campaign(cfg, reference_run).summary;
  ASSERT_LE(reference.rate_rse(), 0.001);
  const double truth = reference.catastrophe_rate_per_year();

  int covered = 0;
  constexpr int kSeeds = 200;
  for (int seed = 100; seed < 100 + kSeeds; ++seed) {
    CampaignConfig campaign;
    campaign.total_units = 1'000'000;
    campaign.seed = static_cast<std::uint64_t>(seed);
    campaign.checkpoint_every = 16;
    campaign.target_rse = 0.02;
    const auto [summary, report] = run_local_pool_campaign(cfg, campaign);
    ASSERT_TRUE(report.converged);
    const double rate = summary.catastrophe_rate_per_year();
    const double half = 1.959964 * summary.rate_rse() * rate;
    covered += std::abs(rate - truth) <= half ? 1 : 0;
  }
  EXPECT_GE(covered, 180) << covered << " of " << kSeeds;
  EXPECT_LE(covered, 198) << covered << " of " << kSeeds;
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
