#include "analysis/durability.hpp"

#include "analysis/burst_pdl.hpp"

#include <gtest/gtest.h>

#include "runtime/mission_campaign.hpp"
#include "sim/local_pool_sim.hpp"
#include "util/units.hpp"

namespace mlec {
namespace {

const DurabilityEnv kEnv{};  // paper §3 defaults
const MlecCode kCode = MlecCode::paper_default();

TEST(LocalPoolStats, ClusteredRateIsLowAndFractionBounded) {
  const auto stats = local_pool_stats(kEnv, kCode.local, Placement::kClustered, 20);
  EXPECT_GT(stats.cat_rate_per_pool_year, 0.0);
  EXPECT_LT(stats.cat_rate_per_pool_year, 1e-6);
  EXPECT_GT(stats.lost_stripe_fraction, 0.0);
  EXPECT_LE(stats.lost_stripe_fraction, 1.0);
}

TEST(LocalPoolStats, DeclusteredPoolIsMoreDurablePerPool) {
  // Paper Figure 7: local-Dp pools are orders of magnitude less likely to go
  // catastrophic, and the system has fewer of them.
  const auto cp = local_pool_stats(kEnv, kCode.local, Placement::kClustered, 20);
  const auto dp = local_pool_stats(kEnv, kCode.local, Placement::kDeclustered, 120);
  EXPECT_LT(dp.cat_rate_per_pool_year, cp.cat_rate_per_pool_year);
  // Dp lost-stripe fraction is the small hypergeometric tail.
  EXPECT_LT(dp.lost_stripe_fraction, 1e-3);
}

TEST(LocalPoolStats, FromSimulation) {
  LocalPoolSimConfig cfg;
  cfg.code = {4, 2};
  cfg.placement = Placement::kClustered;
  cfg.pool_disks = 6;
  cfg.afr = 0.9;
  cfg.disk_capacity_tb = 60.0;
  // Stage 1 from a campaign of 16 blocks of 125 missions, block b running
  // simulate_local_pool's missions on Rng::for_substream(seed, b).
  CampaignConfig campaign;
  campaign.total_units = 2000;
  campaign.seed = 3;
  const auto stats = run_local_pool_campaign(cfg, campaign).summary.stats();
  std::uint64_t catastrophes = 0;
  double pool_years = 0.0, lost = 0.0;
  std::size_t samples = 0;
  for (std::uint64_t b = 0; b < 16; ++b) {
    Rng rng = Rng::for_substream(3, b);
    const auto sim = simulate_local_pool(cfg, 125, rng);
    catastrophes += sim.catastrophes;
    pool_years += sim.pool_years;
    for (const auto& s : sim.samples) lost += s.lost_stripe_fraction;
    samples += sim.samples.size();
  }
  ASSERT_GT(samples, 0u);
  EXPECT_NEAR(stats.cat_rate_per_pool_year, static_cast<double>(catastrophes) / pool_years,
              1e-12);
  EXPECT_NEAR(stats.lost_stripe_fraction, lost / static_cast<double>(samples), 1e-12);
  EXPECT_GT(stats.lost_stripe_fraction, 0.0);
}

TEST(MlecDurability, Figure10MethodLadder) {
  for (auto scheme : kAllMlecSchemes) {
    double prev = 0.0;
    for (auto method : kAllRepairMethods) {
      const auto r = mlec_durability(kEnv, kCode, scheme, method);
      EXPECT_GE(r.nines, prev - 1e-9) << to_string(scheme) << " " << to_string(method);
      EXPECT_GT(r.nines, 15.0);
      EXPECT_LE(r.coverage, 1.0);
      prev = r.nines;
    }
  }
}

TEST(MlecDurability, Figure10SchemeRanking) {
  // After all optimizations (R_MIN): C/D and D/D best, D/C worst (F#4).
  const double cc =
      mlec_durability(kEnv, kCode, MlecScheme::kCC, RepairMethod::kRepairMinimum).nines;
  const double cd =
      mlec_durability(kEnv, kCode, MlecScheme::kCD, RepairMethod::kRepairMinimum).nines;
  const double dc =
      mlec_durability(kEnv, kCode, MlecScheme::kDC, RepairMethod::kRepairMinimum).nines;
  const double dd =
      mlec_durability(kEnv, kCode, MlecScheme::kDD, RepairMethod::kRepairMinimum).nines;
  EXPECT_GT(cd, cc);
  EXPECT_GT(dd, cc);
  EXPECT_LT(dc, cc);
}

TEST(MlecDurability, RfcoGainLargestOnDD) {
  // Paper F#1 (§4.2.3): +6.6 nines on D/D thanks to the 0.03% coverage.
  auto gain = [&](MlecScheme s) {
    return mlec_durability(kEnv, kCode, s, RepairMethod::kRepairFailedOnly).nines -
           mlec_durability(kEnv, kCode, s, RepairMethod::kRepairAll).nines;
  };
  EXPECT_GT(gain(MlecScheme::kDD), gain(MlecScheme::kCC));
  EXPECT_GT(gain(MlecScheme::kDD), 4.0);
  EXPECT_GT(gain(MlecScheme::kCC), 0.4);
}

TEST(MlecDurability, CoverageBelowOneOnlyForChunkAwareMethods) {
  const auto rall = mlec_durability(kEnv, kCode, MlecScheme::kDD, RepairMethod::kRepairAll);
  EXPECT_DOUBLE_EQ(rall.coverage, 1.0);
  const auto rfco =
      mlec_durability(kEnv, kCode, MlecScheme::kDD, RepairMethod::kRepairFailedOnly);
  // The paper's "0.03%" stripe-coverage effect for D/D.
  EXPECT_LT(rfco.coverage, 0.01);
  EXPECT_GT(rfco.coverage, 1e-6);
}

TEST(MlecDurability, DetectionTimeFloorsTheGain) {
  // Shrinking detection time improves durability; with zero detection the
  // declustered schemes gain the most (paper §5.2.2 F#2).
  DurabilityEnv fast = kEnv;
  fast.detection_hours = 1.0 / 60.0;
  const double slow_dd =
      mlec_durability(kEnv, kCode, MlecScheme::kDD, RepairMethod::kRepairMinimum).nines;
  const double fast_dd =
      mlec_durability(fast, kCode, MlecScheme::kDD, RepairMethod::kRepairMinimum).nines;
  EXPECT_GT(fast_dd, slow_dd + 1.0);
}

TEST(MlecDurability, SplittingOverrideIsHonored) {
  LocalPoolStats stage1;
  stage1.cat_rate_per_pool_year = 1e-4;  // much worse pools than analytic
  stage1.lost_stripe_fraction = 0.1;
  const auto with_override =
      mlec_durability(kEnv, kCode, MlecScheme::kCC, RepairMethod::kRepairAll, stage1);
  const auto analytic = mlec_durability(kEnv, kCode, MlecScheme::kCC, RepairMethod::kRepairAll);
  EXPECT_LT(with_override.nines, analytic.nines);
  EXPECT_NEAR(with_override.system_cat_rate_per_year, 1e-4 * 2880, 1e-6);
}

TEST(MlecDurability, DefaultNetworkIsTheRsModel) {
  // Omitting the network model must mean exactly the RS model of
  // code.network: same bits in every scheme x method cell, on the paper
  // default and on a small hot fleet.
  DurabilityEnv hot;
  hot.dc.racks = 6;
  hot.dc.enclosures_per_rack = 2;
  hot.dc.disks_per_enclosure = 8;
  hot.afr = 0.5;
  const struct {
    DurabilityEnv env;
    MlecCode code;
  } cases[] = {{kEnv, kCode}, {hot, MlecCode{{2, 1}, {3, 1}}}};
  for (const auto& c : cases) {
    const auto rs = make_code_model(LevelCode::make_rs(c.code.network));
    for (auto scheme : kAllMlecSchemes) {
      for (auto method : kAllRepairMethods) {
        SCOPED_TRACE(to_string(scheme) + " " + to_string(method));
        const auto implicit = mlec_durability(c.env, c.code, scheme, method);
        const auto explicit_rs =
            mlec_durability(c.env, c.code, scheme, method, std::nullopt, rs.get());
        EXPECT_EQ(implicit.pdl, explicit_rs.pdl);
        EXPECT_EQ(implicit.coverage, explicit_rs.coverage);
        EXPECT_EQ(implicit.exposure_hours, explicit_rs.exposure_hours);
      }
    }
  }
}

TEST(SlecDurability, PaperFigure12Anchor) {
  // The paper quotes local (28+12) SLEC at 33 nines.
  const auto r = slec_durability(kEnv, {28, 12}, {SlecDomain::kLocal, Placement::kClustered});
  EXPECT_NEAR(r.nines, 33.0, 1.5);
}

TEST(SlecDurability, MoreParitiesMoreNines) {
  for (auto scheme : kAllSlecSchemes) {
    double prev = -1.0;
    for (std::size_t i = 1; i <= 4; ++i) {
      const SlecCode code{7 * i, 3 * i};
      if (scheme.placement == Placement::kClustered) {
        const std::size_t w = code.width();
        const bool fits = scheme.domain == SlecDomain::kLocal ? (120 % w == 0) : (60 % w == 0);
        if (!fits) continue;
      }
      const auto r = slec_durability(kEnv, code, scheme);
      EXPECT_GT(r.nines, prev) << to_string(scheme) << " " << code.notation();
      prev = r.nines;
    }
  }
}

TEST(LrcDurability, GrowsWithGlobalParities) {
  double prev = -1.0;
  for (std::size_t i = 1; i <= 4; ++i) {
    const LrcCode code{7 * i, i, 2 * i};
    const auto r = lrc_durability(kEnv, code);
    EXPECT_GT(r.nines, prev) << code.notation();
    prev = r.nines;
  }
}

TEST(UreExtension, ZeroRateIsPaperModel) {
  DurabilityEnv with_zero = kEnv;
  with_zero.ure_per_bit = 0.0;
  for (auto scheme : kAllMlecSchemes) {
    const auto base = mlec_durability(kEnv, kCode, scheme, RepairMethod::kRepairMinimum);
    const auto zero = mlec_durability(with_zero, kCode, scheme, RepairMethod::kRepairMinimum);
    EXPECT_DOUBLE_EQ(base.nines, zero.nines);
  }
}

TEST(UreExtension, MoreErrorsFewerNines) {
  double prev = 1e9;
  for (double ure : {1e-18, 1e-16, 1e-14}) {
    DurabilityEnv env = kEnv;
    env.ure_per_bit = ure;
    const auto r = mlec_durability(env, kCode, MlecScheme::kCC, RepairMethod::kRepairMinimum);
    EXPECT_LT(r.nines, prev);
    prev = r.nines;
  }
}

TEST(UreExtension, RaisesCatastropheRateOnBothPoolTypes) {
  DurabilityEnv env = kEnv;
  env.ure_per_bit = 1e-15;
  const auto cp_base = local_pool_stats(kEnv, kCode.local, Placement::kClustered, 20);
  const auto cp_ure = local_pool_stats(env, kCode.local, Placement::kClustered, 20);
  EXPECT_GT(cp_ure.cat_rate_per_pool_year, cp_base.cat_rate_per_pool_year * 10);
  const auto dp_base = local_pool_stats(kEnv, kCode.local, Placement::kDeclustered, 120);
  const auto dp_ure = local_pool_stats(env, kCode.local, Placement::kDeclustered, 120);
  EXPECT_GT(dp_ure.cat_rate_per_pool_year, dp_base.cat_rate_per_pool_year);
}

TEST(BurstClimateDurability, ZeroRateMatchesIndependent) {
  BurstPdlConfig cfg;
  cfg.trials_per_cell = 50;
  const BurstPdlEngine engine(cfg);
  const auto plain = mlec_durability(kEnv, kCode, MlecScheme::kCC, RepairMethod::kRepairMinimum);
  const auto mixed = mlec_durability_with_bursts(
      kEnv, kCode, MlecScheme::kCC, RepairMethod::kRepairMinimum, {0.0, 3, 30}, engine);
  EXPECT_NEAR(mixed.nines, plain.nines, 1e-9);
}

TEST(BurstClimateDurability, MoreBurstsFewerNines) {
  BurstPdlConfig cfg;
  cfg.trials_per_cell = 300;
  const BurstPdlEngine engine(cfg);
  double prev = 1e9;
  for (double rate : {0.01, 0.1, 1.0}) {
    const auto r = mlec_durability_with_bursts(
        kEnv, kCode, MlecScheme::kDD, RepairMethod::kRepairMinimum, {rate, 3, 30}, engine);
    EXPECT_LT(r.nines, prev);
    prev = r.nines;
  }
}

TEST(BurstClimateDurability, Takeaways3And4Crossover) {
  // Quiet climate: C/D (or D/D) on top; bursty climate: C/C on top.
  BurstPdlConfig cfg;
  cfg.trials_per_cell = 300;
  const BurstPdlEngine engine(cfg);
  auto nines = [&](MlecScheme scheme, double rate) {
    return mlec_durability_with_bursts(kEnv, kCode, scheme, RepairMethod::kRepairMinimum,
                                       {rate, 3, 30}, engine)
        .nines;
  };
  EXPECT_GT(nines(MlecScheme::kCD, 0.0), nines(MlecScheme::kCC, 0.0));
  EXPECT_GT(nines(MlecScheme::kCC, 1.0), nines(MlecScheme::kCD, 1.0));
}

TEST(LrcDurability, BelowComparableMlec) {
  // Figure 15: at ~30% overhead, C/D with R_MIN beats LRC-Dp under the
  // 30-minute detection floor.
  const auto mlec =
      mlec_durability(kEnv, kCode, MlecScheme::kCD, RepairMethod::kRepairMinimum);
  const auto lrc = lrc_durability(kEnv, {14, 2, 4});
  EXPECT_GT(mlec.nines, lrc.nines);
}

}  // namespace
}  // namespace mlec
