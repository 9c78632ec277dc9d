#include "analysis/fleet_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>

#include "analysis/burst_pdl.hpp"
#include "analysis/durability.hpp"
#include "core/estimator.hpp"
#include "core/spec_io.hpp"
#include "counting_allocator.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/ini.hpp"
#include "util/units.hpp"

namespace mlec {
namespace {

/// A hot, shrunken fleet where a one-year mission sees real action:
/// 6 racks x 2 enclosures x 20 disks, (2+1)/(3+1), AFR 40%.
FleetSimConfig hot_fleet(MlecScheme scheme) {
  FleetSimConfig cfg;
  cfg.dc.racks = 6;
  cfg.dc.enclosures_per_rack = 2;
  cfg.dc.disks_per_enclosure = 20;
  cfg.dc.disk_capacity_tb = 20.0;
  cfg.code = {{2, 1}, {3, 1}};
  cfg.scheme = scheme;
  cfg.failures.afr = 0.4;
  return cfg;
}

/// A small (2+1)/(2+1) C/C deployment under R_ALL: 6 racks x 2 enclosures
/// x 6 disks, 2 TB disks.
FleetSimConfig toy_fleet() {
  FleetSimConfig cfg;
  cfg.dc.racks = 6;
  cfg.dc.enclosures_per_rack = 2;
  cfg.dc.disks_per_enclosure = 6;
  cfg.dc.disk_capacity_tb = 2.0;
  cfg.code = {{2, 1}, {2, 1}};
  cfg.scheme = MlecScheme::kCC;
  cfg.method = RepairMethod::kRepairAll;
  return cfg;
}

TEST(FleetSim, NoFailuresNothingHappens) {
  auto cfg = hot_fleet(MlecScheme::kCC);
  cfg.failures.afr = 1e-12;
  const auto r = simulate_fleet(cfg, 50, 1);
  EXPECT_EQ(r.data_loss_missions, 0u);
  EXPECT_EQ(r.catastrophic_pool_events, 0u);
  EXPECT_EQ(r.cross_rack_tb, 0.0);
}

TEST(FleetSim, FailureCountMatchesPoissonRate) {
  auto cfg = hot_fleet(MlecScheme::kCC);
  const auto r = simulate_fleet(cfg, 200, 2);
  // 240 disks * 0.4/yr * 1 yr = 96 per mission, every one walked.
  const double per_mission = static_cast<double>(r.events_processed) / 200.0;
  EXPECT_NEAR(per_mission, 96.0, 5.0);
}

TEST(FleetSim, SameSeedIsBitIdentical) {
  const auto cfg = hot_fleet(MlecScheme::kCC);
  const auto a = simulate_fleet(cfg, 120, 7);
  const auto b = simulate_fleet(cfg, 120, 7);
  EXPECT_EQ(a.missions, b.missions);
  EXPECT_EQ(a.data_loss_missions, b.data_loss_missions);
  EXPECT_EQ(a.catastrophic_pool_events, b.catastrophic_pool_events);
  EXPECT_EQ(a.cross_rack_tb, b.cross_rack_tb);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rng_draws, b.rng_draws);
}

TEST(FleetSim, SharedContextEngineMatchesPerConfigEngine) {
  const auto cfg = hot_fleet(MlecScheme::kDD);
  const auto context = make_fleet_context(cfg);
  FleetMissionEngine from_config(cfg);
  FleetMissionEngine from_context(context);
  Rng rng_a = Rng::for_substream(11, 0);
  Rng rng_b = Rng::for_substream(11, 0);
  FleetSimResult a, b;
  for (int m = 0; m < 40; ++m) {
    from_config.run_mission(rng_a, a);
    from_context.run_mission(rng_b, b);
  }
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.data_loss_missions, b.data_loss_missions);
  EXPECT_EQ(a.catastrophic_pool_events, b.catastrophic_pool_events);
  EXPECT_EQ(a.cross_rack_tb, b.cross_rack_tb);
  EXPECT_EQ(rng_a(), rng_b());  // both consumed the same draws
}

TEST(FleetSim, PerfCountersArePopulatedAndAllocationFree) {
  const auto cfg = hot_fleet(MlecScheme::kCC);
  const auto r = simulate_fleet(cfg, 100, 5);
  // Every failure walked is an event, and each sampled one drew its gap,
  // plus one gap per mission.
  EXPECT_GT(r.events_processed, 0u);
  EXPECT_GE(r.rng_draws, r.events_processed + r.missions);

  // Working storage keeps its capacity across missions: an engine that
  // replays missions it has already run allocates nothing. At AFR 3, most
  // missions stop on a loss, and each walks about 720 failures.
  for (const MlecScheme scheme : {MlecScheme::kCC, MlecScheme::kDD}) {
    SCOPED_TRACE(to_string(scheme));
    FleetSimConfig hotter = hot_fleet(scheme);
    hotter.failures.afr = 3.0;
    FleetMissionEngine engine(hotter);
    FleetSimResult warm, replayed;
    Rng warm_rng = Rng::for_substream(5, 0);
    for (int m = 0; m < 100; ++m) engine.run_mission(warm_rng, warm);
    ASSERT_GT(warm.data_loss_missions, 0u);
    Rng replay_rng = Rng::for_substream(5, 0);
    const std::uint64_t before = g_allocations.load();
    for (int m = 0; m < 100; ++m) engine.run_mission(replay_rng, replayed);
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(replayed.events_processed, warm.events_processed);
  }
}

class FleetSchemes : public ::testing::TestWithParam<MlecScheme> {};

TEST_P(FleetSchemes, CatastrophesAndTrafficAccumulate) {
  auto cfg = hot_fleet(GetParam());
  cfg.method = RepairMethod::kRepairFailedOnly;
  const auto r = simulate_fleet(cfg, 300, 3);
  EXPECT_GT(r.catastrophic_pool_events, 10u);
  EXPECT_GT(r.cross_rack_tb, 0.0);
  EXPECT_GT(r.catastrophe_exposure_hours.mean(), cfg.detection_hours);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FleetSchemes, ::testing::ValuesIn(kAllMlecSchemes));

TEST(FleetSim, RepairAllMovesMoreBytesThanRepairMin) {
  auto cfg = hot_fleet(MlecScheme::kCC);
  cfg.method = RepairMethod::kRepairAll;
  const auto rall = simulate_fleet(cfg, 200, 4);
  cfg.method = RepairMethod::kRepairMinimum;
  const auto rmin = simulate_fleet(cfg, 200, 4);
  ASSERT_GT(rall.catastrophic_pool_events, 0u);
  const double per_event_all =
      rall.cross_rack_tb / static_cast<double>(rall.catastrophic_pool_events);
  const double per_event_min =
      rmin.cross_rack_tb / static_cast<double>(rmin.catastrophic_pool_events);
  EXPECT_GT(per_event_all, per_event_min * 3.0);
}

TEST(FleetSim, MatchesDurabilityPipelineAtHighRates) {
  // The count-level simulator and the splitting/Markov pipeline should
  // agree on the catastrophic-pool rate in a regime hot enough to sample.
  auto cfg = hot_fleet(MlecScheme::kCC);
  const auto sim = simulate_fleet(cfg, 400, 5);

  DurabilityEnv env;
  env.dc = cfg.dc;
  env.afr = cfg.failures.afr;
  const auto stage1 = local_pool_stats(env, cfg.code.local, Placement::kClustered,
                                       cfg.code.local_width());
  const PoolLayout layout(cfg.dc, cfg.code, cfg.scheme);
  const double expected =
      stage1.cat_rate_per_pool_year * static_cast<double>(layout.total_local_pools());
  const double simulated = sim.catastrophes_per_system_year(cfg.mission_hours);
  EXPECT_GT(simulated, expected / 2.5);
  EXPECT_LT(simulated, expected * 2.5);
}

TEST(FleetSim, InjectedBurstMatchesBurstEngine) {
  // Inject one paper-style burst per mission; the resulting PDL should
  // match the conditional-MC burst engine's cell value.
  FleetSimConfig cfg;
  cfg.dc.racks = 12;
  cfg.dc.enclosures_per_rack = 2;
  cfg.dc.disks_per_enclosure = 12;
  cfg.dc.disk_capacity_tb = 0.00000128;  // 10 chunks/disk
  cfg.code = {{2, 1}, {2, 1}};
  cfg.scheme = MlecScheme::kDD;
  cfg.failures.afr = 1e-12;  // burst only
  cfg.mission_hours = 10.0;

  BurstPdlConfig engine_cfg;
  engine_cfg.dc = cfg.dc;
  engine_cfg.trials_per_cell = 6000;
  const BurstPdlEngine engine(engine_cfg);
  const std::size_t racks = 2, failures = 10;
  const double expected = engine.mlec_cell(cfg.code, cfg.scheme, racks, failures);
  ASSERT_GT(expected, 0.01);  // the cell must be hot for MC comparison

  const Topology topo(cfg.dc);
  Rng rng(6);
  std::uint64_t losses = 0;
  const std::uint64_t missions = 4000;
  for (std::uint64_t m = 0; m < missions; ++m) {
    cfg.injected_events = generate_burst(topo, racks, failures, 1.0, rng);
    losses += simulate_fleet(cfg, 1, m).data_loss_missions;
  }
  const double simulated = static_cast<double>(losses) / static_cast<double>(missions);
  EXPECT_NEAR(simulated, expected, std::max(0.35 * expected, 0.02));
}

TEST(FleetSim, ParallelShardingMatchesSerialStatistically) {
  auto cfg = hot_fleet(MlecScheme::kCD);
  const auto serial = simulate_fleet(cfg, 300, 7);
  // Parallel runs go through the campaign runner (one worker per pool thread).
  CampaignConfig campaign;
  campaign.total_units = 300;
  campaign.seed = 8;
  const auto parallel = run_fleet_campaign(cfg, campaign, &global_pool()).summary;
  EXPECT_EQ(serial.missions, parallel.missions);
  // Different seeds and streams: rates agree within Monte Carlo noise.
  const double a = static_cast<double>(serial.catastrophic_pool_events);
  const double b = static_cast<double>(parallel.catastrophic_pool_events);
  EXPECT_NEAR(a, b, 4.0 * std::sqrt(a + b) + 5.0);
}

TEST(FleetSim, NoFailuresNoLoss) {
  auto cfg = toy_fleet();
  cfg.failures.afr = 1e-9;
  const auto result = simulate_fleet(cfg, 20, 1);
  EXPECT_EQ(result.data_loss_missions, 0u);
  EXPECT_EQ(result.pdl(), 0.0);
}

TEST(FleetSim, ExtremeAfrAlwaysLoses) {
  auto cfg = toy_fleet();
  cfg.failures.afr = 0.999;          // ~everything dies many times over a year
  cfg.dc.disk_capacity_tb = 2000.0;  // repairs far too slow to help
  const auto result = simulate_fleet(cfg, 20, 2);
  EXPECT_EQ(result.data_loss_missions, 20u);
  EXPECT_DOUBLE_EQ(result.pdl(), 1.0);
  EXPECT_GT(result.loss_time_hours.count(), 0u);
}

TEST(FleetSim, PdlIncreasesWithAfr) {
  auto cfg = toy_fleet();
  cfg.failures.afr = 0.3;
  const auto lo = simulate_fleet(cfg, 300, 3);
  cfg.failures.afr = 0.9;
  const auto hi = simulate_fleet(cfg, 300, 3);
  EXPECT_GE(hi.pdl(), lo.pdl());
  EXPECT_GT(hi.catastrophic_pool_events, 0u);
  // 2 TB rebuilds are fast enough that neither AFR may lose data in 300
  // missions; the catastrophe count still has to climb with the AFR.
  EXPECT_GT(hi.catastrophic_pool_events, lo.catastrophic_pool_events);
}

TEST(FleetSim, BetterRepairMethodsDoNotHurt) {
  auto cfg = toy_fleet();
  cfg.failures.afr = 0.8;
  cfg.method = RepairMethod::kRepairAll;
  const auto rall = simulate_fleet(cfg, 400, 4);
  cfg.method = RepairMethod::kRepairMinimum;
  const auto rmin = simulate_fleet(cfg, 400, 4);
  // R_MIN's catastrophic repair exposure is shorter, so its PDL should not
  // exceed R_ALL's beyond Monte Carlo noise (~3 sigma of a 400-trial binomial).
  const double sigma = std::sqrt(rall.pdl() * (1 - rall.pdl()) / 400.0);
  EXPECT_LE(rmin.pdl(), rall.pdl() + 3 * sigma + 0.01);
  ASSERT_GT(rall.catastrophic_pool_events, 0u);
  EXPECT_LT(rmin.catastrophe_exposure_hours.mean(), rall.catastrophe_exposure_hours.mean());
}

TEST(FleetSim, MatchesMarkovForRepairAll) {
  // Single network pool of 3 one-stripe-wide pools: the two-level Markov
  // model applies almost exactly. Use a hot AFR so both converge.
  Scenario sc;
  sc.system.dc.racks = 3;
  sc.system.dc.enclosures_per_rack = 1;
  sc.system.dc.disks_per_enclosure = 3;
  sc.system.dc.disk_capacity_tb = 50.0;  // slow repairs so losses are observable
  sc.system.code = {{2, 1}, {2, 1}};     // one network pool over the 3 racks
  sc.system.scheme = MlecScheme::kCC;
  sc.system.repair = RepairMethod::kRepairAll;
  sc.system.afr = 0.9;

  const auto sim = simulate_fleet(sc.fleet_config(), 3000, 7);
  const double markov_pdl = find_estimator("markov")->estimate(sc).pdl;

  // Order-of-magnitude agreement: the models differ in repair-time
  // distribution (deterministic vs exponential) and loss accounting.
  EXPECT_GT(sim.pdl(), markov_pdl / 6.0);
  EXPECT_LT(sim.pdl(), std::min(1.0, markov_pdl * 6.0));
}

TEST(FleetSim, ReplaysInjectedTraceExactly) {
  // With background failures switched off, the replayed trace is the whole
  // mission: the outcome is deterministic, whatever the seed.
  auto cfg = hot_fleet(MlecScheme::kCC);
  cfg.method = RepairMethod::kRepairAll;
  cfg.failures.afr = 1e-12;
  const std::size_t pl = cfg.code.local.p;
  const std::size_t pn = cfg.code.network.p;
  // The first local pool of the first enclosure of racks 0..p_n: p_n+1
  // members of one clustered network pool.
  auto trace_with = [&](std::size_t failures_per_pool) {
    FailureTrace trace;
    double t = 10.0;
    for (std::size_t rack = 0; rack <= pn; ++rack)
      for (std::size_t i = 0; i < failures_per_pool; ++i, t += 0.1)
        trace.push_back({t, static_cast<DiskId>(rack * cfg.dc.disks_per_rack() + i)});
    return trace;
  };
  const std::uint64_t missions = 25;

  cfg.injected_events = trace_with(pl + 1);
  const auto lossy = simulate_fleet(cfg, missions, 12);
  EXPECT_EQ(lossy.data_loss_missions, missions);
  EXPECT_EQ(lossy.catastrophic_pool_events, (pn + 1) * missions);
  // Every failure walked is a replayed one.
  EXPECT_EQ(lossy.events_processed, cfg.injected_events.size() * missions);

  cfg.injected_events = trace_with(pl);
  const auto safe = simulate_fleet(cfg, missions, 12);
  EXPECT_EQ(safe.data_loss_missions, 0u);
  EXPECT_EQ(safe.catastrophic_pool_events, 0u);
  EXPECT_EQ(safe.events_processed, cfg.injected_events.size() * missions);
}

FleetSimConfig bundled(const std::string& file) {
  std::ifstream in(std::string(MLEC_SCENARIO_DIR) + "/" + file);
  return load_scenario(IniFile::parse(in)).fleet_config();
}

/// z of the two-proportion test of x1/n1 against x2/n2 (pooled variance).
double two_proportion_z(std::uint64_t x1, std::uint64_t n1, std::uint64_t x2, std::uint64_t n2) {
  const double a = static_cast<double>(x1), m = static_cast<double>(n1);
  const double b = static_cast<double>(x2), n = static_cast<double>(n2);
  const double p = (a + b) / (m + n);
  return (a / m - b / n) / std::sqrt(p * (1.0 - p) * (1.0 / m + 1.0 / n));
}

TEST(FleetSim, AgreesWithTheFleetWideFailureStream) {
  // Lossy-mission counts of the engine that drew one fleet-wide failure
  // stream and picked a uniform disk per failure, measured with
  // simulate_fleet(config, missions, 1) before the pool-major rewrite. The
  // per-pool streams are the same process in distribution, so a fresh run
  // must agree within Monte Carlo noise.
  struct Reference {
    const char* file;
    std::uint64_t missions;
    std::uint64_t lossy;
    std::uint64_t new_missions;
  };
  const Reference references[] = {
      {"crosscheck_mlec.ini", 400'000, 1053, 100'000},
      {"crosscheck_slec.ini", 100'000, 38282, 50'000},
  };
  for (const Reference& ref : references) {
    SCOPED_TRACE(ref.file);
    const auto r = simulate_fleet(bundled(ref.file), ref.new_missions, 2023);
    const double z = two_proportion_z(r.data_loss_missions, r.missions, ref.lossy, ref.missions);
    EXPECT_LT(std::fabs(z), 4.0) << r.data_loss_missions << " of " << r.missions << " lost";
  }
}

TEST(FleetSim, StopOnLossCountsOnlyCatastrophesUpToTheLoss) {
  // One same-instant burst at t = 0 under R_ALL, where two overlapping
  // catastrophes in a network pool lose data for certain: pool 0 of racks 0
  // and 1 (one (2+1) network pool) each take p_l+1 = 2 failures, so the
  // 4th failure in trace order loses data. Three more follow at the same
  // instant: a third catastrophe in rack 2 and a deepening of rack 0's.
  // Sampled failures come after t = 0, so after the loss. The cold fleet
  // samples none; the hot one expects 2,592 per mission.
  for (const double afr : {1e-12, 0.9}) {
    SCOPED_TRACE("afr " + std::to_string(afr));
    FleetSimConfig cfg = hot_fleet(MlecScheme::kCC);
    cfg.dc.disks_per_enclosure = 240;
    cfg.method = RepairMethod::kRepairAll;
    cfg.failures.afr = afr;
    // (rack, disk within the rack), in trace order.
    const std::size_t burst[][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {0, 2}};
    const std::size_t per_rack = cfg.dc.disks_per_rack();
    for (const auto& [rack, disk] : burst)
      cfg.injected_events.push_back({0.0, static_cast<DiskId>(rack * per_rack + disk)});
    const std::uint64_t missions = 20;
    const auto stopped = simulate_fleet(cfg, missions, 3);
    EXPECT_EQ(stopped.data_loss_missions, missions);
    EXPECT_EQ(stopped.catastrophic_pool_events, 2 * missions);
    EXPECT_EQ(stopped.catastrophe_exposure_hours.count(), 2 * missions);
    EXPECT_EQ(stopped.loss_time_hours.mean(), 0.0);
    if (afr > 0.5) {
      EXPECT_GT(stopped.events_processed, 2000 * missions);  // 2592 expected
      // The loss is certain, so the only variates are the gaps: one per
      // sampled failure plus one per mission, and the unused rest of the
      // last batch.
      const std::uint64_t sampled =
          stopped.events_processed - cfg.injected_events.size() * missions;
      EXPECT_GE(stopped.rng_draws, sampled + missions);
      EXPECT_LT(stopped.rng_draws, sampled + 128 * missions);
    } else {
      EXPECT_EQ(stopped.events_processed, cfg.injected_events.size() * missions);
    }
  }
}

TEST(FleetSim, ValidatesConfig) {
  FleetSimConfig cfg;
  cfg.mission_hours = 0.0;
  EXPECT_THROW(simulate_fleet(cfg, 1, 1), PreconditionError);
  cfg = toy_fleet();
  cfg.injected_events = {{1.0, static_cast<DiskId>(cfg.dc.total_disks())}};
  EXPECT_THROW(simulate_fleet(cfg, 1, 1), PreconditionError);
  // A non-positive or NaN AFR is refused up front, by the campaign too;
  // an AFR of 1 or more is a legal (hot) fleet.
  for (const double afr : {0.0, -0.1, std::nan("")}) {
    SCOPED_TRACE("afr " + std::to_string(afr));
    cfg = toy_fleet();
    cfg.failures.afr = afr;
    EXPECT_THROW(simulate_fleet(cfg, 1, 1), PreconditionError);
    CampaignConfig campaign;
    campaign.total_units = 4;
    EXPECT_THROW(run_fleet_campaign(cfg, campaign), PreconditionError);
  }
  cfg = toy_fleet();
  cfg.failures.afr = 2.0;
  EXPECT_NO_THROW(simulate_fleet(cfg, 1, 1));
}

}  // namespace
}  // namespace mlec
