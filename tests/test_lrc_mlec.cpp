// LRC as the network level of an MLEC stack, end to end: the byte-exact
// repair executor, the chunk-level planner, the count-level fleet
// simulator, and the estimator registry all consuming the same CodeModel.
// The headline property throughout: lrc(4,2,1) in place of rs(4+3) trades
// tolerance (min 2 vs 3) for locality (single-failure repairs read the
// local group, not k_n locals), and every layer must price and execute
// that trade consistently.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/crosscheck.hpp"
#include "analysis/fleet_sim.hpp"
#include "core/estimator.hpp"
#include "core/scenario.hpp"
#include "gf/code_model.hpp"
#include "sim/repair_executor.hpp"
#include "sim/repair_planner.hpp"
#include "util/error.hpp"

namespace mlec {
namespace {

// Width-7 network level: positions 0-3 data locals (groups {0,1} and
// {2,3}), 4-5 the groups' XOR parities, 6 the Cauchy global.
const LrcCode kNetLrc{4, 2, 1};
const MlecCode kCode{{4, 3}, {2, 1}};

DataCenterConfig toy_dc() {
  DataCenterConfig dc;
  dc.racks = 7;
  dc.enclosures_per_rack = 2;
  dc.disks_per_enclosure = 6;
  dc.disk_capacity_tb = 1.28e-6;
  return dc;
}

/// Fail `extra + 1` disks (> p_l) of network position `i`'s local stripe in
/// the map's first network stripe, making that local lost.
void lose_local(const StripeMap& map, MaterializedSystem& system, std::size_t i) {
  const auto& local = map.stripes().front().locals.at(i);
  system.fail_disks({local.disks[0], local.disks[1]});
}

// ---------------------------------------------------------------------------
// Repair executor: LRC network decodes are byte-exact.

class LrcExecutorMethods : public ::testing::TestWithParam<RepairMethod> {};

TEST_P(LrcExecutorMethods, LostLocalRepairsByteExact) {
  const Topology topo(toy_dc());
  const StripeMap map(topo, kCode, MlecScheme::kCC, 4, /*seed=*/31);
  MaterializedSystem system(map, 48, /*seed=*/5, LevelCode::make_lrc(kNetLrc));
  // One lost local (network position 0, group 0): the network-level decode
  // is an LRC local-group repair — group survivors {1, 4} suffice.
  lose_local(map, system, 0);
  const auto exec = system.execute(GetParam());
  EXPECT_TRUE(exec.verified) << to_string(GetParam());
  EXPECT_GT(exec.chunks_rebuilt, 0u);
  EXPECT_EQ(exec.unrecoverable_network_stripes, 0u);
}

TEST_P(LrcExecutorMethods, GlobalDecodePatternsRepairByteExact) {
  // Two lost locals in ONE group (positions 0 and 1): locality is gone and
  // the rebuild must route through the global parity. Still decodable
  // (2 <= min tolerance), still byte-exact.
  const Topology topo(toy_dc());
  const StripeMap map(topo, kCode, MlecScheme::kCC, 4, /*seed=*/33);
  MaterializedSystem system(map, 48, /*seed=*/6, LevelCode::make_lrc(kNetLrc));
  lose_local(map, system, 0);
  lose_local(map, system, 1);
  const auto exec = system.execute(GetParam());
  EXPECT_TRUE(exec.verified) << to_string(GetParam());
  EXPECT_EQ(exec.unrecoverable_network_stripes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, LrcExecutorMethods,
                         ::testing::ValuesIn(kAllRepairMethods));

TEST(LrcExecutor, FatalPatternIsCountedWhereRsWouldRecover) {
  // Wipe group 0 entirely: data locals 0, 1 and their XOR parity (network
  // position 4). Only 3 lost locals — an MDS (4+3) network level rebuilds
  // them; the LRC one cannot (the global covers a single extra erasure per
  // group at most) and must count the stripe unrecoverable, not crash.
  const Topology topo(toy_dc());
  const StripeMap map(topo, kCode, MlecScheme::kCC, 1, /*seed=*/13);
  {
    MaterializedSystem rs(map, 32, /*seed=*/3);
    for (std::size_t i : {0u, 1u, 4u}) lose_local(map, rs, i);
    const auto exec = rs.execute(RepairMethod::kRepairFailedOnly);
    EXPECT_TRUE(exec.verified);
    EXPECT_EQ(exec.unrecoverable_network_stripes, 0u);
  }
  {
    MaterializedSystem lrc(map, 32, /*seed=*/3, LevelCode::make_lrc(kNetLrc));
    for (std::size_t i : {0u, 1u, 4u}) lose_local(map, lrc, i);
    const auto exec = lrc.execute(RepairMethod::kRepairFailedOnly);
    EXPECT_GE(exec.unrecoverable_network_stripes, 1u);
  }
}

TEST(LrcExecutor, MismatchedNetworkLevelRejected) {
  const Topology topo(toy_dc());
  const StripeMap map(topo, kCode, MlecScheme::kCC, 1, 13);
  EXPECT_THROW(MaterializedSystem(map, 32, 3, LevelCode::make_lrc({4, 1, 1})),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Repair planner: the model prices LRC locality into network reads.

TEST(LrcPlanner, SingleLostLocalReadsTheGroupNotKn) {
  const Topology topo(toy_dc());
  // One stripe per network pool so the failed pool appears in exactly one
  // stripe, at data position 0 (C/C rotates the pool onto parity positions
  // in later stripes, which would blur the fan-in ratio below).
  const StripeMap map(topo, kCode, MlecScheme::kCC, 1, /*seed=*/21);
  // Lose one local stripe (2 failed disks in the first stripe's position 0).
  const auto& local = map.stripes().front().locals.front();
  const std::vector<DiskId> failed{local.disks[0], local.disks[1]};

  const auto local_model = make_code_model(LevelCode::make_rs(kCode.local));
  const auto rs_net = make_code_model(LevelCode::make_rs(kCode.network));
  const auto lrc_net = make_code_model(LevelCode::make_lrc(kNetLrc));
  for (const auto method : kAllRepairMethods) {
    const RepairPlan rs =
        plan_repair(map, failed, method, *rs_net, *local_model);
    const RepairPlan lrc =
        plan_repair(map, failed, method, *lrc_net, *local_model);
    // Identical structure (same catastrophe classification, same chunk
    // counts) — only the read fan-in per network-rebuilt chunk changes:
    // 2 group survivors instead of k_n = 4.
    EXPECT_EQ(rs.catastrophic_pools, lrc.catastrophic_pools);
    EXPECT_EQ(rs.network_write_chunks, lrc.network_write_chunks);
    EXPECT_EQ(rs.local_chunks(), lrc.local_chunks());
    EXPECT_GT(rs.network_read_chunks, 0.0) << to_string(method);
    EXPECT_DOUBLE_EQ(lrc.network_read_chunks, rs.network_read_chunks / 2.0)
        << to_string(method);
    // The legacy 3-arg overload is the RS model path, bit-for-bit.
    const RepairPlan legacy = plan_repair(map, failed, method);
    EXPECT_DOUBLE_EQ(legacy.network_read_chunks, rs.network_read_chunks);
    EXPECT_DOUBLE_EQ(legacy.local_read_chunks, rs.local_read_chunks);
    EXPECT_EQ(legacy.unrecoverable_network_stripes, rs.unrecoverable_network_stripes);
  }
}

TEST(LrcPlanner, FatalPatternUnrecoverableOnlyUnderLrc) {
  const Topology topo(toy_dc());
  const StripeMap map(topo, kCode, MlecScheme::kCC, 1, /*seed=*/13);
  std::vector<DiskId> failed;
  for (std::size_t i : {0u, 1u, 4u}) {
    const auto& local = map.stripes().front().locals.at(i);
    failed.push_back(local.disks[0]);
    failed.push_back(local.disks[1]);
  }
  const auto local_model = make_code_model(LevelCode::make_rs(kCode.local));
  const RepairPlan rs = plan_repair(map, failed, RepairMethod::kRepairMinimum,
                                    *make_code_model(LevelCode::make_rs(kCode.network)),
                                    *local_model);
  const RepairPlan lrc = plan_repair(map, failed, RepairMethod::kRepairMinimum,
                                     *make_code_model(LevelCode::make_lrc(kNetLrc)),
                                     *local_model);
  EXPECT_EQ(rs.unrecoverable_network_stripes, 0u);
  EXPECT_EQ(lrc.unrecoverable_network_stripes, 1u);
}

// ---------------------------------------------------------------------------
// Fleet simulator: the acceptance inequality — same fleet, same seed, LRC
// cross-rack repair traffic strictly below the RS equivalent.

TEST(LrcFleetSim, CrossRackTrafficBeatsRsAtTheSameSeed) {
  FleetSimConfig cfg;
  cfg.dc.racks = 7;
  cfg.dc.enclosures_per_rack = 2;
  cfg.dc.disks_per_enclosure = 18;  // 6 clustered (2+1) pools per enclosure
  cfg.dc.disk_capacity_tb = 20.0;
  cfg.code = kCode;
  cfg.scheme = MlecScheme::kCC;
  cfg.method = RepairMethod::kRepairFailedOnly;
  cfg.failures.afr = 0.4;

  const auto rs = simulate_fleet(cfg, 150, /*seed=*/42);
  cfg.network_level = LevelCode::make_lrc(kNetLrc);
  const auto lrc = simulate_fleet(cfg, 150, /*seed=*/42);

  // Same failure process, same catastrophes; only the repair fan-in and the
  // loss accounting differ. A loss would stop its mission's replay early
  // and could stop the two families at different records, so the equal
  // traffic counts below rest on neither family losing data at this seed.
  ASSERT_EQ(rs.data_loss_missions, 0u);
  ASSERT_EQ(lrc.data_loss_missions, 0u);
  ASSERT_EQ(rs.events_processed, lrc.events_processed);
  ASSERT_EQ(rs.catastrophic_pool_events, lrc.catastrophic_pool_events);
  ASSERT_GT(rs.catastrophic_pool_events, 0u);
  // Per rebuilt chunk: rs reads k_n = 4 and writes 1; lrc reads the mean
  // single-failure fan-in 16/7 and writes 1. Exactly (16/7+1)/5 of the
  // RS bill.
  EXPECT_GT(lrc.cross_rack_tb, 0.0);
  EXPECT_LT(lrc.cross_rack_tb, rs.cross_rack_tb);
  EXPECT_NEAR(lrc.cross_rack_tb / rs.cross_rack_tb, (16.0 / 7.0 + 1.0) / 5.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Scenario plumbing and the estimator registry.

Scenario lrc_scenario() {
  Scenario sc;
  sc.name = "lrc-in-mlec";
  sc.system.dc.racks = 7;
  sc.system.dc.enclosures_per_rack = 2;
  sc.system.dc.disks_per_enclosure = 8;
  sc.system.dc.disk_capacity_tb = 20.0;
  sc.system.code = kCode;
  sc.system.code.local = {3, 1};
  sc.system.network_family = CodeFamily::kLrc;
  sc.system.network_lrc = kNetLrc;
  sc.system.scheme = MlecScheme::kCC;
  sc.system.repair = RepairMethod::kRepairAll;
  sc.system.afr = 0.5;
  sc.missions = 800;
  sc.split_missions = 4000;
  sc.seed = 42;
  return sc;
}

TEST(LrcScenario, MismatchedShapeRejectedMarkovSkipsLrcDpRuns) {
  Scenario sc = lrc_scenario();
  EXPECT_NO_THROW(sc.validate());
  // The mlec network part must carry the LRC arithmetic: k_n = k, p_n = l+r.
  Scenario bad = sc;
  bad.system.network_lrc = {4, 1, 1};  // width 6 != network width 7
  EXPECT_THROW(bad.validate(), PreconditionError);

  EXPECT_FALSE(find_estimator("markov")->applicability(sc).empty());
  EXPECT_TRUE(find_estimator("dp")->applicability(sc).empty());
  EXPECT_TRUE(find_estimator("sim")->applicability(sc).empty());
  // The burst engine's loss cells assume MDS counting.
  Scenario bursty = sc;
  bursty.bursts.bursts_per_year = 0.5;
  EXPECT_FALSE(find_estimator("dp")->applicability(bursty).empty());
}

TEST(LrcScenario, SimAndClosedFormsAgreeOnTheCrosscheckScenario) {
  // The bundled crosscheck_lrc.ini scenario, inline: sim, split, and dp all
  // consume the model's (min tolerance, loss fraction) pair, so their
  // estimates must land within the default nines tolerance.
  CrosscheckOptions options;
  options.methods = {"sim", "split", "dp"};
  const CrosscheckReport report = run_crosscheck(lrc_scenario(), options);
  EXPECT_EQ(report.methods_run(), 3u);
  EXPECT_TRUE(report.agreed()) << report.table();
}

TEST(LrcScenario, LrcToleranceCostsNinesVersusRsAtEqualOverhead) {
  // Same width, same overhead, same fleet: the LRC network level loses
  // data at 3-pool overlaps that rs(4+3) survives, so its closed-form PDL
  // must be at least the RS one. (What LRC buys back is the repair traffic
  // — the fleet-sim inequality above.)
  Scenario lrc = lrc_scenario();
  Scenario rs = lrc_scenario();
  rs.system.network_family = CodeFamily::kRs;
  const Estimate e_lrc = find_estimator("dp")->estimate(lrc, {});
  const Estimate e_rs = find_estimator("dp")->estimate(rs, {});
  EXPECT_GE(e_lrc.pdl, e_rs.pdl);
}

}  // namespace
}  // namespace mlec
