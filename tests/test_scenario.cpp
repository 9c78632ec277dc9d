#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include "core/spec_io.hpp"
#include "placement/schemes.hpp"

namespace mlec {
namespace {

Scenario reparse(const Scenario& sc) {
  return load_scenario(IniFile::parse_string(format_scenario(sc)));
}

TEST(Scenario, PaperDefaultValidates) {
  const Scenario sc = Scenario::paper_default();
  EXPECT_NO_THROW(sc.validate());
  EXPECT_EQ(sc.system.dc.total_disks(), 57600u);
  EXPECT_EQ(sc.system.code, MlecCode::paper_default());
  EXPECT_FALSE(sc.has_bursts());
}

TEST(Scenario, RoundTripsEverySchemeAndRepairMethod) {
  for (const MlecScheme scheme : kAllMlecSchemes) {
    for (const RepairMethod repair : kAllRepairMethods) {
      Scenario sc = Scenario::paper_default();
      sc.system.scheme = scheme;
      sc.system.repair = repair;
      const Scenario back = reparse(sc);
      EXPECT_EQ(back.system.scheme, scheme) << to_string(scheme);
      EXPECT_EQ(back.system.repair, repair) << to_string(repair);
      EXPECT_EQ(back.system.code, sc.system.code);
    }
  }
}

TEST(Scenario, RoundTripsEveryExtensionField) {
  Scenario sc = Scenario::paper_default();
  sc.name = "extended";
  sc.system.afr = 0.035;
  sc.priority_repair = false;
  sc.ure_per_bit = 1e-16;
  sc.bursts = {2.5, 4, 45};
  sc.missions = 123;
  sc.split_missions = 456;
  sc.burst_trials = 789;
  sc.seed = 31337;
  const Scenario back = reparse(sc);
  EXPECT_EQ(back.name, "extended");
  EXPECT_DOUBLE_EQ(back.system.afr, 0.035);
  EXPECT_FALSE(back.priority_repair);
  EXPECT_DOUBLE_EQ(back.ure_per_bit, 1e-16);
  EXPECT_TRUE(back.has_bursts());
  EXPECT_DOUBLE_EQ(back.bursts.bursts_per_year, 2.5);
  EXPECT_EQ(back.bursts.racks, 4u);
  EXPECT_EQ(back.bursts.failures, 45u);
  EXPECT_EQ(back.missions, 123u);
  EXPECT_EQ(back.split_missions, 456u);
  EXPECT_EQ(back.burst_trials, 789u);
  EXPECT_EQ(back.seed, 31337u);
}

TEST(Scenario, ExampleScenarioParsesToPaperDefaults) {
  const Scenario sc = load_scenario(IniFile::parse_string(example_scenario()));
  EXPECT_NO_THROW(sc.validate());
  EXPECT_EQ(sc.system.dc.total_disks(), 57600u);
  EXPECT_TRUE(sc.priority_repair);
}

TEST(Scenario, ValidateRejectsNonsense) {
  Scenario afr = Scenario::paper_default();
  afr.system.afr = 0.0;
  EXPECT_THROW(afr.validate(), PreconditionError);

  Scenario missions = Scenario::paper_default();
  missions.missions = 0;
  EXPECT_THROW(missions.validate(), PreconditionError);
}

TEST(Scenario, ConversionsCarryTheSamePhysics) {
  Scenario sc = Scenario::paper_default();
  sc.system.afr = 0.02;
  sc.system.detection_hours = 0.25;
  sc.ure_per_bit = 1e-17;
  sc.priority_repair = false;

  const FleetSimConfig fleet = sc.fleet_config();
  EXPECT_EQ(fleet.dc.total_disks(), sc.system.dc.total_disks());
  EXPECT_DOUBLE_EQ(fleet.failures.afr, 0.02);
  EXPECT_DOUBLE_EQ(fleet.detection_hours, 0.25);
  EXPECT_FALSE(fleet.priority_repair);

  const DurabilityEnv env = sc.durability_env();
  EXPECT_DOUBLE_EQ(env.afr, 0.02);
  EXPECT_DOUBLE_EQ(env.ure_per_bit, 1e-17);

  const LocalPoolSimConfig pool = sc.local_pool_config();
  EXPECT_EQ(pool.code, sc.system.code.local);
  EXPECT_DOUBLE_EQ(pool.afr, 0.02);
  EXPECT_FALSE(pool.priority_repair);

  const BurstPdlConfig burst = sc.burst_config();
  EXPECT_EQ(burst.trials_per_cell, sc.burst_trials);
  EXPECT_EQ(burst.seed, sc.seed);
}

}  // namespace
}  // namespace mlec
