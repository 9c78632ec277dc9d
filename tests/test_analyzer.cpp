// The deployment analysis behind `mlecctl analyze`: deployment_report() and
// the Scenario-level models it prints.
#include "core/report.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "analysis/burst_pdl.hpp"
#include "analysis/repair_time.hpp"
#include "analysis/traffic.hpp"
#include "core/estimator.hpp"
#include "core/spec_io.hpp"
#include "util/table.hpp"

namespace mlec {
namespace {

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(Analyzer, PaperDefaultsReportEndToEnd) {
  const std::string report = deployment_report(Scenario{});
  EXPECT_TRUE(contains(report, "(10+2)/(17+3)"));
  EXPECT_TRUE(contains(report, "57600 disks"));
  EXPECT_TRUE(contains(report, "R_MIN"));
  EXPECT_TRUE(contains(report, "durability"));
}

TEST(Analyzer, NumbersAgreeWithUnderlyingModels) {
  Scenario sc;
  sc.system.scheme = MlecScheme::kCD;
  sc.system.repair = RepairMethod::kRepairHybrid;
  const SystemSpec& s = sc.system;
  const RepairTimeModel rtm(s.dc, s.bandwidth, s.code);
  const auto row = rtm.table2_row(s.scheme);
  const auto traffic = catastrophic_injection_traffic(s.dc, s.code, s.scheme, s.repair);
  const Estimate dp = find_estimator("dp")->estimate(sc);

  EXPECT_NEAR(row.single_disk_mbps, 264.0, 1.0);
  EXPECT_NEAR(rtm.single_disk_repair_hours(s.scheme), 21.0, 0.1);
  EXPECT_NEAR(rtm.catastrophic_repair_hours(s.scheme), 2666.7, 1.0);
  EXPECT_NEAR(traffic.cross_rack_tb(), 3.11, 0.05);
  EXPECT_GT(dp.nines, 25.0);
  EXPECT_GT(rtm.method_repair_time(s.scheme, s.repair).local_hours, 0.0);

  // The report prints exactly those model numbers.
  const std::string report = deployment_report(sc);
  EXPECT_TRUE(contains(report, "single disk " + Table::num(row.single_disk_mbps) + " MB/s"));
  EXPECT_TRUE(contains(report, Table::num(traffic.cross_rack_tb()) + " TB cross-rack"));
  EXPECT_TRUE(contains(report, "durability: " + Table::num(dp.nines, 3) + " nines"));
}

TEST(Analyzer, BurstPdlDelegates) {
  BurstPdlConfig cfg = Scenario{}.burst_config();
  cfg.trials_per_cell = 50;
  const SystemSpec s;
  // p_n racks always survive.
  EXPECT_EQ(BurstPdlEngine(cfg).mlec_cell(s.code, s.scheme, 1, 60), 0.0);
}

TEST(Analyzer, AnnualTrafficIsTiny) {
  Scenario sc;
  sc.system.scheme = MlecScheme::kCD;
  const SystemSpec& s = sc.system;
  const double cat_rate = find_estimator("dp")->estimate(sc).cat_rate_per_year;
  // "A few TB every thousand of years" (paper §5.1.4).
  EXPECT_LT(mlec_annual_traffic(s.dc, s.code, s.scheme, s.repair, cat_rate)
                .cross_rack_tb_per_year,
            0.1);
}

TEST(Analyzer, SplittingPathAccepted) {
  const Scenario sc;
  const SystemSpec& s = sc.system;
  LocalPoolStats stage1;
  stage1.cat_rate_per_pool_year = 1e-7;
  stage1.lost_stripe_fraction = 0.4;
  const auto r = mlec_durability(sc.durability_env(), s.code, s.scheme, s.repair, stage1);
  EXPECT_NEAR(r.stage1.cat_rate_per_pool_year, 1e-7, 1e-15);
}

TEST(Analyzer, InvalidSpecRejected) {
  Scenario sc;
  sc.system.afr = 0.0;
  EXPECT_THROW(deployment_report(sc), PreconditionError);
  sc = {};
  sc.system.code.local = {16, 3};  // 120 % 19 != 0 under C/C
  EXPECT_THROW(deployment_report(sc), PreconditionError);
}

TEST(Analyzer, ReportPrintsTheDpNinesForAnLrcNetwork) {
  std::ifstream in(std::string(MLEC_SCENARIO_DIR) + "/crosscheck_lrc.ini");
  ASSERT_TRUE(in) << "missing bundled scenario";
  const Scenario sc = load_scenario(IniFile::parse(in));
  ASSERT_EQ(sc.system.network_family, CodeFamily::kLrc);
  const Estimate dp = find_estimator("dp")->estimate(sc);
  // The LRC network level loses data at 3 overlapping pools (min tolerance
  // 2), not at p_n + 1 = 4 as an RS level would: about 5 nines, not 8.
  EXPECT_NEAR(dp.nines, 5.01, 0.01);
  EXPECT_TRUE(contains(deployment_report(sc), "durability: " + Table::num(dp.nines, 3) +
                                                  " nines (PDL " + Table::num(dp.pdl, 3)));
}

TEST(Analyzer, ReportGivesDpReasonOutsideItsDomain) {
  // dp's declustered closed form models priority reconstruction only.
  Scenario sc;
  sc.system.scheme = MlecScheme::kCD;
  sc.priority_repair = false;
  const std::string why = find_estimator("dp")->applicability(sc);
  ASSERT_FALSE(why.empty());
  const std::string report = deployment_report(sc);
  EXPECT_TRUE(contains(report, "durability: n/a (dp: " + why + ")"));
  EXPECT_FALSE(contains(report, "nines"));
}

}  // namespace
}  // namespace mlec
