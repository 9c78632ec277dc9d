#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/spec_io.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

namespace mlec {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// 6 racks x 2 enclosures x 8 disks of (2+1)/(3+1) at 50% AFR: hot enough
/// that tens of missions observe catastrophes and losses.
Scenario hot_scenario() {
  Scenario sc;
  sc.system.dc.racks = 6;
  sc.system.dc.enclosures_per_rack = 2;
  sc.system.dc.disks_per_enclosure = 8;
  sc.system.dc.disk_capacity_tb = 20.0;
  sc.system.code = {{2, 1}, {3, 1}};
  sc.system.scheme = MlecScheme::kCC;
  sc.system.repair = RepairMethod::kRepairAll;
  sc.system.afr = 0.5;
  sc.missions = 64;
  sc.split_missions = 2000;
  sc.seed = 2023;
  return sc;
}

TEST(EstimatorRegistry, FourMethodsInPaperOrder) {
  const auto& registry = estimator_registry();
  ASSERT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry[0]->name(), "sim");
  EXPECT_EQ(registry[1]->name(), "split");
  EXPECT_EQ(registry[2]->name(), "dp");
  EXPECT_EQ(registry[3]->name(), "markov");
  for (const Estimator* e : registry) {
    EXPECT_EQ(find_estimator(e->name()), e);
    EXPECT_FALSE(e->describe().empty());
  }
  EXPECT_EQ(find_estimator("montecarlo"), nullptr);
}

/// The paper default with an LRC network level and a burst climate: only
/// dp folds in bursts, and dp prices burst cells with MDS counting.
Scenario lrc_with_bursts() {
  Scenario sc = Scenario::paper_default();
  sc.system.network_family = CodeFamily::kLrc;
  sc.system.network_lrc = {10, 1, 1};
  sc.bursts.bursts_per_year = 1.0;
  return sc;
}

TEST(EstimatorApplicability, LrcWithBurstsNarrowsToNothing) {
  const Scenario sc = lrc_with_bursts();
  EXPECT_NO_THROW(sc.validate());
  for (const Estimator* e : estimator_registry())
    EXPECT_FALSE(e->applicability(sc).empty()) << e->name();
}

TEST(EstimatorApplicability, BurstsAreDpOnly) {
  Scenario sc = Scenario::paper_default();
  sc.bursts.bursts_per_year = 1.0;
  EXPECT_FALSE(find_estimator("sim")->applicability(sc).empty());
  EXPECT_FALSE(find_estimator("split")->applicability(sc).empty());
  EXPECT_FALSE(find_estimator("markov")->applicability(sc).empty());
  EXPECT_TRUE(find_estimator("dp")->applicability(sc).empty());
}

TEST(EstimatorApplicability, UreIsDpOnly) {
  Scenario sc = Scenario::paper_default();
  sc.ure_per_bit = 1e-16;
  EXPECT_FALSE(find_estimator("sim")->applicability(sc).empty());
  EXPECT_FALSE(find_estimator("split")->applicability(sc).empty());
  EXPECT_FALSE(find_estimator("markov")->applicability(sc).empty());
  EXPECT_TRUE(find_estimator("dp")->applicability(sc).empty());
}

TEST(EstimatorApplicability, DeclusteredLocalSplitsDpAndMarkov) {
  Scenario sc = Scenario::paper_default();
  sc.system.scheme = MlecScheme::kCD;
  sc.priority_repair = true;
  EXPECT_TRUE(find_estimator("dp")->applicability(sc).empty());
  EXPECT_FALSE(find_estimator("markov")->applicability(sc).empty());
  sc.priority_repair = false;
  EXPECT_FALSE(find_estimator("dp")->applicability(sc).empty());
  EXPECT_TRUE(find_estimator("markov")->applicability(sc).empty());
}

TEST(EstimatorApplicability, DeclusteredNetworkExcludesMarkov) {
  Scenario sc = Scenario::paper_default();
  sc.system.scheme = MlecScheme::kDC;
  sc.priority_repair = false;
  EXPECT_FALSE(find_estimator("markov")->applicability(sc).empty());
}

TEST(Estimators, EstimateThrowsOutsideTheDomain) {
  Scenario ure = Scenario::paper_default();
  ure.ure_per_bit = 1e-16;
  EXPECT_THROW(find_estimator("sim")->estimate(ure), PreconditionError);
  EXPECT_THROW(find_estimator("dp")->estimate(lrc_with_bursts()), PreconditionError);
}

TEST(Estimators, AnalyticPairAgreesOnThePaperDefault) {
  const Scenario sc = Scenario::paper_default();
  const Estimate dp = find_estimator("dp")->estimate(sc);
  const Estimate markov = find_estimator("markov")->estimate(sc);
  EXPECT_FALSE(dp.stochastic);
  EXPECT_FALSE(markov.stochastic);
  EXPECT_DOUBLE_EQ(dp.pdl_lo, dp.pdl);
  EXPECT_DOUBLE_EQ(dp.pdl_hi, dp.pdl);
  EXPECT_GT(dp.nines, 20.0);
  // The two share the stage-2 closed forms; the chains differ only in the
  // repair-time distribution assumption.
  EXPECT_NEAR(dp.nines, markov.nines, 1.0);
  EXPECT_GT(dp.exposure_hours, 0.0);
  EXPECT_GT(markov.cat_rate_per_year, 0.0);
}

TEST(Estimators, SimProducesACoherentStochasticEstimate) {
  const Scenario sc = hot_scenario();
  const Estimate e = find_estimator("sim")->estimate(sc);
  EXPECT_EQ(e.method, "sim");
  EXPECT_TRUE(e.stochastic);
  EXPECT_EQ(e.samples, sc.missions);
  EXPECT_GT(e.cat_rate_per_year, 0.0);
  EXPECT_LE(e.pdl_lo, e.pdl);
  EXPECT_LE(e.pdl, e.pdl_hi);
  EXPECT_FALSE(e.truncated);
  EXPECT_FALSE(e.resumed);
}

TEST(Estimators, SplitFallsBackToClosedFormWhenStageOneSeesNothing) {
  Scenario sc = Scenario::paper_default();  // 1% AFR: no catastrophes in 500
  sc.split_missions = 500;
  const Estimate e = find_estimator("split")->estimate(sc);
  EXPECT_FALSE(e.stochastic);
  EXPECT_NE(e.provenance.find("closed-form stage 1"), std::string::npos);
  EXPECT_GT(e.nines, 10.0);
}

TEST(Estimators, SplitReportsStageOneStatisticsWhenHot) {
  const Scenario sc = hot_scenario();
  const Estimate e = find_estimator("split")->estimate(sc);
  EXPECT_TRUE(e.stochastic);
  EXPECT_GT(e.samples, 0u);
  EXPECT_GT(e.cat_rate_per_year, 0.0);
  EXPECT_LE(e.pdl_lo, e.pdl);
  EXPECT_LE(e.pdl, e.pdl_hi);
}

TEST(Estimators, SimKillAndResumeIsBitIdentical) {
  const std::string base = temp_path("estimate_resume");
  std::remove((base + ".sim").c_str());
  const Scenario sc = hot_scenario();

  EstimateOptions uninterrupted;
  uninterrupted.checkpoint_every = 8;  // 8 blocks, so half the budget stops early
  const Estimate full = find_estimator("sim")->estimate(sc, uninterrupted);

  EstimateOptions first_half = uninterrupted;
  first_half.checkpoint_path = base;  // journal lands at base + ".sim"
  first_half.unit_budget = sc.missions / 2;
  const Estimate partial = find_estimator("sim")->estimate(sc, first_half);
  EXPECT_TRUE(partial.truncated);
  EXPECT_LT(partial.samples, sc.missions);

  EstimateOptions second_half = uninterrupted;
  second_half.checkpoint_path = base;
  second_half.resume = true;
  const Estimate resumed = find_estimator("sim")->estimate(sc, second_half);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.truncated);

  EXPECT_EQ(resumed.samples, full.samples);
  EXPECT_EQ(resumed.pdl, full.pdl);  // bit-exact, not approximate
  EXPECT_EQ(resumed.cat_rate_per_year, full.cat_rate_per_year);
  EXPECT_EQ(resumed.cross_rack_tb, full.cross_rack_tb);
  std::remove((base + ".sim").c_str());
}

TEST(Estimators, SplitKillAndResumeIsBitIdentical) {
  const std::string base = temp_path("estimate_resume_split");
  std::remove((base + ".split").c_str());
  const Scenario sc = hot_scenario();

  const Estimate full = find_estimator("split")->estimate(sc);

  EstimateOptions first_half;
  first_half.checkpoint_path = base;
  first_half.unit_budget = sc.split_missions / 2;
  const Estimate partial = find_estimator("split")->estimate(sc, first_half);
  EXPECT_TRUE(partial.truncated);

  EstimateOptions second_half;
  second_half.checkpoint_path = base;
  second_half.resume = true;
  const Estimate resumed = find_estimator("split")->estimate(sc, second_half);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.samples, full.samples);
  EXPECT_EQ(resumed.pdl, full.pdl);
  EXPECT_EQ(resumed.cat_rate_per_year, full.cat_rate_per_year);
  std::remove((base + ".split").c_str());
}

TEST(Estimators, CampaignKnobsReachTheCampaign) {
  // checkpoint_every sets the block size, and the unit budget claims whole
  // blocks: with the default 256 the run would take 256 missions, not 8.
  const std::string path = std::string(MLEC_SCENARIO_DIR) + "/crosscheck_mlec.ini";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  Scenario sc = load_scenario(IniFile::parse(in));
  sc.missions = sc.split_missions = 1000;
  EstimateOptions options;
  options.checkpoint_every = 8;
  options.unit_budget = 8;
  for (const char* method : {"sim", "split"}) {
    SCOPED_TRACE(method);
    const Estimate e = find_estimator(method)->estimate(sc, options);
    EXPECT_EQ(e.samples, 8u);
    EXPECT_TRUE(e.truncated);
    EXPECT_EQ(e.campaign.shards.size(), 1u);
  }
}

TEST(Estimators, NinesMatchesPdl) {
  const Estimate e = find_estimator("dp")->estimate(Scenario::paper_default());
  EXPECT_NEAR(e.nines, -std::log10(e.pdl), 1e-9);
}

}  // namespace
}  // namespace mlec
