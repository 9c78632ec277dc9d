// Golden pins for the campaign-backed estimators: the exact bits of `split`
// and `sim` at fixed mission counts (no target RSE, fixed shard counts) on
// the bundled cross-check scenarios, and of `split` on the paper's
// 57,600-disk topology. A change that claims to keep every estimate
// bit-identical must pass these unchanged; a change that moves them on
// purpose (new physics, a new RNG schedule) updates the pins in the same
// commit and says why. On a mismatch the test prints the actual pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/estimator.hpp"
#include "core/spec_io.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

namespace mlec {
namespace {

struct Pin {
  double pdl;
  double pdl_lo;
  double pdl_hi;
  std::uint64_t samples;
  double cat_rate_per_year;
};

std::string as_pin(const Estimate& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{%.17g, %.17g, %.17g, %llu, %.17g}", e.pdl, e.pdl_lo,
                e.pdl_hi, static_cast<unsigned long long>(e.samples), e.cat_rate_per_year);
  return buf;
}

void expect_pinned(const char* method, const Scenario& scenario, std::size_t shards,
                   const Pin& pin) {
  SCOPED_TRACE(std::string(method) + " on " + scenario.name);
  EstimateOptions options;
  options.shards = shards;
  const Estimate e = find_estimator(method)->estimate(scenario, options);
  ASSERT_FALSE(e.truncated);
  const std::string actual = "actual pin: " + as_pin(e);
  EXPECT_EQ(e.pdl, pin.pdl) << actual;
  EXPECT_EQ(e.pdl_lo, pin.pdl_lo) << actual;
  EXPECT_EQ(e.pdl_hi, pin.pdl_hi) << actual;
  EXPECT_EQ(e.samples, pin.samples) << actual;
  EXPECT_EQ(e.cat_rate_per_year, pin.cat_rate_per_year) << actual;
}

Scenario bundled(const std::string& file) {
  const std::string path = std::string(MLEC_SCENARIO_DIR) + "/" + file;
  std::ifstream in(path);
  MLEC_REQUIRE(static_cast<bool>(in), "cannot open scenario file " + path);
  return load_scenario(IniFile::parse(in));
}

TEST(Golden, CrosscheckSlec) {
  const Scenario sc = bundled("crosscheck_slec.ini");
  expect_pinned("split", sc, 4,
                {0.38039101339723025, 0.34104224727881594, 0.41973977951564456, 6000,
                 0.47866666666666668});
  expect_pinned("sim", sc, 4,
                {0.37, 0.3323095381855391, 0.40934450410395085, 600, 0.37});
}

TEST(Golden, CrosscheckMlec) {
  const Scenario sc = bundled("crosscheck_mlec.ini");
  expect_pinned("split", sc, 4,
                {0.0027158316636529006, 0.0021539644208089337, 0.0032776989064968675, 6000,
                 1.4359999999999999});
  expect_pinned("sim", sc, 4,
                {0.0033333333333333335, 0.0014246155145931816, 0.0077794523740475734, 1500,
                 1.4633333333333334});
}

TEST(Golden, CrosscheckLrc) {
  const Scenario sc = bundled("crosscheck_lrc.ini");
  expect_pinned("split", sc, 4,
                {2.2542330630016853e-05, 1.5546795526786996e-05, 2.953786573324671e-05, 6000,
                 1.6753333333333333});
  expect_pinned("sim", sc, 4,
                {0, 0, 0.0025544307603765975, 1500, 1.7086666666666666});
}

TEST(Golden, PaperScaleSplit) {
  // The paper's topology (60 racks x 8 enclosures x 120 disks) with its
  // (10+2)/(17+3) C/C code under R_MIN, at an AFR high enough that stage 1
  // observes catastrophes.
  const Scenario sc = load_scenario(IniFile::parse_string(
      "[scenario]\nname = paper-scale\n"
      "[datacenter]\nracks = 60\nenclosures_per_rack = 8\ndisks_per_enclosure = 120\n"
      "[code]\nmlec = (10+2)/(17+3)\nscheme = C/C\nrepair = R_MIN\n"
      "[failures]\nafr = 0.3\n"
      "[sim]\nsplit_missions = 400000\nseed = 2023\n"));
  expect_pinned("split", sc, 8,
                {7.3471695179488715e-11, 4.8488164370383249e-11, 9.8455225988594173e-11, 400000,
                 2.1528});
}

}  // namespace
}  // namespace mlec
