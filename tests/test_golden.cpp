// Golden pins for the campaign-backed estimators: the exact bits of `split`
// and `sim` at fixed mission counts (no target RSE, default block size) on
// the bundled cross-check scenarios, and of `split` on the paper's
// 57,600-disk topology. Each pin holds on a pool of one thread and of four:
// the answer does not depend on the worker count. A change that claims to keep every estimate
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
#include "util/thread_pool.hpp"

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

void expect_pinned(const char* method, const Scenario& scenario, const Pin& pin) {
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(std::string(method) + " on " + scenario.name + ", " +
                 std::to_string(threads) + " thread(s)");
    ThreadPool pool(threads);
    EstimateOptions options;
    options.pool = &pool;
    const Estimate e = find_estimator(method)->estimate(scenario, options);
    ASSERT_FALSE(e.truncated);
    const std::string actual = "actual pin: " + as_pin(e);
    EXPECT_EQ(e.pdl, pin.pdl) << actual;
    EXPECT_EQ(e.pdl_lo, pin.pdl_lo) << actual;
    EXPECT_EQ(e.pdl_hi, pin.pdl_hi) << actual;
    EXPECT_EQ(e.samples, pin.samples) << actual;
    EXPECT_EQ(e.cat_rate_per_year, pin.cat_rate_per_year) << actual;
  }
}

Scenario bundled(const std::string& file) {
  const std::string path = std::string(MLEC_SCENARIO_DIR) + "/" + file;
  std::ifstream in(path);
  MLEC_REQUIRE(static_cast<bool>(in), "cannot open scenario file " + path);
  return load_scenario(IniFile::parse(in));
}

TEST(Golden, CrosscheckSlec) {
  const Scenario sc = bundled("crosscheck_slec.ini");
  expect_pinned("split", sc,
                {0.38116622509079562, 0.37438653974054092, 0.38794591044105026, 6000,
                 0.47991858047149571});
  expect_pinned("sim", sc, {0.38, 0.34204132298869255, 0.41948548527852897, 600, 0.38});
}

TEST(Golden, CrosscheckMlec) {
  const Scenario sc = bundled("crosscheck_mlec.ini");
  expect_pinned("split", sc,
                {0.0027300031219689973, 0.0026328876854281344, 0.0028271185585098607, 6000,
                 1.439755741414487});
  expect_pinned("sim", sc,
                {0.0026666666666666666, 0.0010374882379011814, 0.0068366522250867413, 1500,
                 1.4379999999999999});
}

TEST(Golden, CrosscheckLrc) {
  const Scenario sc = bundled("crosscheck_lrc.ini");
  expect_pinned("split", sc,
                {2.2719126589542201e-05, 2.1506832428329382e-05, 2.3931420750755019e-05, 6000,
                 1.6797150316502349});
  expect_pinned("sim", sc,
                {0, 0, 0.0025544307603765975, 1500, 1.6799999999999999});
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
  expect_pinned("split", sc,
                {8.0860803868498824e-11, 7.4947283561228474e-11, 8.6774324175769175e-11, 400000,
                 2.2204474025767413});
}

}  // namespace
}  // namespace mlec
