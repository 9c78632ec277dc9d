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
                {0.37956431707335081, 0.34024626815500397, 0.41888236599169765, 6000,
                 0.47733333333333333});
  expect_pinned("sim", sc, {0.38, 0.34204132298869255, 0.41948548527852897, 600, 0.38});
}

TEST(Golden, CrosscheckMlec) {
  const Scenario sc = bundled("crosscheck_mlec.ini");
  expect_pinned("split", sc,
                {0.0027007787458968365, 0.0021412459022007724, 0.0032603115895929002, 6000,
                 1.4319999999999999});
  expect_pinned("sim", sc,
                {0.0026666666666666666, 0.0010374882379011814, 0.0068366522250867413, 1500,
                 1.4379999999999999});
}

TEST(Golden, CrosscheckLrc) {
  const Scenario sc = bundled("crosscheck_lrc.ini");
  expect_pinned("split", sc,
                {2.2355044665369292e-05, 1.5407947426339625e-05, 2.9302141904398959e-05, 6000,
                 1.6706666666666667});
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
                {5.9788510570600031e-11, 3.9144784634626643e-11, 8.0432236506573419e-11, 400000,
                 2.0880000000000001});
}

}  // namespace
}  // namespace mlec
