#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.5, -3.0, 7.0, 0.5};
  RunningStats s;
  for (double x : xs) s.add(x);
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_NEAR(s.sem(), std::sqrt(var / 5.0), 1e-12);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(5);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10 - 5;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 2.0, 1e-12);
}

TEST(ProportionEstimate, PointEstimate) {
  ProportionEstimate p;
  for (int i = 0; i < 30; ++i) p.add(i < 12);
  EXPECT_DOUBLE_EQ(p.estimate(), 0.4);
  EXPECT_EQ(p.successes(), 12u);
  EXPECT_EQ(p.trials(), 30u);
}

TEST(ProportionEstimate, WilsonBracketsTruth) {
  Rng rng(17);
  int covered = 0;
  const int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    ProportionEstimate p;
    for (int i = 0; i < 100; ++i) p.add(rng.bernoulli(0.3));
    const auto ci = p.wilson();
    EXPECT_LE(ci.lo, ci.hi);
    if (ci.lo <= 0.3 && 0.3 <= ci.hi) ++covered;
  }
  // 95% interval: expect coverage near 190/200, allow slack.
  EXPECT_GE(covered, 180);
}

TEST(ProportionEstimate, WilsonBracketsTheEstimateAtTheEdges) {
  // At p = 0 and p = 1 the score interval's edge lands within rounding of
  // p; it must still contain the point estimate, exactly.
  for (std::uint64_t n = 1; n <= 20000; ++n) {
    ProportionEstimate all, none;
    all.add_many(n, n);
    none.add_many(0, n);
    const auto hi = all.wilson();
    ASSERT_EQ(hi.hi, 1.0) << "n = " << n;
    ASSERT_LE(hi.lo, 1.0) << "n = " << n;
    const auto lo = none.wilson();
    ASSERT_EQ(lo.lo, 0.0) << "n = " << n;
    ASSERT_GE(lo.hi, 0.0) << "n = " << n;
  }
}

TEST(ProportionEstimate, EmptyInterval) {
  ProportionEstimate p;
  const auto ci = p.wilson();
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 1.0);
}

TEST(RunningStats, RawRoundTripIsExact) {
  RunningStats s;
  for (double x : {1.0, 2.5, -3.0, 7.25}) s.add(x);
  const auto restored = RunningStats::from_raw(s.raw());
  EXPECT_TRUE(restored == s);
  EXPECT_EQ(restored.mean(), s.mean());
  EXPECT_EQ(restored.count(), s.count());
  // Continuing to accumulate from the restored copy matches the original.
  RunningStats cont = restored;
  s.add(11.0);
  cont.add(11.0);
  EXPECT_TRUE(cont == s);
}

}  // namespace
}  // namespace mlec
