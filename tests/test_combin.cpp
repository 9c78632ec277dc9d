#include "math/combin.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace mlec {
namespace {

TEST(LogFactorial, SmallValuesExact) {
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log_factorial(1), 0.0);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-10);
}

TEST(LogFactorial, LargeValuesUseLgamma) {
  // Consistency across the table boundary.
  EXPECT_NEAR(log_factorial(5000), std::lgamma(5001.0), 1e-6);
}

TEST(Choose, MatchesPascal) {
  for (std::int64_t n = 0; n <= 20; ++n)
    for (std::int64_t k = 1; k < n; ++k)
      EXPECT_NEAR(choose(n, k), choose(n - 1, k - 1) + choose(n - 1, k), 1e-6 * choose(n, k));
}

TEST(Choose, EdgeCases) {
  EXPECT_DOUBLE_EQ(choose(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(choose(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(choose(10, 11), 0.0);
  EXPECT_DOUBLE_EQ(choose(10, -1), 0.0);
  EXPECT_NEAR(choose(57600, 2), 57600.0 * 57599.0 / 2.0, 1e3);
}

TEST(Hypergeom, PmfSumsToOne) {
  double total = 0;
  for (std::int64_t k = 0; k <= 20; ++k) total += hypergeom_pmf(120, 4, 20, k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Hypergeom, KnownValue) {
  // P(all 4 failed disks land inside a specific 20-chunk stripe of a 120-disk
  // pool) = (20*19*18*17)/(120*119*118*117) — the paper's Dp lost-stripe rate.
  const double expected = (20.0 * 19 * 18 * 17) / (120.0 * 119 * 118 * 117);
  EXPECT_NEAR(hypergeom_pmf(120, 4, 20, 4), expected, 1e-15);
  EXPECT_NEAR(hypergeom_tail_geq(120, 4, 20, 4), expected, 1e-15);
}

TEST(Hypergeom, TailMonotoneAndBounded) {
  double prev = 1.0;
  for (std::int64_t t = 0; t <= 10; ++t) {
    const double tail = hypergeom_tail_geq(100, 30, 10, t);
    EXPECT_LE(tail, prev + 1e-12);
    EXPECT_GE(tail, 0.0);
    prev = tail;
  }
  EXPECT_DOUBLE_EQ(hypergeom_tail_geq(100, 30, 10, 0), 1.0);
  EXPECT_DOUBLE_EQ(hypergeom_tail_geq(100, 30, 10, 11), 0.0);
}

TEST(Hypergeom, RejectsBadArguments) {
  EXPECT_THROW(hypergeom_pmf(10, 11, 5, 2), PreconditionError);
  EXPECT_THROW(hypergeom_pmf(10, 5, 11, 2), PreconditionError);
}

// Brute-force Poisson-binomial by enumerating all outcomes.
double brute_pb_tail(const std::vector<double>& probs, std::size_t t) {
  const std::size_t n = probs.size();
  double tail = 0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    std::size_t ones = 0;
    double prob = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        prob *= probs[i];
        ++ones;
      } else {
        prob *= 1.0 - probs[i];
      }
    }
    if (ones >= t) tail += prob;
  }
  return tail;
}

class PoissonBinomialParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoissonBinomialParam, TailMatchesEnumeration) {
  const std::vector<double> probs{0.1, 0.7, 0.33, 0.9, 0.02, 0.5, 0.25};
  const std::size_t t = GetParam();
  EXPECT_NEAR(poisson_binomial_tail_geq(probs, static_cast<std::int64_t>(t)),
              brute_pb_tail(probs, t), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllThresholds, PoissonBinomialParam,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

TEST(PoissonBinomial, CappedPmfLumpsTail) {
  const std::vector<double> probs{0.5, 0.5, 0.5, 0.5};
  const auto pmf = poisson_binomial_pmf(probs, 2);
  ASSERT_EQ(pmf.size(), 3u);
  EXPECT_NEAR(pmf[0], 0.0625, 1e-12);
  EXPECT_NEAR(pmf[1], 0.25, 1e-12);
  EXPECT_NEAR(pmf[2], 0.6875, 1e-12);  // P(X >= 2)
}

TEST(PoissonBinomial, FullPmfNormalized) {
  const std::vector<double> probs{0.2, 0.4, 0.9, 0.01};
  const auto pmf = poisson_binomial_pmf(probs);
  double total = 0;
  for (double p : pmf) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(LogAdd, MatchesDirect) {
  const double a = std::log(3.0), b = std::log(5.0);
  EXPECT_NEAR(log_add(a, b), std::log(8.0), 1e-12);
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(log_add(ninf, b), b);
  EXPECT_DOUBLE_EQ(log_add(a, ninf), a);
}

}  // namespace
}  // namespace mlec
