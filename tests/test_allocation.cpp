#include "math/allocation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "math/combin.hpp"
#include "util/error.hpp"

namespace mlec {
namespace {

// Brute-force W(m, s): sum over compositions with parts in [1, D] of
// prod C(D, part).
double brute_ways(std::size_t disks, std::size_t racks, std::size_t failures) {
  if (racks == 0) return failures == 0 ? 1.0 : 0.0;
  double total = 0;
  for (std::size_t a = 1; a <= std::min(disks, failures); ++a)
    total += choose(static_cast<std::int64_t>(disks), static_cast<std::int64_t>(a)) *
             brute_ways(disks, racks - 1, failures - a);
  return total;
}

TEST(Allocation, WaysMatchBruteForce) {
  const BurstAllocationSampler sampler(6, 4, 12);
  for (std::size_t m = 1; m <= 4; ++m) {
    for (std::size_t s = m; s <= std::min<std::size_t>(12, m * 6); ++s) {
      const double expected = brute_ways(6, m, s);
      EXPECT_NEAR(std::exp(sampler.log_ways(m, s)), expected, expected * 1e-9)
          << "m=" << m << " s=" << s;
    }
  }
}

TEST(Allocation, TableIsExactWhereInclusionExclusionCancels) {
  // The inclusion-exclusion closed form cancels catastrophically from
  // about 22 racks on (it marked W(23, 23) at D = 960 infeasible); the
  // positive-term recurrence must keep every feasible cell finite and pin
  // the cells with a closed form: W(m, m) = D^m (one failure per rack) and
  // W(m, mD) = 1 (every disk fails).
  for (std::size_t D : {3, 20, 960}) {
    const BurstAllocationSampler sampler(D, 60, 100);
    for (std::size_t m = 1; m <= 60; ++m) {
      for (std::size_t s = 0; s <= 100; ++s) {
        const double lw = sampler.log_ways(m, s);
        const bool feasible = s >= m && s <= m * D;
        EXPECT_EQ(std::isfinite(lw), feasible) << "D=" << D << " m=" << m << " s=" << s;
      }
      const double all_single = static_cast<double>(m) * std::log(static_cast<double>(D));
      EXPECT_NEAR(sampler.log_ways(m, m), all_single, 1e-12 * all_single)
          << "D=" << D << " m=" << m;
      if (m * D <= 100) {
        EXPECT_NEAR(sampler.log_ways(m, m * D), 0.0, 1e-12) << "D=" << D;
      }
    }
  }
  // Small D and m against brute-force enumeration, including the cells
  // far from either edge.
  for (std::size_t D : {1, 2, 3, 5}) {
    const BurstAllocationSampler sampler(D, 7, 7 * D);
    for (std::size_t m = 1; m <= 7; ++m)
      for (std::size_t s = m; s <= m * D; ++s) {
        const double expected = std::log(brute_ways(D, m, s));
        EXPECT_NEAR(sampler.log_ways(m, s), expected, 1e-12 * std::max(1.0, expected))
            << "D=" << D << " m=" << m << " s=" << s;
      }
  }
}

TEST(Allocation, InfeasibleIsMinusInfinity) {
  const BurstAllocationSampler sampler(4, 3, 16);
  EXPECT_TRUE(std::isinf(sampler.log_ways(3, 2)));   // fewer failures than racks
  EXPECT_TRUE(std::isinf(sampler.log_ways(3, 13)));  // more failures than disks
}

TEST(Allocation, SampleRespectsConstraints) {
  const BurstAllocationSampler sampler(10, 5, 23);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const auto counts = sampler.sample(5, 23, rng);
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 23u);
    for (auto c : counts) {
      EXPECT_GE(c, 1u);
      EXPECT_LE(c, 10u);
    }
  }
}

TEST(Allocation, SampleMatchesExactDistribution) {
  // Small enough to enumerate: 3 racks of 4 disks, 5 failures.
  const std::size_t D = 4, m = 3, s = 5;
  const BurstAllocationSampler sampler(D, m, s);

  // Exact marginal P(f_1 = a).
  std::map<std::size_t, double> expected;
  double total = 0;
  for (std::size_t a = 1; a <= std::min(D, s - (m - 1)); ++a) {
    const double w =
        choose(static_cast<std::int64_t>(D), static_cast<std::int64_t>(a)) * brute_ways(D, m - 1, s - a);
    expected[a] = w;
    total += w;
  }
  for (auto& [a, w] : expected) w /= total;

  Rng rng(123);
  std::map<std::size_t, int> counts;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ++counts[sampler.sample(m, s, rng)[0]];
  for (const auto& [a, p] : expected)
    EXPECT_NEAR(counts[a] / static_cast<double>(trials), p, 0.01) << "a=" << a;
}

TEST(Allocation, EdgeExactlyOnePerRack) {
  const BurstAllocationSampler sampler(8, 4, 4);
  Rng rng(5);
  const auto counts = sampler.sample(4, 4, rng);
  for (auto c : counts) EXPECT_EQ(c, 1u);
}

TEST(Allocation, EdgeFullRacks) {
  const BurstAllocationSampler sampler(3, 2, 6);
  Rng rng(5);
  const auto counts = sampler.sample(2, 6, rng);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 3u);
}

TEST(Allocation, RejectsInfeasibleRequests) {
  const BurstAllocationSampler sampler(4, 3, 12);
  Rng rng(1);
  EXPECT_THROW(sampler.sample(3, 2, rng), PreconditionError);
  EXPECT_THROW(sampler.sample(3, 13, rng), PreconditionError);
}

}  // namespace
}  // namespace mlec
