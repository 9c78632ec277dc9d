#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace mlec {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // The child stream should not replay the parent's outputs.
  Rng parent_copy(7);
  (void)parent_copy();  // align with the split's consumption
  int same = 0;
  for (int i = 0; i < 100; ++i) same += child() == parent_copy() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng(42);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.uniform_below(7)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(Rng, UniformBelowRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_below(0), PreconditionError);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(9);
  const double rate = 0.25;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BinomialMeanAndBounds) {
  Rng rng(13);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.binomial(40, 0.3);
    ASSERT_LE(v, 40u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / n, 12.0, 0.4);
}

TEST(Rng, BinomialLargePUsesComplement) {
  Rng rng(14);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.binomial(10, 0.9));
  EXPECT_NEAR(sum / n, 9.0, 0.2);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(21);
  for (int round = 0; round < 50; ++round) {
    auto sample = rng.sample_without_replacement(100, 30);
    ASSERT_EQ(sample.size(), 30u);
    std::set<std::uint64_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 30u);
    for (auto v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(22);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 4000; ++i)
    for (auto v : rng.sample_without_replacement(10, 3)) ++counts[v];
  for (int c : counts) EXPECT_NEAR(c, 1200, 150);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, UniformFillIsBitIdenticalToSingleDraws) {
  Rng fill_rng(123), single_rng(123);
  std::array<double, 257> filled{};  // odd size: no block-boundary luck
  fill_rng.uniform_fill(filled);
  for (double v : filled) EXPECT_EQ(v, single_rng.uniform());
  EXPECT_EQ(fill_rng(), single_rng());
}

TEST(Rng, ExponentialFillIsBitIdenticalToSingleDraws) {
  const double rate = 3.25;
  Rng fill_rng(7), single_rng(7);
  std::array<double, 100> filled{};
  fill_rng.exponential_fill(filled, rate);
  for (double v : filled) EXPECT_EQ(v, single_rng.exponential(rate));
  EXPECT_EQ(fill_rng(), single_rng());
}

TEST(Rng, ExponentialFillMomentsMatchTheory) {
  const double rate = 0.5;  // mean 2, variance 4
  Rng rng(2024);
  std::vector<double> xs(200000);
  rng.exponential_fill(xs, rate);
  double sum = 0.0;
  for (double x : xs) {
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  EXPECT_NEAR(mean, 1.0 / rate, 0.02);
  double sq = 0.0;
  for (double x : xs) sq += (x - mean) * (x - mean);
  const double variance = sq / static_cast<double>(xs.size());
  EXPECT_NEAR(variance, 1.0 / (rate * rate), 0.1);
}

TEST(Rng, UniformFillCoversUnitInterval) {
  Rng rng(55);
  std::vector<double> xs(100000);
  rng.uniform_fill(xs);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  for (double x : xs) {
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += x;
  }
  EXPECT_LT(lo, 1e-3);
  EXPECT_GT(hi, 1.0 - 1e-3);
  EXPECT_NEAR(sum / static_cast<double>(xs.size()), 0.5, 0.01);
}

TEST(Rng, ExponentialFillRejectsNonPositiveRate) {
  Rng rng(1);
  std::array<double, 4> buf{};
  EXPECT_THROW(rng.exponential_fill(buf, 0.0), PreconditionError);
  EXPECT_THROW(rng.exponential_fill(buf, -1.0), PreconditionError);
}

TEST(Rng, EmptyFillsLeaveStateUntouched) {
  Rng rng(9);
  Rng before = rng;
  rng.uniform_fill({});
  rng.exponential_fill({}, 1.0);
  EXPECT_EQ(rng(), before());
}

TEST(Rng, SubstreamsAreDeterministicAndDistinct) {
  Rng a = Rng::for_substream(42, 0);
  Rng a2 = Rng::for_substream(42, 0);
  Rng b = Rng::for_substream(42, 1);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const double va = a.uniform();
    EXPECT_EQ(va, a2.uniform());
    if (va != b.uniform()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// The exponential ziggurat behind exponential()/exponential_fill(): its
// tables and the distribution of its output.

TEST(RngZiggurat, EveryLayerHasAreaV) {
  const ExponentialZiggurat& z = exponential_ziggurat();
  const double r = ExponentialZiggurat::kR;
  EXPECT_EQ(z.x[1], r);
  EXPECT_EQ(z.x[ExponentialZiggurat::kLayers], 0.0);
  // Base layer: the rectangle under e^{-r} plus the tail beyond r.
  EXPECT_NEAR(r * std::exp(-r) + std::exp(-r), z.v, 1e-12 * z.v);
  EXPECT_NEAR(z.x[0] * z.f[1], z.v, 1e-12 * z.v);
  for (int i = 1; i < ExponentialZiggurat::kLayers; ++i) {
    SCOPED_TRACE(i);
    EXPECT_LT(z.x[i + 1], z.x[i]);
    EXPECT_NEAR(z.f[i], std::exp(-z.x[i]), 1e-12 * z.f[i]);
    EXPECT_NEAR(z.x[i] * (z.f[i + 1] - z.f[i]), z.v, 1e-12 * z.v);
  }
  for (int i = 0; i < ExponentialZiggurat::kLayers; ++i) EXPECT_EQ(z.w[i], z.x[i] * 0x1.0p-53);
  // r closes the recursion: the edge above the top layer is 0.
  const double top = -std::log(z.v / z.x[255] + z.f[255]);
  EXPECT_NEAR(top, 0.0, 1e-12);
}

TEST(RngZiggurat, RateScalesTheUnitDraw) {
  Rng unit(77), scaled(77);
  for (double rate : {1.0, 0.25, 3.0, 1e-6, 8760.0}) {
    for (int i = 0; i < 2000; ++i) EXPECT_EQ(scaled.exponential(rate), unit.exponential(1.0) / rate);
  }
  EXPECT_EQ(unit(), scaled());
}

TEST(RngZiggurat, KolmogorovSmirnovAgainstExp1) {
  Rng rng(31337);
  std::vector<double> xs(1'000'000);
  for (double& x : xs) x = rng.exponential(1.0);
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double cdf = -std::expm1(-xs[i]);
    d = std::max({d, cdf - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - cdf});
  }
  // 0.1% critical value of the Kolmogorov distribution.
  EXPECT_LT(d * std::sqrt(n), 1.95);
}

TEST(RngZiggurat, TailBeyondRHasItsExactMass) {
  // Draws beyond r come only from the base layer's tail branch.
  Rng rng(4242);
  const std::uint64_t n = 10'000'000;
  std::uint64_t beyond = 0;
  double max_seen = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double x = rng.exponential(1.0);
    if (x > ExponentialZiggurat::kR) ++beyond;
    max_seen = std::max(max_seen, x);
  }
  const double p = std::exp(-ExponentialZiggurat::kR);
  const double mean = p * static_cast<double>(n);
  const double sigma = std::sqrt(mean * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(beyond), mean, 4.0 * sigma);
  EXPECT_GT(max_seen, ExponentialZiggurat::kR + 5.0);
}

TEST(RngZiggurat, ChiSquareOverEquiprobableBins) {
  // 1000 bins of probability 1/1000 each: bin j covers
  // [-log(1 - j/k), -log(1 - (j+1)/k)), so bin(x) = floor(k * (1 - e^{-x})).
  constexpr int kBins = 1000;
  const int n = 1'000'000;
  Rng rng(8675309);
  std::vector<double> counts(kBins, 0.0);
  for (int i = 0; i < n; ++i) {
    const double u = -std::expm1(-rng.exponential(1.0));
    ++counts[std::min(kBins - 1, static_cast<int>(u * kBins))];
  }
  const double expected = static_cast<double>(n) / kBins;
  double chi2 = 0.0;
  for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 0.1% critical value for kBins - 1 degrees of freedom (Wilson-Hilferty).
  const double dof = kBins - 1;
  const double h = 2.0 / (9.0 * dof);
  const double critical = dof * std::pow(1.0 - h + 3.0902 * std::sqrt(h), 3);
  EXPECT_LT(chi2, critical);
}

}  // namespace
}  // namespace mlec
