#include "math/markov.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlec {
namespace {

TEST(BirthDeath, SingleStateIsExponentialMean) {
  BirthDeathChain chain;
  chain.birth = {0.5};
  chain.death = {0.0};
  EXPECT_NEAR(chain.mean_time_to_absorption(), 2.0, 1e-12);
}

TEST(BirthDeath, TwoStateClosedForm) {
  // States 0,1 -> absorb at 2. E[T] = 1/l0 + 1/l1 + m1/(l0*l1).
  const double l0 = 0.3, l1 = 0.7, m1 = 2.0;
  BirthDeathChain chain;
  chain.birth = {l0, l1};
  chain.death = {0.0, m1};
  EXPECT_NEAR(chain.mean_time_to_absorption(), 1 / l0 + 1 / l1 + m1 / (l0 * l1), 1e-12);
}

TEST(BirthDeath, AgreesWithSimulation) {
  BirthDeathChain chain;
  chain.birth = {1.0, 2.0, 0.5};
  chain.death = {0.0, 3.0, 1.5};
  const double analytic = chain.mean_time_to_absorption();

  Rng rng(99);
  double total = 0;
  const int trials = 200000;
  for (int t = 0; t < trials; ++t) {
    int state = 0;
    double time = 0;
    while (state < 3) {
      const double b = chain.birth[state];
      const double d = state > 0 ? chain.death[state] : 0.0;
      time += rng.exponential(b + d);
      state += rng.bernoulli(b / (b + d)) ? 1 : -1;
    }
    total += time;
  }
  EXPECT_NEAR(total / trials, analytic, analytic * 0.02);
}

TEST(BirthDeath, RejectsZeroBirth) {
  BirthDeathChain chain;
  chain.birth = {0.0};
  chain.death = {0.0};
  EXPECT_THROW(chain.mean_time_to_absorption(), PreconditionError);
}

TEST(ErasureSet, MirroredPairKnownFormula) {
  // (1+1) mirror: MTTDL = (3λ + μ) / (2λ^2) for single repair.
  const double lambda = 0.001, mu = 0.5;
  const double expected = (3 * lambda + mu) / (2 * lambda * lambda);
  EXPECT_NEAR(erasure_set_mttdl(1, 1, lambda, mu), expected, expected * 1e-9);
}

TEST(ErasureSet, NoParityIsFirstFailure) {
  // k disks, p=0: data lost on the first failure of any of the k units.
  EXPECT_NEAR(erasure_set_mttdl(4, 0, 0.01, 1.0), 1.0 / (4 * 0.01), 1e-9);
}

TEST(ErasureSet, ParallelRepairBeatsSingle) {
  const double single = erasure_set_mttdl(10, 3, 1e-5, 0.01, false);
  const double parallel = erasure_set_mttdl(10, 3, 1e-5, 0.01, true);
  EXPECT_GT(parallel, single);
}

TEST(ErasureSet, MoreParityMoreDurability) {
  double prev = 0;
  for (std::size_t p = 0; p <= 4; ++p) {
    const double mttdl = erasure_set_mttdl(10, p, 1e-5, 0.01);
    EXPECT_GT(mttdl, prev);
    prev = mttdl;
  }
}

TEST(MlecMarkov, TwoLevelBeatsEitherLevelAlone) {
  MlecMarkovParams params;
  params.kn = 10;
  params.pn = 2;
  params.kl = 17;
  params.pl = 3;
  params.local_pool_disks = 20;
  params.disk_fail_rate = 0.01 / 8766.0;
  params.disk_repair_rate = 1.0 / 139.0;
  params.pool_repair_rate = 1.0 / 445.0;
  params.network_pools = 240;
  const auto r = mlec_markov_mttdl(params);
  EXPECT_GT(r.local_pool_mttf_hours, 0.0);
  EXPECT_GT(r.network_pool_mttdl_hours, r.local_pool_mttf_hours);
  EXPECT_NEAR(r.system_mttdl_hours, r.network_pool_mttdl_hours / 240.0, 1e-6);
}

TEST(Nines, RoundTrips) {
  EXPECT_NEAR(durability_nines(1e-5), 5.0, 1e-12);
  EXPECT_TRUE(std::isinf(durability_nines(0.0)));
  EXPECT_THROW(durability_nines(1.5), PreconditionError);
}

}  // namespace
}  // namespace mlec
