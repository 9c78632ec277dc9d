#include "math/markov.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace mlec {

double BirthDeathChain::mean_time_to_absorption() const {
  const std::size_t m = birth.size();
  MLEC_REQUIRE(m >= 1, "need at least one transient state");
  MLEC_REQUIRE(death.size() == m, "death rates must match birth rates in size");
  for (std::size_t i = 0; i < m; ++i)
    MLEC_REQUIRE(birth[i] > 0.0, "birth rates must be positive (chain must reach absorption)");

  // E[T_0->m] = sum_{j=0}^{m-1} sum_{i=0}^{j} (1/birth_i) prod_{l=i+1}^{j} death_l/birth_l.
  // Evaluate with a running inner sum: S_j = (1/birth_j) + S_{j-1} * death_j/birth_j.
  double total = 0.0;
  double inner = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double ratio = j == 0 ? 0.0 : death[j] / birth[j];
    inner = 1.0 / birth[j] + inner * ratio;
    total += inner;
  }
  return total;
}

double erasure_set_mttdl(std::size_t k, std::size_t p, double unit_fail_rate, double repair_rate,
                         bool parallel_repair) {
  MLEC_REQUIRE(k >= 1, "need at least one data unit");
  MLEC_REQUIRE(unit_fail_rate > 0.0, "failure rate must be positive");
  MLEC_REQUIRE(repair_rate >= 0.0, "repair rate must be non-negative");
  const std::size_t n = k + p;
  const std::size_t m = p + 1;  // absorbing state: p+1 concurrent failures
  BirthDeathChain chain;
  chain.birth.resize(m);
  chain.death.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    chain.birth[i] = static_cast<double>(n - i) * unit_fail_rate;
    chain.death[i] =
        i == 0 ? 0.0 : (parallel_repair ? static_cast<double>(i) * repair_rate : repair_rate);
  }
  return chain.mean_time_to_absorption();
}

MlecMarkovResult mlec_markov_mttdl(const MlecMarkovParams& params) {
  MLEC_REQUIRE(params.local_pool_disks >= params.kl + params.pl,
               "local pool must hold at least one stripe width of disks");
  MLEC_REQUIRE(params.network_pools >= 1, "need at least one network pool");

  MlecMarkovResult r{};
  // Local level: a pool of D disks tolerating p_l concurrent failures.
  // For a clustered pool D == k_l+p_l and this is the exact stripe condition;
  // for a declustered pool, >= p_l+1 arbitrary concurrent failures is the
  // conservative catastrophe condition (§2.3), with parallel repair.
  {
    const std::size_t n = params.local_pool_disks;
    const std::size_t m = params.pl + 1;
    BirthDeathChain chain;
    chain.birth.resize(m);
    chain.death.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      chain.birth[i] = static_cast<double>(n - i) * params.disk_fail_rate;
      chain.death[i] = i == 0 ? 0.0
                              : (params.local_parallel_repair
                                     ? static_cast<double>(i) * params.disk_repair_rate
                                     : params.disk_repair_rate);
    }
    r.local_pool_mttf_hours = chain.mean_time_to_absorption();
  }

  // Network level: treat a local pool like a disk (paper §3). A network pool
  // has k_n+p_n member pools, each "failing" (going catastrophic) at rate
  // 1/local_mttf and being rebuilt at pool_repair_rate.
  r.network_pool_mttdl_hours =
      erasure_set_mttdl(params.kn, params.pn, 1.0 / r.local_pool_mttf_hours,
                        params.pool_repair_rate, /*parallel_repair=*/false);

  // Independent network pools race to the first loss.
  r.system_mttdl_hours = r.network_pool_mttdl_hours / static_cast<double>(params.network_pools);
  return r;
}

double durability_nines(double pdl) {
  MLEC_REQUIRE(pdl >= 0.0 && pdl <= 1.0, "PDL must be a probability");
  if (pdl == 0.0) return std::numeric_limits<double>::infinity();
  return -std::log10(pdl);
}

}  // namespace mlec
