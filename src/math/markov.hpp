// Continuous-time Markov-chain durability models (paper §3 "Mathematical
// model", used for R_ALL verification and the splitting stage-2 closed forms).
//
// The classic SLEC durability model is a birth-death chain over the number of
// concurrently failed units; MLEC is modeled by iterating it two-level,
// "treating a local pool like a disk" exactly as the paper describes.
#pragma once

#include <cstddef>
#include <vector>

namespace mlec {

/// Birth-death chain on states 0..m where state m is absorbing.
/// birth[i] is the rate i -> i+1 for i in [0, m-1];
/// death[i] is the rate i -> i-1 for i in [1, m-1] (death[0] ignored).
struct BirthDeathChain {
  std::vector<double> birth;
  std::vector<double> death;

  /// Expected first-passage time from state 0 into the absorbing state m,
  /// via the standard nested-product closed form. Units follow the rates.
  double mean_time_to_absorption() const;
};

/// Mean time to data loss of a (k+p) erasure set of `n = k+p` units, where
/// each unit fails at rate `unit_fail_rate`, at most one unit rebuilds at a
/// time at rate `repair_rate`, and p+1 concurrent failures lose data.
/// Set parallel_repair=true to rebuild all failed units concurrently
/// (rate i * repair_rate in state i), the declustered-pool idealization.
double erasure_set_mttdl(std::size_t k, std::size_t p, double unit_fail_rate,
                         double repair_rate, bool parallel_repair = false);

/// Two-level MLEC MTTDL (rates per hour): the local level produces a
/// catastrophic-pool rate and the network level treats pools as units.
struct MlecMarkovParams {
  std::size_t kn, pn;        ///< network code
  std::size_t kl, pl;        ///< local code
  std::size_t local_pool_disks;  ///< units in one local pool (k_l+p_l for Cp)
  double disk_fail_rate;     ///< per-disk failure rate (per hour)
  double disk_repair_rate;   ///< local rebuild rate for one disk (per hour)
  bool local_parallel_repair = false;  ///< declustered local pool
  double pool_repair_rate;   ///< network-level rebuild rate of a whole pool
  std::size_t network_pools; ///< number of independent network pools
};

struct MlecMarkovResult {
  double local_pool_mttf_hours;   ///< mean time to catastrophic local failure
  double network_pool_mttdl_hours;
  double system_mttdl_hours;      ///< across all independent network pools
};

MlecMarkovResult mlec_markov_mttdl(const MlecMarkovParams& params);

/// Durability "number of nines" = -log10(PDL); the paper's Figure 10/12/15
/// y-axis. PDL of 0 maps to +inf.
double durability_nines(double pdl);

}  // namespace mlec
