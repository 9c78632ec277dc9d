// Exact sampling of burst-failure allocations (paper §4.1.1 setup).
//
// The burst model scatters y simultaneous disk failures uniformly over the
// disks of x chosen racks, conditioned on every rack receiving at least one
// failure. The per-rack counts (f_1..f_x) then follow
//   P(f) ∝ prod_i C(D, f_i)   over compositions with f_i >= 1, sum = y,
// where D is disks per rack. Rejection sampling is hopeless (the all-racks-
// hit event is exponentially rare for y ≈ x), so we sample sequentially with
// the partition weights
//   W(m, s) = #ways to pick s disks from m racks with every rack hit
//           = sum_{a=1..min(D,s)} C(D, a) W(m-1, s-a),   W(0, 0) = 1,
// positive terms summed in log space (inclusion-exclusion cancels
// catastrophically in doubles from about 22 racks on).
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace mlec {

class BurstAllocationSampler {
 public:
  /// Prepare tables for bursts of up to `max_failures` failures over up to
  /// `max_racks` racks with `disks_per_rack` disks each.
  BurstAllocationSampler(std::size_t disks_per_rack, std::size_t max_racks,
                         std::size_t max_failures);

  /// log W(m, s); -inf when no valid allocation exists (s < m or s > m*D).
  double log_ways(std::size_t racks, std::size_t failures) const;

  /// Sample per-rack failure counts for `failures` failures over `racks`
  /// racks (all >= 1). Requires racks <= max_racks, failures in
  /// [racks, racks*disks_per_rack] and failures <= max_failures.
  std::vector<std::size_t> sample(std::size_t racks, std::size_t failures, Rng& rng) const;

  std::size_t disks_per_rack() const { return disks_per_rack_; }

 private:
  std::size_t disks_per_rack_;
  std::size_t max_racks_;
  std::size_t max_failures_;
  // log_choose_[a] = log C(D, a) for the part sizes a rack can take
  std::vector<double> log_choose_;
  // log_w_[m * (max_failures_+1) + s]
  std::vector<double> log_w_;
};

}  // namespace mlec
