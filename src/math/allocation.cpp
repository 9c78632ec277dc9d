#include "math/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace mlec {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

BurstAllocationSampler::BurstAllocationSampler(std::size_t disks_per_rack, std::size_t max_racks,
                                               std::size_t max_failures)
    : disks_per_rack_(disks_per_rack), max_racks_(max_racks), max_failures_(max_failures) {
  MLEC_REQUIRE(disks_per_rack >= 1, "need at least one disk per rack");
  // log C(D, a) = log C(D, a-1) + log((D-a+1)/a): exact for a = 1 and free
  // of the lgamma cancellation log_choose suffers at large D.
  const std::size_t max_part = std::min(disks_per_rack, max_failures);
  log_choose_.assign(max_part + 1, 0.0);
  for (std::size_t a = 1; a <= max_part; ++a)
    log_choose_[a] = log_choose_[a - 1] + std::log(static_cast<double>(disks_per_rack - a + 1) /
                                                   static_cast<double>(a));

  const std::size_t row = max_failures + 1;
  log_w_.assign((max_racks + 1) * row, kNegInf);
  log_w_[0] = 0.0;  // W(0, 0) = 1: the empty allocation
  std::vector<double> terms;
  for (std::size_t m = 1; m <= max_racks; ++m) {
    const double* prev = &log_w_[(m - 1) * row];
    const std::size_t s_max = std::min(max_failures, m * disks_per_rack);
    for (std::size_t s = m; s <= s_max; ++s) {
      // The first rack takes a in [max(1, s-(m-1)D), min(D, s-(m-1))]
      // failures; the others must still fit the rest. Every term is
      // positive, so the log-sum-exp below loses nothing to cancellation.
      const std::size_t rest_cap = (m - 1) * disks_per_rack;
      const std::size_t lo = s > rest_cap ? s - rest_cap : 1;
      const std::size_t hi = std::min(disks_per_rack, s - (m - 1));
      terms.clear();
      double top = kNegInf;
      for (std::size_t a = lo; a <= hi; ++a) {
        const double term = log_choose_[a] + prev[s - a];
        terms.push_back(term);
        top = std::max(top, term);
      }
      double sum = 0.0;
      for (const double term : terms) sum += std::exp(term - top);
      log_w_[m * row + s] = top + std::log(sum);
    }
  }
}

double BurstAllocationSampler::log_ways(std::size_t racks, std::size_t failures) const {
  MLEC_REQUIRE(racks <= max_racks_ && failures <= max_failures_,
               "query exceeds precomputed table");
  return log_w_[racks * (max_failures_ + 1) + failures];
}

std::vector<std::size_t> BurstAllocationSampler::sample(std::size_t racks, std::size_t failures,
                                                        Rng& rng) const {
  MLEC_REQUIRE(racks >= 1 && racks <= max_racks_, "rack count out of range");
  MLEC_REQUIRE(failures >= racks && failures <= racks * disks_per_rack_ &&
                   failures <= max_failures_,
               "failure count infeasible for this rack count");
  std::vector<std::size_t> counts(racks);
  std::size_t remaining = failures;
  for (std::size_t i = 0; i < racks; ++i) {
    const std::size_t left = racks - i - 1;  // racks after this one
    if (left == 0) {
      counts[i] = remaining;
      break;
    }
    // P(f_i = a) = C(D, a) W(left, remaining-a) / W(left+1, remaining).
    const double log_denom = log_ways(left + 1, remaining);
    MLEC_ASSERT(log_denom != kNegInf);
    double u = rng.uniform();
    std::size_t chosen = 0;
    double cum = 0.0;
    const std::size_t a_max = std::min<std::size_t>(disks_per_rack_, remaining - left);
    for (std::size_t a = 1; a <= a_max; ++a) {
      const double lw = log_ways(left, remaining - a);
      if (lw == kNegInf) continue;
      const double p = std::exp(log_choose_[a] + lw - log_denom);
      cum += p;
      chosen = a;
      if (u < cum) break;
    }
    MLEC_ASSERT(chosen >= 1);
    counts[i] = chosen;
    remaining -= chosen;
  }
  return counts;
}

}  // namespace mlec
