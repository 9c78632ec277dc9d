// Log-domain combinatorics: factorials, binomials, hypergeometric and
// Poisson-binomial distributions.
//
// The burst-PDL analysis (paper §4.1.1, §5.1.3, §5.2.3) composes these
// primitives millions of times, so everything works in log space to survive
// C(57600, 60)-scale magnitudes, with thin linear-domain wrappers.
#pragma once

#include <cstdint>
#include <vector>

namespace mlec {

/// log(n!) with an exact cached table for small n and lgamma beyond.
double log_factorial(std::int64_t n);

/// log C(n, k); returns -inf for k < 0 or k > n.
double log_choose(std::int64_t n, std::int64_t k);

/// C(n, k) in double precision (may overflow to inf for huge arguments —
/// callers needing big values stay in log space).
double choose(std::int64_t n, std::int64_t k);

/// Hypergeometric PMF: drawing `draws` without replacement from a population
/// of size `population` containing `successes` marked items, probability of
/// exactly `k` marked draws.
double hypergeom_pmf(std::int64_t population, std::int64_t successes, std::int64_t draws,
                     std::int64_t k);

/// Upper tail P[X >= k] of the hypergeometric above.
double hypergeom_tail_geq(std::int64_t population, std::int64_t successes, std::int64_t draws,
                          std::int64_t k);

/// Poisson-binomial: X = sum of independent Bernoulli(p_i).
/// Full PMF by DP in O(n^2); `cap` truncates the state space — probabilities
/// of all values >= cap are lumped into the last entry, which is what the
/// ">= p+1 failures" tolerance checks need.
std::vector<double> poisson_binomial_pmf(const std::vector<double>& probs,
                                         std::int64_t cap = -1);

/// P[X >= k] for the Poisson-binomial.
double poisson_binomial_tail_geq(const std::vector<double>& probs, std::int64_t k);

/// log(sum(exp(a)) + exp(b)) without leaving log space.
double log_add(double log_a, double log_b);

}  // namespace mlec
