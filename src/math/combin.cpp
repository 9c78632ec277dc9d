#include "math/combin.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace mlec {

namespace {
constexpr std::size_t kTableSize = 4096;
const std::array<double, kTableSize>& log_factorial_table() {
  static const auto table = [] {
    std::array<double, kTableSize> t{};
    t[0] = 0.0;
    for (std::size_t i = 1; i < kTableSize; ++i) t[i] = t[i - 1] + std::log(static_cast<double>(i));
    return t;
  }();
  return table;
}
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

double log_factorial(std::int64_t n) {
  MLEC_REQUIRE(n >= 0, "factorial of negative number");
  if (static_cast<std::size_t>(n) < kTableSize) return log_factorial_table()[static_cast<std::size_t>(n)];
  // lgamma_r, not std::lgamma: glibc's lgamma also writes the global
  // `signgam`, a data race when pool workers call this concurrently.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double log_choose(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n || n < 0) return kNegInf;
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double choose(std::int64_t n, std::int64_t k) {
  const double lc = log_choose(n, k);
  return lc == kNegInf ? 0.0 : std::exp(lc);
}

double hypergeom_pmf(std::int64_t population, std::int64_t successes, std::int64_t draws,
                     std::int64_t k) {
  MLEC_REQUIRE(population >= 0 && successes >= 0 && draws >= 0,
               "hypergeometric parameters must be non-negative");
  MLEC_REQUIRE(successes <= population && draws <= population,
               "successes/draws cannot exceed population");
  if (k < 0 || k > draws || k > successes || draws - k > population - successes) return 0.0;
  const double lp = log_choose(successes, k) + log_choose(population - successes, draws - k) -
                    log_choose(population, draws);
  return std::exp(lp);
}

double hypergeom_tail_geq(std::int64_t population, std::int64_t successes, std::int64_t draws,
                          std::int64_t k) {
  const std::int64_t hi = std::min(successes, draws);
  if (k <= 0) return 1.0;
  if (k > hi) return 0.0;
  // Sum the shorter side for accuracy: tail directly when it is short.
  double tail = 0.0;
  for (std::int64_t j = k; j <= hi; ++j) tail += hypergeom_pmf(population, successes, draws, j);
  return std::min(1.0, tail);
}

std::vector<double> poisson_binomial_pmf(const std::vector<double>& probs, std::int64_t cap) {
  const std::size_t n = probs.size();
  const std::size_t states = cap < 0 ? n + 1 : std::min<std::size_t>(n + 1, static_cast<std::size_t>(cap) + 1);
  std::vector<double> pmf(states, 0.0);
  pmf[0] = 1.0;
  std::size_t reach = 0;  // highest index with mass so far (before saturation)
  for (double p : probs) {
    MLEC_ASSERT(p >= 0.0 && p <= 1.0);
    const std::size_t top = std::min(reach + 1, states - 1);
    for (std::size_t j = top; j >= 1; --j) {
      if (j == states - 1) {
        // Saturating bucket: mass stays once it arrives.
        pmf[j] = pmf[j] + pmf[j - 1] * p;
      } else {
        pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
      }
    }
    pmf[0] *= (1.0 - p);
    reach = std::min(reach + 1, states - 1);
  }
  return pmf;
}

double poisson_binomial_tail_geq(const std::vector<double>& probs, std::int64_t k) {
  if (k <= 0) return 1.0;
  if (static_cast<std::size_t>(k) > probs.size()) return 0.0;
  const auto pmf = poisson_binomial_pmf(probs, k);
  return std::min(1.0, pmf.back());
}

double log_add(double log_a, double log_b) {
  if (log_a == kNegInf) return log_b;
  if (log_b == kNegInf) return log_a;
  if (log_a < log_b) std::swap(log_a, log_b);
  return log_a + std::log1p(std::exp(log_b - log_a));
}

}  // namespace mlec
