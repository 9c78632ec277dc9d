// Streaming statistics and interval estimates for Monte-Carlo results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mlec {

/// Welford streaming accumulator: mean, variance, extrema in one pass.
class RunningStats {
 public:
  /// Exact internal state, exposed for checkpoint journaling. A restored
  /// accumulator continues bit-identically to the original.
  struct Raw {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void add(double x);
  void merge(const RunningStats& other);

  Raw raw() const;
  static RunningStats from_raw(const Raw& raw);

  /// Exact (bitwise) state equality — used by checkpoint determinism tests.
  bool operator==(const RunningStats&) const = default;

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two samples).
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double sem() const;
  double min() const { return n_ ? min_ : std::numeric_limits<double>::quiet_NaN(); }
  double max() const { return n_ ? max_ : std::numeric_limits<double>::quiet_NaN(); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Counter for Bernoulli outcomes with interval estimation.
class ProportionEstimate {
 public:
  void add(bool success) { ++trials_; successes_ += success ? 1 : 0; }
  void add_many(std::uint64_t successes, std::uint64_t trials) {
    successes_ += successes;
    trials_ += trials;
  }

  std::uint64_t successes() const { return successes_; }
  std::uint64_t trials() const { return trials_; }
  double estimate() const { return trials_ ? static_cast<double>(successes_) / trials_ : 0.0; }

  struct Interval {
    double lo;
    double hi;
  };
  /// Wilson score interval at the given normal quantile (default 95%).
  /// Always brackets the point estimate: lo <= estimate() <= hi, so zero
  /// successes give lo == 0 and all successes hi == 1 exactly.
  Interval wilson(double z = 1.959964) const;

 private:
  std::uint64_t successes_ = 0;
  std::uint64_t trials_ = 0;
};

}  // namespace mlec
