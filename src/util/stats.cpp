#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mlec {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStats::Raw RunningStats::raw() const {
  return {static_cast<std::uint64_t>(n_), mean_, m2_, min_, max_};
}

RunningStats RunningStats::from_raw(const Raw& raw) {
  RunningStats s;
  s.n_ = static_cast<std::size_t>(raw.n);
  s.mean_ = raw.mean;
  s.m2_ = raw.m2;
  s.min_ = raw.min;
  s.max_ = raw.max;
  return s;
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

ProportionEstimate::Interval ProportionEstimate::wilson(double z) const {
  if (trials_ == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials_);
  const double p = estimate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  // At p = 0 or 1, center -/+ half can round one ulp short of p; clamping
  // to p keeps lo <= p <= hi and changes nothing anywhere else.
  return {std::min(p, std::max(0.0, center - half)), std::max(p, std::min(1.0, center + half))};
}

}  // namespace mlec
