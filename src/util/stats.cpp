#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

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

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  MLEC_REQUIRE(hi > lo, "histogram range must be non-empty");
  MLEC_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double q) const {
  MLEC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac = counts_[i] ? (target - cum) / static_cast<double>(counts_[i]) : 0.0;
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    cum = next;
  }
  return hi_;
}

}  // namespace mlec
