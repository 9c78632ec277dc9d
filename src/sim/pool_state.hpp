// Shared per-pool failure/rebuild/critical-window state machine.
//
// One local pool's life between catastrophes is the same whether it is
// simulated alone (sim/local_pool_sim.hpp, the splitting stage 1) or as one
// of thousands inside the fleet simulator (analysis/fleet_sim.cpp): disks
// fail, sit undetected for `detection_hours`, then rebuild at a placement-
// dependent bandwidth; declustered pools with priority reconstruction carry
// a critical window during which one more failure is fatal. Both simulators
// include this header so the physics exists exactly once.
//
//  * PoolRepairModel — immutable per-run rebuild physics (Table 2 rates,
//    hypergeometric lost-stripe fractions, critical-window lengths).
//  * LocalPoolState — one pool's mutable state: in-flight failures with
//    rebuild progress, the declustered critical-window end, and the advance
//    between events: closed-form for clustered pools, whose rebuilds run
//    independently, and piecewise-constant for declustered ones, whose
//    rebuilds share the pool's bandwidth.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "math/combin.hpp"
#include "placement/codes.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

/// Rebuilds whose remaining volume drops below this are complete (absorbs
/// the floating-point dust left by piecewise-constant advancement).
inline constexpr double kRebuildCompleteEpsilonTb = 1e-12;

/// Immutable rebuild physics of one local pool. Fill the fields, then call
/// finalize() once to build the derived lookup tables.
struct PoolRepairModel {
  SlecCode code{17, 3};
  std::size_t pool_disks = 20;  ///< k_l+p_l for clustered, enclosure for declustered
  bool clustered = true;        ///< local placement
  bool priority_repair = true;  ///< declustered priority reconstruction
  double detection_hours = 0.5;
  double disk_capacity_tb = 20.0;
  double chunk_kb = 128.0;
  double disk_eff_mbps = 40.0;  ///< effective (capped) per-disk bandwidth

  void finalize() {
    MLEC_ASSERT(pool_disks >= code.width(), "pool narrower than its code");
    MLEC_ASSERT(disk_eff_mbps > 0.0, "finalize() needs a positive disk bandwidth");
    const std::size_t max_f = std::min<std::size_t>(pool_disks, 64);
    frac_tab_.assign(max_f + 1, 0.0);
    decl_bw_tab_.assign(max_f + 1, 0.0);
    crit_win_tab_.assign(max_f + 1, 0.0);
    clustered_rate_ = disk_eff_mbps * units::kSecondsPerHour * 1e6 / 1e12;
    clustered_rebuild_hours_ = disk_capacity_tb / clustered_rate_;
    for (std::size_t f = 0; f <= max_f; ++f) {
      frac_tab_[f] = hypergeom_tail_geq(static_cast<std::int64_t>(pool_disks),
                                        static_cast<std::int64_t>(f),
                                        static_cast<std::int64_t>(code.width()),
                                        static_cast<std::int64_t>(code.p + 1));
      decl_bw_tab_[f] = declustered_bw_raw(f);
      crit_win_tab_[f] = detection_hours + critical_volume_tb(f) / decl_bw_tab_[f];
    }
  }

  double chunks_per_disk() const { return disk_capacity_tb * 1e12 / (chunk_kb * 1e3); }
  /// Local stripes resident in the pool at full chunk density.
  double stripes_in_pool() const {
    return static_cast<double>(pool_disks) * chunks_per_disk() /
           static_cast<double>(code.width());
  }

  /// Clustered: each failed disk rebuilds onto its own spare at the spare's
  /// write bandwidth. Valid after finalize().
  double clustered_rate_tb_h() const { return clustered_rate_; }
  /// Clustered: hours from detection to a finished rebuild (capacity at the
  /// spare's rate). Valid after finalize().
  double clustered_rebuild_hours() const { return clustered_rebuild_hours_; }
  /// Declustered: pool-wide aggregate bandwidth with f concurrent failures
  /// (Table 2's (n-f) * disk_eff / (k_l+1)). Table-backed after finalize().
  double declustered_bw_tb_h(std::size_t f) const {
    return f < decl_bw_tab_.size() ? decl_bw_tab_[f] : declustered_bw_raw(f);
  }
  /// Rebuild rate (TB/h) applied to EACH detected failure given the pool's
  /// concurrent-failure and detected counts. Zero while nothing is detected.
  double per_failure_rate_tb_h(std::size_t concurrent, std::size_t detected) const {
    if (detected == 0) return 0.0;
    return clustered ? clustered_rate_tb_h()
                     : declustered_bw_tb_h(concurrent) / static_cast<double>(detected);
  }

  /// Fraction of the pool's stripes with >= p_l+1 chunks on the f failed
  /// disks (hypergeometric tail; declustered placement).
  double declustered_lost_fraction(std::size_t f) const {
    return frac_tab_[std::min(f, frac_tab_.size() - 1)];
  }

  /// Expected volume (TB) of class-p_l demotions inside a pool with f
  /// concurrent failures (the priority-reconstruction critical class).
  double critical_volume_tb(std::size_t f) const {
    const double p_crit = hypergeom_pmf(static_cast<std::int64_t>(pool_disks),
                                        static_cast<std::int64_t>(f),
                                        static_cast<std::int64_t>(code.width()),
                                        static_cast<std::int64_t>(code.p));
    return stripes_in_pool() * p_crit * chunk_kb * 1e3 / 1e12;
  }
  /// Length of the critical window opened by reaching f concurrent failures:
  /// detection plus demoting the critical class at declustered bandwidth.
  /// Table-backed after finalize() — the raw form recomputes a
  /// hypergeometric pmf, far too costly for the per-failure hot path.
  double critical_window_hours(std::size_t f) const {
    if (f < crit_win_tab_.size()) return crit_win_tab_[f];
    return detection_hours + critical_volume_tb(f) / declustered_bw_raw(f);
  }

 private:
  double declustered_bw_raw(std::size_t f) const {
    return static_cast<double>(pool_disks - f) * disk_eff_mbps /
           (static_cast<double>(code.k) + 1.0) * units::kSecondsPerHour * 1e6 / 1e12;
  }

  std::vector<double> frac_tab_;      ///< declustered_lost_fraction by f
  std::vector<double> decl_bw_tab_;   ///< declustered_bw_tb_h by f
  std::vector<double> crit_win_tab_;  ///< critical_window_hours by f
  double clustered_rate_ = 0.0;       ///< clustered_rate_tb_h after finalize()
  double clustered_rebuild_hours_ = 0.0;  ///< clustered_rebuild_hours after finalize()
};

/// One in-flight disk failure: when it happened, when the repair system
/// notices it, and how much of the disk is still unrebuilt.
struct PoolFailure {
  double start;
  double detect_at;
  double remaining_tb;
};

/// Mutable state of one local pool.
struct LocalPoolState {
  std::vector<PoolFailure> failures;
  /// Declustered critical-window end: a failure arriving before this is
  /// catastrophic even with priority reconstruction.
  double clear_at = -std::numeric_limits<double>::infinity();
  double last_advance = 0.0;

  void reset() {
    failures.clear();
    clear_at = -std::numeric_limits<double>::infinity();
    last_advance = 0.0;
  }

  /// Record a disk failure at time t. Call advance_to(t, ...) first so
  /// rebuild progress is current.
  void add_failure(double t, const PoolRepairModel& m) {
    MLEC_ASSERT(failures.empty() || t <= last_advance,
                "advance_to(t) must run before add_failure(t)");
    if (failures.empty()) last_advance = t;  // fresh (or long-idle) pool
    failures.push_back({t, t + m.detection_hours, m.disk_capacity_tb});
  }

  /// After add_failure: did that failure exceed the pool's tolerance?
  /// Clustered pools (and declustered without priority repair) lose data at
  /// any p_l+1 overlap; declustered priority reconstruction only inside the
  /// critical window.
  bool catastrophic(double t, const PoolRepairModel& m) const {
    if (failures.size() < m.code.p + 1) return false;
    if (m.clustered || !m.priority_repair) return true;
    return t < clear_at;
  }

  /// After a *tolerated* failure: extend the declustered critical window
  /// while stripes at exactly p_l failed chunks may exist. No-op otherwise.
  void extend_critical_window(double t, const PoolRepairModel& m) {
    if (m.clustered || !m.priority_repair) return;
    if (failures.size() >= m.code.p)
      clear_at = std::max(clear_at, t + m.critical_window_hours(failures.size()));
  }

  /// Nothing in flight and no live critical window: the pool can be
  /// forgotten by sparse containers.
  bool idle(double t) const { return failures.empty() && clear_at <= t; }

  double unrebuilt_tb() const {
    double total = 0.0;
    for (const auto& f : failures) total += f.remaining_tb;
    return total;
  }

  /// Fraction of local stripes lost if the pool went catastrophic *now*:
  /// clustered pools lose the span not yet rebuilt on the most-rebuilt
  /// failed disk (in-order rebuild); declustered pools the hypergeometric
  /// tail over the current failure count.
  double lost_stripe_fraction(const PoolRepairModel& m) const {
    if (!m.clustered) return m.declustered_lost_fraction(failures.size());
    double max_progress = 0.0;
    for (const auto& f : failures)
      max_progress = std::max(max_progress, 1.0 - f.remaining_tb / m.disk_capacity_tb);
    return 1.0 - max_progress;
  }

  /// Progress rebuilds from last_advance to t, invoking
  /// on_complete(start_time, finish_time) for each rebuild that finishes.
  ///
  /// Clustered rebuilds run on a closed-form clock: each failed disk
  /// rebuilds onto its own spare at a fixed rate from its detection, so it
  /// finishes at detect_at + clustered_rebuild_hours(). Finish order is
  /// arrival order, so the completions are a prefix of `failures`, and each
  /// survivor has rate x (finish - t) left, capped at the disk's capacity
  /// while undetected. Declustered rebuilds share the pool's bandwidth, so
  /// their rates interlock and the advance walks piecewise-constant
  /// segments that end at detections and completions.
  template <typename OnComplete>
  void advance_to(double t, const PoolRepairModel& m, OnComplete&& on_complete) {
    MLEC_ASSERT(failures.empty() || t >= last_advance, "pool time cannot flow backwards");
    double now = last_advance;
    last_advance = t;
    if (m.clustered) {
      const double duration = m.clustered_rebuild_hours();
      const double rate = m.clustered_rate_tb_h();
      auto live = failures.begin();
      for (; live != failures.end() && live->detect_at + duration <= t; ++live)
        on_complete(live->start, live->detect_at + duration);
      failures.erase(failures.begin(), live);
      for (auto& f : failures)
        f.remaining_tb = std::min(m.disk_capacity_tb, rate * (f.detect_at + duration - t));
      return;
    }
    while (now < t && !failures.empty()) {
      std::size_t detected = 0;
      for (const auto& f : failures) detected += f.detect_at <= now ? 1 : 0;
      const double rate = m.per_failure_rate_tb_h(failures.size(), detected);
      double boundary = t;
      for (const auto& f : failures) {
        if (f.detect_at > now) boundary = std::min(boundary, f.detect_at);
        else if (rate > 0.0)
          boundary = std::min(boundary, now + f.remaining_tb / rate);
      }
      const double dt = boundary - now;
      for (auto& f : failures)
        if (f.detect_at <= now) f.remaining_tb -= rate * dt;
      now = boundary;
      for (auto it = failures.begin(); it != failures.end();) {
        if (it->remaining_tb <= kRebuildCompleteEpsilonTb) {
          on_complete(it->start, now);
          it = failures.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  void advance_to(double t, const PoolRepairModel& m) {
    advance_to(t, m, [](double, double) {});
  }
};

}  // namespace mlec
