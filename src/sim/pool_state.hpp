// Shared per-pool failure/rebuild/critical-window state machine, and the
// one walk that steps a pool through a mission.
//
// One local pool's life between catastrophes is the same whether it is
// simulated alone (sim/local_pool_sim.hpp, the splitting stage 1) or as one
// of thousands inside the fleet simulator (analysis/fleet_sim.cpp): disks
// fail, sit undetected for `detection_hours`, then rebuild at a placement-
// dependent bandwidth; declustered pools with priority reconstruction carry
// a critical window during which one more failure is fatal. Both simulators
// include this header so the physics and the walk exist exactly once.
//
//  * PoolRepairModel — immutable per-run rebuild physics (Table 2 rates,
//    hypergeometric lost-stripe fractions, critical-window lengths).
//  * LocalPoolState — one pool's mutable state, stepped one failure at a
//    time: a ring of the last p_l finish times for clustered pools, whose
//    rebuilds run independently on a closed-form clock, and in-flight
//    failures walked over piecewise-constant segments for declustered ones,
//    whose rebuilds share the pool's bandwidth.
//  * walk_pool — the one loop that steps a pool through a mission. Stage 1
//    walks one pool with no network repair; the fleet walks every pool.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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

/// Mutable state of one local pool, stepped one disk failure at a time.
///
/// A clustered pool keeps a ring of its last p_l finish times. Each failed
/// disk rebuilds onto its own spare at a fixed rate from its detection, so
/// it finishes at (t + detection_hours) + clustered_rebuild_hours(), which
/// is monotone in its arrival time t: failures finish in arrival order.
/// After a tolerated failure at most p_l rebuilds are in flight, so a
/// failure at t is catastrophic exactly when the p_l-th previous failure
/// since the last reset is still rebuilding at t, and then every later one
/// is too. The failures in flight at t are the ring entries with a finish
/// after t. (p_l = 0: every failure is catastrophic and the ring is empty;
/// its one slot holds +infinity.)
///
/// A declustered pool keeps its in-flight failures with their rebuild
/// progress. Their rebuilds share the pool's bandwidth, so their rates
/// interlock and each step walks the piecewise-constant segments since the
/// previous failure, ending at detections and completions; with priority
/// reconstruction it also carries the critical window during which one more
/// failure is fatal.
class LocalPoolState {
 public:
  /// Forget every failure (capacity is kept, so a reused state allocates
  /// once).
  void reset(const PoolRepairModel& m) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    finish_.assign(std::max<std::size_t>(m.code.p, 1), m.code.p == 0 ? kInf : -kInf);
    oldest_ = 0;
    failures_.clear();
    clear_at_ = -kInf;
    last_advance_ = 0.0;
  }

  /// One disk failure at t, which must not precede the previous one since
  /// reset(). Returns whether it exceeds the pool's tolerance: clustered
  /// pools (and declustered without priority repair) lose data at any p_l+1
  /// overlap, declustered priority reconstruction only inside the critical
  /// window. After a catastrophe the pool holds its realized state, which
  /// the accessors below read, until reset().
  bool fail(double t, const PoolRepairModel& m) {
    if (m.clustered) {
      MLEC_ASSERT(!finish_.empty(), "reset(m) must run before fail()");
      double& oldest = finish_[oldest_];
      if (!(oldest <= t)) {
        at_ = t;
        return true;
      }
      oldest = t + m.detection_hours + m.clustered_rebuild_hours();
      oldest_ = oldest_ + 1 == finish_.size() ? 0 : oldest_ + 1;
      return false;
    }
    advance_to(t, m);
    failures_.push_back({t + m.detection_hours, m.disk_capacity_tb});
    const std::size_t f = failures_.size();
    if (f > m.code.p && (!m.priority_repair || t < clear_at_)) return true;
    // A tolerated failure extends the critical window while stripes at
    // exactly p_l failed chunks may exist.
    if (m.priority_repair && f >= m.code.p)
      clear_at_ = std::max(clear_at_, t + m.critical_window_hours(f));
    return false;
  }

  /// Failed disks at the catastrophe, its failure included.
  std::size_t concurrent_failures(const PoolRepairModel& m) const {
    return m.clustered ? m.code.p + 1 : failures_.size();
  }

  /// Data still missing across the failed disks at the catastrophe.
  double unrebuilt_tb(const PoolRepairModel& m) const {
    double total = 0.0;
    for_each_remaining_tb(m, [&](double remaining) { total += remaining; });
    return total;
  }

  /// Fraction of local stripes lost at the catastrophe: clustered pools
  /// lose the span not yet rebuilt on the most-rebuilt failed disk
  /// (in-order rebuild); declustered pools the hypergeometric tail over the
  /// failure count.
  double lost_stripe_fraction(const PoolRepairModel& m) const {
    if (!m.clustered) return m.declustered_lost_fraction(failures_.size());
    double max_progress = 0.0;
    for_each_remaining_tb(m, [&](double remaining) {
      max_progress = std::max(max_progress, 1.0 - remaining / m.disk_capacity_tb);
    });
    return 1.0 - max_progress;
  }

 private:
  /// One in-flight declustered failure: when the repair system notices it,
  /// and how much of the disk is still unrebuilt.
  struct PoolFailure {
    double detect_at;
    double remaining_tb;
  };

  /// Calls fn(remaining TB) for each failed disk, in arrival order. A
  /// clustered survivor has rate x (finish - t) left, capped at the disk's
  /// capacity while undetected; the catastrophic failure has all of it.
  template <typename Fn>
  void for_each_remaining_tb(const PoolRepairModel& m, Fn&& fn) const {
    if (!m.clustered) {
      for (const auto& f : failures_) fn(f.remaining_tb);
      return;
    }
    const double rate = m.clustered_rate_tb_h();
    auto survivor = [&](double finish) {
      fn(std::min(m.disk_capacity_tb, rate * (finish - at_)));
    };
    for (std::size_t i = oldest_; i < m.code.p; ++i) survivor(finish_[i]);
    for (std::size_t i = 0; i < oldest_; ++i) survivor(finish_[i]);
    fn(m.disk_capacity_tb);
  }

  /// Progress the declustered rebuilds from last_advance_ to t, segment by
  /// segment, dropping the ones that complete.
  void advance_to(double t, const PoolRepairModel& m) {
    MLEC_ASSERT(failures_.empty() || t >= last_advance_, "pool time cannot flow backwards");
    double now = last_advance_;
    last_advance_ = t;
    while (now < t && !failures_.empty()) {
      std::size_t detected = 0;
      for (const auto& f : failures_) detected += f.detect_at <= now ? 1 : 0;
      const double rate = m.per_failure_rate_tb_h(failures_.size(), detected);
      double boundary = t;
      for (const auto& f : failures_) {
        if (f.detect_at > now) boundary = std::min(boundary, f.detect_at);
        else if (rate > 0.0)
          boundary = std::min(boundary, now + f.remaining_tb / rate);
      }
      const double dt = boundary - now;
      for (auto& f : failures_)
        if (f.detect_at <= now) f.remaining_tb -= rate * dt;
      now = boundary;
      std::erase_if(failures_,
                    [](const PoolFailure& f) { return f.remaining_tb <= kRebuildCompleteEpsilonTb; });
    }
  }

  /// Clustered: the last p_l finish times, oldest at oldest_, and the time
  /// of the catastrophe the state describes.
  std::vector<double> finish_;
  std::size_t oldest_ = 0;
  double at_ = 0.0;
  /// Declustered: in-flight failures in arrival order, the critical-window
  /// end (a failure before it is catastrophic even with priority
  /// reconstruction), and the time rebuilds have been advanced to.
  std::vector<PoolFailure> failures_;
  double clear_at_ = -std::numeric_limits<double>::infinity();
  double last_advance_ = 0.0;
};

/// One injected (burst or trace) failure of a pool.
struct InjectedFailure {
  double time;
  std::uint32_t order;  ///< index in the trace: the tie order at equal times
};

/// Walk one local pool, from a fresh state, through a mission.
///
/// Sampled arrivals (the first at `next_arrival`, each next one
/// `next_gap(t)` after a sampled failure at t) merge with the pool's
/// time-sorted `injected` failures, an injected one first at an equal time.
/// Each failure steps `state`. At a catastrophe, `on_catastrophe(t, inj)`
/// reads the realized state and returns when network repair ends; the pool
/// restarts fresh, and failures before that end go to `on_held(t, inj)`
/// (deepenings) instead of the pool. `inj` is the failure's injected entry,
/// null for a sampled one. Returns the failures walked, held ones included,
/// and leaves `next_arrival` at the first sampled arrival at or past
/// mission end. Forced inline, so each caller compiles to one loop with its
/// gap source and callbacks folded in.
template <typename NextGap, typename OnCatastrophe, typename OnHeld>
[[gnu::always_inline]] inline std::uint64_t walk_pool(
    LocalPoolState& state, const PoolRepairModel& m, double mission_hours,
    double& next_arrival, std::span<const InjectedFailure> injected, NextGap&& next_gap,
    OnCatastrophe&& on_catastrophe, OnHeld&& on_held) {
  const InjectedFailure* inj = injected.data();
  const InjectedFailure* const inj_end = inj + injected.size();
  double held_until = -std::numeric_limits<double>::infinity();
  std::uint64_t walked = 0;
  state.reset(m);
  while (true) {
    const bool is_injected = inj != inj_end && inj->time <= next_arrival;
    const double t = is_injected ? inj->time : next_arrival;
    if (t >= mission_hours) break;
    const InjectedFailure* const source = is_injected ? inj++ : nullptr;
    if (!is_injected) next_arrival = t + next_gap(t);
    ++walked;
    if (t < held_until) {
      on_held(t, source);
      continue;
    }
    if (!state.fail(t, m)) continue;
    held_until = on_catastrophe(t, source);
    state.reset(m);
  }
  return walked;
}

}  // namespace mlec
