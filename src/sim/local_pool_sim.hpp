// Single-local-pool Monte-Carlo simulator — stage 1 of the paper's
// "splitting" methodology (§3) and the engine behind Figure 7.
//
// Simulates one local pool (clustered: k_l+p_l disks; declustered: a whole
// enclosure) under independent disk failures with detection delay and
// bandwidth-limited rebuild. A mission is one walk_pool
// (sim/pool_state.hpp) of one pool with no injected failures and no network
// repair: the fleet simulator walks each of its pools through the same loop.
//
// Stage 1 does not count catastrophes to estimate their rate: it integrates
// their compensator. Failures arrive as a Poisson stream at the pool rate
// whatever the pool's state, so N_cat(t) minus the integral of
// pool_rate x 1{one more failure would be catastrophic} is a martingale,
// and each mission records that integral, W = pool_rate x (at-risk hours),
// and F = pool_rate x the integral of the lost-stripe fraction such a
// failure would realize over those hours (LocalPoolState::accrue_at_risk).
// E[W] is the expected catastrophe count and E[F] the expected sum of their
// lost fractions, but W is nonzero in every mission that reaches p_l
// failures in flight, not only in the rare ones that see a catastrophe, so
// the rate ΣW / pool-years reaches a given relative error in far fewer
// missions. Its RSE is that of a mean of i.i.d. per-mission W:
// sqrt(ΣW² - (ΣW)²/n) / ΣW. The observed catastrophe count is kept as a
// diagnostic.
//
// Modeling notes (documented deviations are cross-checked against the
// Markov closed forms in tests):
//  * Failures arrive as a Poisson process at rate n*lambda whatever the
//    pool's state, so a failed disk that is not yet rebuilt can fail again
//    and counts as one more concurrent failure (the closed forms use
//    (n-i)*lambda). This overstates the catastrophe rate, by about 4/3 on
//    a 4-disk pool. A thinned stream would need the failures in flight at
//    t, which a clustered pool's ring gives as its entries finishing after
//    t (sim/pool_state.hpp).
//  * Clustered pools rebuild each failed disk onto a dedicated spare at the
//    spare's write bandwidth (Table 2's 40 MB/s); a catastrophe occurs when
//    p_l+1 rebuilds overlap, and the lost-stripe fraction is the span of
//    stripes not yet rebuilt on the most-rebuilt failed disk (in-order
//    rebuild).
//  * Declustered pools rebuild at the pool-wide declustered bandwidth
//    (Table 2's 264 MB/s) shared across concurrent failures. With priority
//    reconstruction (the default, as in the paper), stripes currently at
//    p_l failed chunks are rebuilt first; their volume is the hypergeometric
//    expectation, so the pool becomes immune to the next single failure
//    once that (small) volume has been rewritten, detection time included.
//    A catastrophe occurs when a failure arrives inside the critical window.
//    With priority_repair=false (ablation), any p_l+1 overlapping rebuilds
//    are catastrophic, as in a clustered pool.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "placement/codes.hpp"
#include "placement/schemes.hpp"
#include "sim/pool_state.hpp"
#include "topology/bandwidth.hpp"
#include "util/rng.hpp"

namespace mlec {

struct LocalPoolSimConfig {
  SlecCode code{17, 3};
  Placement placement = Placement::kClustered;
  std::size_t pool_disks = 20;  ///< k_l+p_l for Cp, enclosure size for Dp
  double disk_capacity_tb = 20.0;
  double chunk_kb = 128.0;
  double afr = 0.01;
  double detection_hours = 0.5;
  BandwidthConfig bandwidth{};
  double mission_hours = 8766.0;
  bool priority_repair = true;

  void validate() const;
  /// The shared pool-state physics (sim/pool_state.hpp) for this config.
  PoolRepairModel repair_model() const;
};

struct LocalPoolSimResult {
  std::uint64_t missions = 0;
  /// Catastrophes observed: a diagnostic, since the estimates read the
  /// compensator sums below.
  std::uint64_t catastrophes = 0;
  double pool_years = 0.0;                ///< total simulated pool-time in years
  double expected_catastrophes = 0.0;     ///< ΣW over missions
  double expected_catastrophes_sq = 0.0;  ///< ΣW² over missions
  double expected_lost_fraction = 0.0;    ///< ΣF over missions
  /// Perf counters: events processed (failures, the only events) and RNG
  /// variates drawn.
  std::uint64_t events_processed = 0;
  std::uint64_t rng_draws = 0;

  /// Catastrophes per pool-year (the splitting stage-1 rate): ΣW over the
  /// pool-years.
  double catastrophe_rate_per_year() const {
    return pool_years > 0.0 ? expected_catastrophes / pool_years : 0.0;
  }
  /// Mean lost-local-stripe fraction per catastrophe: ΣF / ΣW.
  double lost_stripe_fraction() const {
    return expected_catastrophes > 0.0 ? expected_lost_fraction / expected_catastrophes : 0.0;
  }
  /// Relative standard error of the rate, from the spread of the per-mission
  /// W; infinite while ΣW is zero.
  double rate_rse() const {
    if (!(expected_catastrophes > 0.0)) return std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(missions);
    const double spread =
        expected_catastrophes_sq - expected_catastrophes * expected_catastrophes / n;
    return std::sqrt(std::max(0.0, spread)) / expected_catastrophes;
  }
};

/// One-mission-at-a-time view of the stage-1 simulator, the local-pool
/// counterpart of FleetMissionEngine. Construction validates the config,
/// finalizes the repair model and fixes the pool failure rate; every mission
/// then reuses that physics and one LocalPoolState, so per-run work happens
/// once per engine, never once per mission. The caller owns the Rng, so a
/// campaign worker can re-seat it on each block's substream.
class LocalPoolEngine {
 public:
  explicit LocalPoolEngine(const LocalPoolSimConfig& config);

  /// Simulate one mission, accumulating into `into`: the missions counter
  /// goes up by one and pool_years becomes missions x mission length, so N
  /// calls on a fresh result equal simulate_local_pool(N) bit for bit.
  /// After each catastrophe the pool is reset (network-level repair is
  /// stage 2's concern) and the mission continues, so the estimator is a
  /// rate, not a first-passage probability.
  void run_mission(Rng& rng, LocalPoolSimResult& into);

 private:
  double mission_hours_ = 0.0;
  double pool_rate_ = 0.0;  ///< pool-wide failure rate per hour
  PoolRepairModel model_;
  LocalPoolState pool_;
};

/// Run `missions` independent missions on one LocalPoolEngine, serially.
/// Parallel, resumable or cancellable runs go through run_local_pool_campaign
/// (runtime/mission_campaign.hpp).
LocalPoolSimResult simulate_local_pool(const LocalPoolSimConfig& config, std::uint64_t missions,
                                       Rng& rng);

}  // namespace mlec
