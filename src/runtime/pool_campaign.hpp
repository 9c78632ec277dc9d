// Campaign-runner adapter for the stage-1 local-pool simulator — the front
// half of the splitting estimator, with checkpoint/resume, cancellation,
// shard fault isolation, and adaptive stopping on the catastrophe count.
//
// One campaign unit = one pool mission, run by the LocalPoolEngine that
// each shard attempt builds once. Shard s / attempt a draws from
// Rng::for_substream(seed, s | a << 32); with the same seed, shard count,
// and checkpoint file, a run killed mid-flight and resumed produces
// bit-identical statistics to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/durability.hpp"
#include "runtime/campaign.hpp"
#include "sim/local_pool_sim.hpp"

namespace mlec {

struct LocalPoolCampaignResult {
  std::uint64_t missions = 0;
  std::uint64_t catastrophes = 0;
  double pool_years = 0.0;  ///< total simulated pool-time in years
  RunningStats lost_stripe_fraction;  ///< per-catastrophe lost fraction
  RunningStats unrebuilt_tb;          ///< per-catastrophe missing data
  RunningStats single_disk_repair_hours;
  /// Perf counters merged from the shard simulators.
  std::uint64_t events_processed = 0;
  std::uint64_t rng_draws = 0;
  CampaignReport report;

  double catastrophe_rate_per_year() const {
    return pool_years > 0.0 ? static_cast<double>(catastrophes) / pool_years : 0.0;
  }
  /// Stage-1 statistics for the splitting stage 2 (mlec_durability).
  LocalPoolStats stats() const;
};

/// Identity string folded into the journal fingerprint: any change to the
/// physics configuration invalidates old checkpoints.
std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config);

/// Run `campaign.total_units` pool missions of `config`. The caller sets
/// the seed and execution knobs; the fingerprint is set here from
/// local_pool_campaign_fingerprint. target_rse stops on the catastrophe
/// count's Poisson relative standard error, 1/sqrt(count).
LocalPoolCampaignResult run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                CampaignConfig campaign,
                                                ThreadPool* pool = nullptr);

}  // namespace mlec
