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

struct LocalPoolCampaignOptions {
  /// Journal file; empty runs in-memory (no persistence).
  std::string checkpoint_path;
  bool resume = false;
  std::uint64_t checkpoint_every = 256;
  std::size_t shards = 0;  ///< 0 = derive from the pool
  std::size_t max_attempts = 3;
  double retry_backoff_ms = 100.0;
  /// Shard watchdog deadline in seconds; 0 disables (see
  /// CampaignConfig::shard_timeout_s).
  double shard_timeout_s = 0.0;
  /// Stop early once the catastrophe count's Poisson relative standard
  /// error (1/sqrt(count)) drops below this (0 disables).
  double target_rse = 0.0;
  /// Max missions to run this invocation (0 = unlimited).
  std::uint64_t unit_budget = 0;
  StopToken stop{};
  /// Per-commit progress feed (see CampaignConfig::progress).
  std::function<void(const CampaignProgress&)> progress;
  /// ThreadPool dispatch lane (see CampaignConfig::pool_lane).
  std::size_t pool_lane = kLaneNormal;
};

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

/// Translate one LocalPoolSimResult into campaign accumulator slots.
/// Touches every slot on every call so the accumulator layout is
/// deterministic regardless of which missions hit catastrophes.
void accumulate_local_pool_result(const LocalPoolSimResult& result, CampaignAccumulator& acc);

/// Identity string folded into the journal fingerprint: any change to the
/// physics configuration invalidates old checkpoints.
std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config);

LocalPoolCampaignResult run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                std::uint64_t missions, std::uint64_t seed,
                                                const LocalPoolCampaignOptions& options = {},
                                                ThreadPool* pool = nullptr);

}  // namespace mlec
