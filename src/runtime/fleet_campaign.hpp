// Campaign-runner adapter for the fleet Monte-Carlo simulator: resumable,
// cancellable, fault-isolated mission sweeps with adaptive PDL stopping.
//
// One campaign unit = one mission. Shard s / attempt a draws from
// Rng::for_substream(seed, s | a << 32); with the same seed, shard count,
// and checkpoint file, a run killed mid-flight and resumed produces
// bit-identical FleetSimResult statistics to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/fleet_sim.hpp"
#include "runtime/campaign.hpp"

namespace mlec {

struct FleetCampaignResult {
  FleetSimResult result;
  CampaignReport report;
};

/// Translate a FleetSimResult into campaign accumulator slots (and back).
/// Exposed so other sweeps can reuse the fleet slot layout.
void accumulate_fleet_result(const FleetSimResult& result, CampaignAccumulator& acc);
FleetSimResult fleet_result_from(const CampaignAccumulator& acc);

/// Identity string folded into the journal fingerprint: any change to the
/// physics configuration invalidates old checkpoints.
std::string fleet_campaign_fingerprint(const FleetSimConfig& config);

/// Run `campaign.total_units` missions of `config`. The caller sets the
/// seed and execution knobs; the fingerprint is set here from
/// fleet_campaign_fingerprint. target_rse stops on the PDL estimate's
/// relative standard error.
FleetCampaignResult run_fleet_campaign(const FleetSimConfig& config, CampaignConfig campaign,
                                       ThreadPool* pool = nullptr);

}  // namespace mlec
