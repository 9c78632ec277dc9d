// Long-term durability pipeline: the paper's splitting methodology (§3)
// with Markov-chain closed forms at both stages.
//
// Stage 1 produces, per local pool, the catastrophic-failure rate and the
// expected lost-local-stripe fraction at catastrophe — either from the
// closed forms here (clustered pools: birth-death Markov chain; declustered
// pools: the priority-reconstruction critical-window model) or from a
// stage-1 pool simulation campaign (run_local_pool_campaign,
// runtime/mission_campaign.hpp).
//
// Stage 2 treats catastrophic pools as failing units at the network level
// (the paper's "treat a local pool like a disk"), with a per-repair-method
// exposure time from the repair-time model and a stripe-coverage factor for
// the repair methods that know which chunks failed (the paper's §4.2.3 F#1
// "0.03%" effect). Durability is reported in nines over the mission.
//
// The same machinery evaluates SLEC and LRC deployments for the §5
// comparisons, including the declustered detection-time floor (§5.2.2 F#2).
#pragma once

#include <optional>

#include "gf/code_model.hpp"
#include "placement/codes.hpp"
#include "placement/schemes.hpp"
#include "topology/bandwidth.hpp"
#include "topology/topology.hpp"

namespace mlec {

/// Shared environment for all durability evaluations (paper §3 setup).
struct DurabilityEnv {
  DataCenterConfig dc = DataCenterConfig::paper_default();
  BandwidthConfig bw{};
  double afr = 0.01;
  double detection_hours = 0.5;
  double mission_hours = 8766.0;
  /// Unrecoverable-read-error probability per bit read during rebuilds
  /// (latent sector errors). 0 (the paper's implicit assumption) disables
  /// the extension; enterprise HDDs quote ~1e-15. A URE while rebuilding a
  /// stripe that already carries p_l failed chunks pushes it over the
  /// tolerance — the classic "RAID rebuild reads too many bits" effect,
  /// folded into the stage-1 catastrophe rates.
  double ure_per_bit = 0.0;
};

/// Stage-1 summary of one local pool.
struct LocalPoolStats {
  double cat_rate_per_pool_year = 0;  ///< catastrophic failures per pool-year
  double lost_stripe_fraction = 0;    ///< mean lost-local-stripe fraction
};

/// Closed-form stage 1 for a pool of `pool_disks` disks running `local_code`
/// with the given placement.
LocalPoolStats local_pool_stats(const DurabilityEnv& env, const SlecCode& local_code,
                                Placement placement, std::size_t pool_disks);

struct MlecDurabilityResult {
  LocalPoolStats stage1;
  double system_cat_rate_per_year = 0;  ///< catastrophic pools across the system
  double exposure_hours = 0;            ///< time a pool stays catastrophic
  double coverage = 1;                  ///< P(real loss | p_n+1 overlapping pools)
  double pdl = 0;                       ///< over the mission
  double nines = 0;
};

/// Full two-stage MLEC durability for one (code, scheme, repair method).
/// Pass `stage1` to substitute simulation-derived pool statistics
/// (the splitting workflow); otherwise the closed forms are used.
/// `network` is the network level's code model; nullptr means the RS model
/// of code.network. The overlap threshold is its min tolerance t (p_n for
/// RS, < p_n for LRC) and every stripe-coverage term is thinned by the
/// fraction of (t+1)-erasure patterns that are undecodable — the same two
/// quantities the fleet simulator consumes, so sim-vs-closed-form
/// crosschecks stay provable.
MlecDurabilityResult mlec_durability(const DurabilityEnv& env, const MlecCode& code,
                                     MlecScheme scheme, RepairMethod method,
                                     const std::optional<LocalPoolStats>& stage1 = std::nullopt,
                                     const CodeModel* network = nullptr);

/// Stage-2 building blocks, exposed so other closed-form models (the Markov
/// pool-as-a-disk estimator) share the exact same repair-method physics.
///
/// How long one catastrophic pool stays exposed: detection plus rebuilding
/// the method-dependent network volume over the network-stage fabric.
double stage2_exposure_hours(const DurabilityEnv& env, const MlecCode& code, MlecScheme scheme,
                             RepairMethod method, double lost_stripe_fraction);
/// P(t+1 overlapping catastrophic pools actually share a lost network
/// stripe), t = the network model's min tolerance (`network` as in
/// mlec_durability): 1 for R_ALL over an MDS level, the stripe-coverage
/// thinning for chunk-aware methods (paper §4.2.3 F#1). When some
/// (t+1)-pattern still decodes (LRC) the R_ALL shortcut no longer applies
/// and every term carries the undecodable fraction.
double stage2_coverage(const DurabilityEnv& env, const MlecCode& code, MlecScheme scheme,
                       RepairMethod method, double lost_stripe_fraction,
                       const CodeModel* network = nullptr);

struct SimpleDurability {
  double pdl = 0;
  double nines = 0;
};

/// One-level SLEC durability (used by the Figure 12 comparison).
SimpleDurability slec_durability(const DurabilityEnv& env, const SlecCode& code,
                                 SlecScheme scheme);

/// Declustered LRC durability (used by the Figure 15 comparison). Uses the
/// maximally-recoverable criterion for the critical-stripe census.
SimpleDurability lrc_durability(const DurabilityEnv& env, const LrcCode& code);

/// A correlated-burst climate overlaid on independent failures — the
/// quantitative form of the paper's takeaways 3-4 (§6.1): sites that see
/// frequent bursts should run C/C; burst-free sites get more nines from
/// C/D or D/D. Bursts arrive `bursts_per_year` times per year, each
/// scattering `failures` simultaneous disk failures over `racks` racks.
struct BurstClimate {
  double bursts_per_year = 0;
  std::size_t racks = 3;
  std::size_t failures = 30;
};

class BurstPdlEngine;  // analysis/burst_pdl.hpp

/// Mission PDL combining the independent-failure pipeline with burst-induced
/// losses: 1 - (1 - pdl_indep) * (1 - pdl_per_burst)^(expected bursts).
SimpleDurability mlec_durability_with_bursts(const DurabilityEnv& env, const MlecCode& code,
                                             MlecScheme scheme, RepairMethod method,
                                             const BurstClimate& climate,
                                             const BurstPdlEngine& engine);

}  // namespace mlec
