// One scenario, every engine.
//
// A Scenario is the single description of an evaluation run that all four
// estimation strategies (core/estimator.hpp) and every `mlecctl` verb
// consume: the deployment (SystemSpec), the failure model (exponential
// lifetimes, optional burst climate, optional latent-error rate), the repair
// policy (priority reconstruction), and the method-specific estimation
// knobs (mission counts, trial counts, seed). It is INI round-trippable through spec_io
// (load_scenario / format_scenario), so the same file drives `mlecctl`,
// the benches, and the tests; a deployment-only file is a valid scenario.
//
// The conversion methods are the *only* place the legacy per-engine config
// structs (FleetSimConfig, LocalPoolSimConfig, BurstPdlConfig,
// DurabilityEnv) are populated from a spec — engines keep their own structs
// but no caller hand-rolls them anymore.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/burst_pdl.hpp"
#include "analysis/durability.hpp"
#include "analysis/fleet_sim.hpp"
#include "gf/code_model.hpp"
#include "placement/codes.hpp"
#include "placement/schemes.hpp"
#include "sim/local_pool_sim.hpp"
#include "topology/bandwidth.hpp"
#include "topology/topology.hpp"

namespace mlec {

/// One MLEC deployment. Defaults reproduce the paper's §3 setup:
/// (10+2)/(17+3) over 57,600 disks, 1% AFR, 30-minute detection.
struct SystemSpec {
  DataCenterConfig dc = DataCenterConfig::paper_default();
  BandwidthConfig bandwidth{};
  MlecCode code = MlecCode::paper_default();
  MlecScheme scheme = MlecScheme::kCC;
  RepairMethod repair = RepairMethod::kRepairMinimum;
  double afr = 0.01;
  double detection_hours = 0.5;
  double mission_hours = 8766.0;
  /// Network-level code family. kRs keeps the paper's MDS analysis; kLrc
  /// interprets `network_lrc` as the network level (its width must match
  /// code.network_width() so pool layout arithmetic is unchanged). The
  /// local level stays Reed-Solomon.
  CodeFamily network_family = CodeFamily::kRs;
  LrcCode network_lrc{};

  /// The network level as a pluggable LevelCode for make_code_model().
  LevelCode network_level() const {
    return network_family == CodeFamily::kLrc ? LevelCode::make_lrc(network_lrc)
                                              : LevelCode::make_rs(code.network);
  }
};

struct Scenario {
  /// Optional label carried into reports ([scenario] name).
  std::string name;

  /// Deployment: topology, bandwidth, code, scheme, repair method, AFR,
  /// detection and mission times.
  SystemSpec system;

  /// Declustered priority reconstruction (the paper's default).
  bool priority_repair = true;

  /// Unrecoverable-read-error probability per bit read during rebuilds;
  /// 0 disables the latent-error extension (analytic estimators only).
  double ure_per_bit = 0.0;

  /// Correlated-burst climate overlaid on independent failures;
  /// bursts_per_year == 0 means none.
  BurstClimate bursts{};

  // --- estimation knobs ---
  std::uint64_t missions = 1000;        ///< fleet-sim missions (method=sim)
  std::uint64_t split_missions = 20000; ///< stage-1 pool missions (method=split)
  std::size_t burst_trials = 1500;      ///< burst-engine trials per cell (method=dp)
  std::uint64_t seed = 1;

  void validate() const;

  bool has_bursts() const { return bursts.bursts_per_year > 0.0; }

  /// Environment for the analytic durability pipeline (includes ure_per_bit).
  DurabilityEnv durability_env() const;
  /// Full-fleet Monte-Carlo configuration (method=sim).
  FleetSimConfig fleet_config() const;
  /// Stage-1 single-pool simulation configuration (method=split).
  LocalPoolSimConfig local_pool_config() const;
  /// Burst-allocation DP engine configuration (method=dp with bursts).
  BurstPdlConfig burst_config() const;

  /// The paper's §3 default setup.
  static Scenario paper_default();
};

}  // namespace mlec
