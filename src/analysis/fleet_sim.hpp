// Count-level full-fleet Monte-Carlo simulator — the paper's "measure MLEC
// performance and durability at scale (over 50,000 disks)" capability, and
// the repo's one full-system simulator.
//
// FleetSim keeps per-pool *counts*: each local pool tracks its concurrent
// failures, rebuild progress, and — for declustered pools — the priority-
// reconstruction critical window, via the same shared state machine
// (sim/pool_state.hpp) that sim/local_pool_sim.hpp runs for one pool, and
// the pool's physics comes from the same LocalPoolSimConfig
// (FleetSimConfig::local_pool()). Catastrophic pools enter a network-repair
// exposure whose duration depends on the repair method and the realized
// lost-stripe fraction; data loss occurs when p_n+1 catastrophic pools
// overlap in the same network pool (clustered network placement) or in
// distinct racks (declustered), thinned by the stripe-coverage probability
// for the chunk-aware repair methods (the paper's §4.2.3 F#1).
//
// A mission is pool-major (DESIGN.md §10): it walks each local pool through
// stage 1's loop (walk_pool, sim/pool_state.hpp) on its own exponential
// failure stream, merged with the pool's injected bursts or replayed trace
// events, and records only catastrophes and the failures that deepen them;
// a second phase replays those records in fleet time order to test the
// network-level overlaps. Every mission stops at its first data loss.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "gf/code_model.hpp"
#include "placement/codes.hpp"
#include "placement/schemes.hpp"
#include "sim/failure_gen.hpp"
#include "sim/local_pool_sim.hpp"
#include "topology/bandwidth.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mlec {

struct FleetSimConfig {
  DataCenterConfig dc = DataCenterConfig::paper_default();
  MlecCode code = MlecCode::paper_default();
  MlecScheme scheme = MlecScheme::kCC;
  RepairMethod method = RepairMethod::kRepairMinimum;
  BandwidthConfig bandwidth{};
  FailureDistribution failures{};
  double detection_hours = 0.5;
  double mission_hours = 8766.0;
  bool priority_repair = true;
  /// Network-level code family (gf/code_model.hpp). The default (a
  /// zero-width LevelCode) derives classic RS from code.network; a non-MDS
  /// level must keep code.network's (k, p) arithmetic: same data count,
  /// same width. Drives the loss test (overlap threshold = the model's
  /// min tolerance, thinned by its undecodable-pattern fraction) and the
  /// cross-rack read amplification.
  LevelCode network_level = LevelCode::make_rs({0, 0});
  /// Deterministic events merged into every mission (bursts, trace replay).
  FailureTrace injected_events{};

  void validate() const;
  /// One local pool of this fleet, as stage 1 simulates it: the one place
  /// a pool's physics is built from the fleet's parameters.
  LocalPoolSimConfig local_pool() const;
};

struct FleetSimResult {
  std::uint64_t missions = 0;
  std::uint64_t data_loss_missions = 0;
  std::uint64_t catastrophic_pool_events = 0;
  RunningStats loss_time_hours;
  RunningStats catastrophe_exposure_hours;
  /// Cross-rack repair traffic accumulated over all missions (TB).
  double cross_rack_tb = 0;
  /// Perf counters (DESIGN.md §10): failures walked (every failure of the
  /// mission, including any after its loss) and RNG variates drawn (batch
  /// refills included).
  std::uint64_t events_processed = 0;
  std::uint64_t rng_draws = 0;

  double pdl() const {
    return missions ? static_cast<double>(data_loss_missions) / static_cast<double>(missions)
                    : 0.0;
  }
  ProportionEstimate::Interval pdl_interval() const;
  double catastrophes_per_system_year(double mission_hours) const;
};

/// Immutable per-run constants of the fleet simulator: validated config,
/// pool layout/indexing, failure rates, and the finalized PoolRepairModel
/// lookup tables. Built once and shared read-only across every engine of
/// a campaign instead of being recomputed per engine. Opaque: the
/// definition lives in fleet_sim.cpp.
class FleetSimContext;

/// Build (and validate) the shared context for `config`.
std::shared_ptr<const FleetSimContext> make_fleet_context(const FleetSimConfig& config);

/// Run `missions` independent missions, serially, on one FleetMissionEngine
/// drawing from Rng::for_substream(seed, 0), like a campaign's block 0.
/// Parallel, resumable or cancellable sweeps go through run_fleet_campaign
/// (runtime/mission_campaign.hpp).
FleetSimResult simulate_fleet(const FleetSimConfig& config, std::uint64_t missions,
                              std::uint64_t seed);

/// One-mission-at-a-time view of the fleet simulator, exposed for the
/// campaign runner: the engine owns the precomputed per-run constants and
/// its own mutable pool state; the caller owns the Rng (so a campaign
/// worker can re-seat it on each block's substream). A mission's result
/// does not depend on the missions the engine ran before it.
class FleetMissionEngine {
 public:
  explicit FleetMissionEngine(const FleetSimConfig& config);
  /// Share an already-built context (the workers of one campaign should all
  /// use this form so the lookup tables exist once per process, not per
  /// worker).
  explicit FleetMissionEngine(std::shared_ptr<const FleetSimContext> context);
  ~FleetMissionEngine();
  FleetMissionEngine(FleetMissionEngine&&) noexcept;
  FleetMissionEngine& operator=(FleetMissionEngine&&) noexcept;

  /// Simulate one mission, accumulating into `into` (missions counter
  /// included).
  void run_mission(Rng& rng, FleetSimResult& into);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mlec
