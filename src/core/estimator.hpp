// The paper's four estimation strategies behind one interface.
//
// Every strategy consumes the same Scenario (core/scenario.hpp) and produces
// the same Estimate — PDL, nines, a 95% interval, repair metadata, and a
// provenance note — so callers (the crosscheck harness, `mlecctl estimate`,
// the benches) can swap methods or run them all and compare:
//
//   sim     full-fleet Monte Carlo (analysis/fleet_sim.hpp) run through the
//           campaign runner: checkpoint/resume, cancellation, block retry,
//           adaptive stopping on the PDL estimate.
//   split   the paper's splitting methodology: Monte-Carlo stage 1 on one
//           local pool (runtime/mission_campaign.hpp) feeding the closed-form
//           stage 2 (analysis/durability.hpp).
//   dp      the fully closed-form splitting pipeline, plus the
//           burst-allocation DP when the scenario carries a burst climate.
//   markov  two-level birth-death chains — "treat a local pool like a
//           disk" — sharing stage-2 exposure/coverage closed forms with dp.
//
// Not every method covers every scenario: latent-error (URE) rates, burst
// climates, priority repair and the LRC network family each narrow the set.
// applicability() returns a human-readable reason instead of guessing.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "runtime/campaign.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"

namespace mlec {

/// What a campaign-backed estimator does when blocks exhaust their retry
/// attempts and are quarantined.
enum class DegradePolicy {
  /// Return a partial Estimate built from the surviving blocks, flagged
  /// `degraded` with its 95% interval widened by 1/(1 - missing fraction).
  kDegrade,
  /// Throw DegradedError instead of returning a partial answer.
  kFailFast,
};

/// Thrown under DegradePolicy::kFailFast when quarantined blocks left part
/// of the sweep uncomputed.
class DegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One method's answer for one scenario.
struct Estimate {
  std::string method;      ///< registry name (sim, split, dp, markov)
  std::string provenance;  ///< which engines ran, including any fallbacks
  double pdl = 0.0;
  double nines = 0.0;  ///< -log10(pdl); +inf when pdl == 0
  /// 95% interval on pdl. Monte-Carlo methods report a sampling interval
  /// (Wilson for sim, first-order Poisson propagation for split); the
  /// analytic methods report lo == hi == pdl.
  double pdl_lo = 0.0;
  double pdl_hi = 0.0;
  bool stochastic = false;    ///< interval derives from sampling
  std::uint64_t samples = 0;  ///< missions consumed (0 = pure closed form)

  // Repair metadata, where the method knows it.
  double exposure_hours = 0.0;     ///< time a catastrophic pool stays exposed
  double cat_rate_per_year = 0.0;  ///< catastrophic pools per system-year
  double cross_rack_tb = 0.0;      ///< observed cross-rack repair traffic (sim)
  double coverage = 1.0;           ///< stage-2 stripe coverage (analytic)

  // Campaign outcome (campaign-backed methods only).
  bool truncated = false;
  bool converged = false;
  bool resumed = false;
  /// Quarantined blocks left part of the sweep uncomputed: pdl/nines come
  /// from the surviving units and [pdl_lo, pdl_hi] has been widened by
  /// 1/(1 - missing fraction) to price in the lost coverage.
  bool degraded = false;
  std::string degrade_note;  ///< human-readable account of what was lost

  // Perf counters (campaign-backed methods; zero for the closed forms).
  std::uint64_t events_processed = 0;  ///< sim events handled (sim: failures walked)
  std::uint64_t rng_draws = 0;         ///< RNG variates consumed
  double elapsed_s = 0.0;              ///< campaign wall-clock seconds
  /// Full campaign report — per-worker done/elapsed drives the `--perf`
  /// trials-per-second table. No rows for the analytic methods.
  CampaignReport campaign;
};

/// Execution knobs shared by all estimators; only the campaign-backed
/// methods (sim, split) consume the checkpoint/convergence fields.
struct EstimateOptions {
  ThreadPool* pool = nullptr;
  StopToken stop{};
  /// Base journal path; empty runs in-memory. Campaign-backed estimators
  /// append ".<method>" so one base path serves --method=all without
  /// journal collisions.
  std::string checkpoint_path;
  bool resume = false;
  std::size_t shards = 0;  ///< worker cap (see CampaignConfig::shards)
  /// Adaptive stopping target (0 disables): PDL RSE for sim, catastrophe-
  /// count RSE for split's stage 1.
  double target_rse = 0.0;
  /// Max missions this invocation (0 = unlimited).
  std::uint64_t unit_budget = 0;
  /// Largest campaign block in missions, part of the answer's identity.
  std::uint64_t checkpoint_every = 256;
  /// Shard watchdog deadline in seconds; 0 disables (see
  /// CampaignConfig::shard_timeout_s).
  double shard_timeout_s = 0.0;
  /// Quarantined-block policy: partial degraded Estimate vs DegradedError.
  DegradePolicy degrade = DegradePolicy::kDegrade;
  /// Per-commit progress feed from the underlying campaign (units done,
  /// current RSE); the server streams these to `watch` subscribers. Must be
  /// thread-safe — workers invoke it concurrently.
  std::function<void(const CampaignProgress&)> progress;
  /// ThreadPool dispatch lane for the campaign's workers (see
  /// CampaignConfig::pool_lane).
  std::size_t pool_lane = kLaneNormal;
};

class Estimator {
 public:
  virtual ~Estimator() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view describe() const = 0;
  /// Empty when the scenario is inside this method's domain; otherwise the
  /// reason it cannot run (shown verbatim in reports).
  virtual std::string applicability(const Scenario& scenario) const = 0;
  /// Estimate the scenario. Throws PreconditionError when applicability()
  /// is non-empty or the scenario fails validate().
  virtual Estimate estimate(const Scenario& scenario,
                            const EstimateOptions& options = {}) const = 0;
};

/// The four strategies in the paper's presentation order:
/// sim, split, dp, markov. Entries are process-lifetime singletons.
const std::vector<const Estimator*>& estimator_registry();

/// Look up a registered estimator by name; nullptr when unknown.
const Estimator* find_estimator(std::string_view name);

}  // namespace mlec
