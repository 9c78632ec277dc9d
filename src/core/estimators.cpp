#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "analysis/burst_pdl.hpp"
#include "analysis/durability.hpp"
#include "analysis/repair_time.hpp"
#include "math/combin.hpp"
#include "math/markov.hpp"
#include "placement/pools.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/units.hpp"

namespace mlec {

namespace {

/// The campaign a campaign-backed method runs: `units` missions from `seed`
/// under the caller's execution knobs. The journal goes to
/// "<checkpoint_path>.<method>" (--method=all runs several campaigns; each
/// needs its own journal identity).
CampaignConfig method_campaign(const EstimateOptions& options, std::string_view method,
                               std::uint64_t units, std::uint64_t seed) {
  CampaignConfig campaign;
  campaign.total_units = units;
  campaign.seed = seed;
  campaign.shards = options.shards;
  campaign.checkpoint_every = options.checkpoint_every;
  if (!options.checkpoint_path.empty())
    campaign.checkpoint_path = options.checkpoint_path + "." + std::string(method);
  campaign.resume = options.resume;
  campaign.shard_timeout_s = options.shard_timeout_s;
  campaign.target_rse = options.target_rse;
  campaign.unit_budget = options.unit_budget;
  campaign.stop = options.stop;
  campaign.progress = options.progress;
  campaign.pool_lane = options.pool_lane;
  return campaign;
}

void require_applicable(const Estimator& estimator, const Scenario& scenario) {
  scenario.validate();
  const std::string why = estimator.applicability(scenario);
  if (!why.empty())
    throw PreconditionError(std::string(estimator.name()) +
                            " estimator cannot run this scenario: " + why);
}

/// Apply the quarantined-block policy to a campaign-backed estimate.
/// kFailFast throws; kDegrade marks the estimate and widens its interval by
/// 1/(1 - missing fraction) — the surviving blocks are an unbiased sample
/// (every block draws from its own substream), but the lost coverage is
/// priced into the uncertainty instead of hidden.
void apply_degrade_policy(Estimate& e, const CampaignReport& report, DegradePolicy policy) {
  if (!report.degraded()) return;
  const std::string account =
      std::to_string(report.quarantined) + " block(s) quarantined; " +
      std::to_string(report.units_done) + " of " + std::to_string(report.units_requested) +
      " units computed";
  if (policy == DegradePolicy::kFailFast)
    throw DegradedError(e.method + " estimate degraded: " + account);
  e.degraded = true;
  if (report.units_done == 0) {
    // Nothing survived: no point estimate is defensible, so report the
    // vacuous interval rather than a silently wrong number.
    e.pdl_lo = 0.0;
    e.pdl_hi = 1.0;
    e.degrade_note = account + "; no usable interval";
    return;
  }
  const double widen = static_cast<double>(report.units_requested) /
                       static_cast<double>(report.units_done);
  e.pdl_lo = std::max(0.0, e.pdl - (e.pdl - e.pdl_lo) * widen);
  e.pdl_hi = std::min(1.0, e.pdl + (e.pdl_hi - e.pdl) * widen);
  std::ostringstream note;
  note.precision(3);
  note << account << "; 95% interval widened x" << widen;
  e.degrade_note = note.str();
}

/// Copy a campaign-backed estimate's run report and apply the quarantine
/// policy to it.
void finish_campaign_estimate(Estimate& e, CampaignReport report, DegradePolicy policy) {
  e.truncated = report.truncated;
  e.converged = report.converged;
  e.resumed = report.resumed;
  e.elapsed_s = report.elapsed_s;
  e.campaign = std::move(report);
  apply_degrade_policy(e, e.campaign, policy);
}

// ---------------------------------------------------------------------------
// sim: full-fleet Monte Carlo through the campaign runner.

class SimEstimator final : public Estimator {
 public:
  std::string_view name() const override { return "sim"; }
  std::string_view describe() const override {
    return "full-fleet Monte Carlo via the campaign runner";
  }

  std::string applicability(const Scenario& scenario) const override {
    if (scenario.ure_per_bit > 0.0)
      return "latent-error (URE) rates are modeled by the dp estimator only";
    if (scenario.has_bursts())
      return "stochastic burst climates are folded in by the dp estimator only";
    return {};
  }

  Estimate estimate(const Scenario& scenario, const EstimateOptions& options) const override {
    require_applicable(*this, scenario);
    MLEC_FAULT_POINT("estimator.sim.pre");

    auto [fleet, report] = run_fleet_campaign(
        scenario.fleet_config(),
        method_campaign(options, name(), scenario.missions, scenario.seed), options.pool);

    Estimate e;
    e.method = std::string(name());
    e.provenance = "count-level fleet Monte Carlo (FleetMissionEngine) via the campaign runner";
    e.pdl = fleet.pdl();
    e.nines = durability_nines(e.pdl);
    // Zero observed losses give a Wilson lower bound of exactly 0, so the
    // nines interval's upper edge is +inf (consistent with any tiny PDL).
    const auto ci = fleet.pdl_interval();
    e.pdl_lo = ci.lo;
    e.pdl_hi = ci.hi;
    e.stochastic = true;
    e.samples = fleet.missions;
    e.exposure_hours = fleet.catastrophe_exposure_hours.mean();
    e.cat_rate_per_year = fleet.catastrophes_per_system_year(scenario.system.mission_hours);
    e.cross_rack_tb = fleet.cross_rack_tb;
    e.events_processed = fleet.events_processed;
    e.rng_draws = fleet.rng_draws;
    finish_campaign_estimate(e, std::move(report), options.degrade);
    return e;
  }
};

// ---------------------------------------------------------------------------
// split: Monte-Carlo stage 1 on one local pool, closed-form stage 2.

class SplitEstimator final : public Estimator {
 public:
  std::string_view name() const override { return "split"; }
  std::string_view describe() const override {
    return "Monte-Carlo stage-1 pool simulation feeding the closed-form stage 2";
  }

  std::string applicability(const Scenario& scenario) const override {
    if (scenario.ure_per_bit > 0.0)
      return "the stage-1 pool simulator does not model latent errors (use dp)";
    if (scenario.has_bursts())
      return "stochastic burst climates are folded in by the dp estimator only";
    return {};
  }

  Estimate estimate(const Scenario& scenario, const EstimateOptions& options) const override {
    require_applicable(*this, scenario);
    MLEC_FAULT_POINT("estimator.split.pre");

    auto [stage1_sim, report] = run_local_pool_campaign(
        scenario.local_pool_config(),
        method_campaign(options, name(), scenario.split_missions, scenario.seed), options.pool);

    Estimate e;
    e.method = std::string(name());
    e.samples = stage1_sim.missions;
    std::optional<LocalPoolStats> stage1;
    if (stage1_sim.expected_catastrophes > 0.0) {
      stage1 = LocalPoolStats{stage1_sim.catastrophe_rate_per_year(),
                              stage1_sim.lost_stripe_fraction()};
      e.stochastic = true;
      e.provenance = "campaign-run stage-1 pool simulation feeding the closed-form stage 2";
    } else {
      // No mission ever came within one failure of a catastrophe: fall back
      // to the closed forms so the caller still gets a point estimate, and
      // say so.
      e.provenance =
          "stage-1 simulation was never at risk of a catastrophe; closed-form stage 1 substituted";
    }

    const DurabilityEnv env = scenario.durability_env();
    const auto network = make_code_model(scenario.system.network_level());
    const MlecDurabilityResult dur =
        mlec_durability(env, scenario.system.code, scenario.system.scheme,
                        scenario.system.repair, stage1, network.get());
    e.pdl = dur.pdl;
    e.nines = dur.nines;
    e.exposure_hours = dur.exposure_hours;
    e.cat_rate_per_year = dur.system_cat_rate_per_year;
    e.coverage = dur.coverage;
    if (e.stochastic) {
      // First-order propagation of the stage-1 rate's error: the stage-2
      // loss rate scales like the catastrophe rate to the (t+1)-th power
      // (t+1 overlapping pools, t = the network level's min tolerance =
      // p_n for MDS), so the relative error amplifies by that exponent.
      const double rel = 1.959964 * stage1_sim.rate_rse();
      const double amp = static_cast<double>(network->min_tolerance() + 1) * rel;
      e.pdl_lo = std::max(0.0, e.pdl * (1.0 - amp));
      e.pdl_hi = std::min(1.0, e.pdl * (1.0 + amp));
    } else {
      e.pdl_lo = e.pdl_hi = e.pdl;
    }
    e.events_processed = stage1_sim.events_processed;
    e.rng_draws = stage1_sim.rng_draws;
    finish_campaign_estimate(e, std::move(report), options.degrade);
    return e;
  }
};

// ---------------------------------------------------------------------------
// dp: fully closed-form splitting pipeline (+ burst-allocation DP).

class DpEstimator final : public Estimator {
 public:
  std::string_view name() const override { return "dp"; }
  std::string_view describe() const override {
    return "closed-form splitting pipeline, plus the burst-allocation DP for burst climates";
  }

  std::string applicability(const Scenario& scenario) const override {
    if (local_placement(scenario.system.scheme) == Placement::kDeclustered &&
        !scenario.priority_repair)
      return "the declustered closed form models priority reconstruction "
             "(priority_repair=false unsupported)";
    if (scenario.system.network_family == CodeFamily::kLrc && scenario.has_bursts())
      return "the burst-allocation DP prices loss cells with MDS counting "
             "(LRC network level with a burst climate unsupported)";
    return {};
  }

  Estimate estimate(const Scenario& scenario, const EstimateOptions& options) const override {
    (void)options;  // pure closed form: nothing to checkpoint or parallelize
    require_applicable(*this, scenario);
    MLEC_FAULT_POINT("estimator.dp.pre");

    const DurabilityEnv env = scenario.durability_env();
    const auto network = make_code_model(scenario.system.network_level());
    const MlecDurabilityResult indep =
        mlec_durability(env, scenario.system.code, scenario.system.scheme,
                        scenario.system.repair, std::nullopt, network.get());

    Estimate e;
    e.method = std::string(name());
    e.pdl = indep.pdl;
    e.nines = indep.nines;
    e.exposure_hours = indep.exposure_hours;
    e.cat_rate_per_year = indep.system_cat_rate_per_year;
    e.coverage = indep.coverage;
    e.provenance = "closed-form splitting pipeline (Markov stage 1, overlap stage 2)";
    if (scenario.has_bursts()) {
      const BurstPdlEngine engine(scenario.burst_config());
      const SimpleDurability with =
          mlec_durability_with_bursts(env, scenario.system.code, scenario.system.scheme,
                                      scenario.system.repair, scenario.bursts, engine);
      e.pdl = with.pdl;
      e.nines = with.nines;
      e.samples = scenario.burst_trials;
      e.provenance += " + burst-allocation engine (" + std::to_string(scenario.burst_trials) +
                      " trials per burst cell)";
    }
    e.pdl_lo = e.pdl_hi = e.pdl;
    return e;
  }
};

// ---------------------------------------------------------------------------
// markov: two-level birth-death chains, "treat a local pool like a disk".

class MarkovEstimator final : public Estimator {
 public:
  std::string_view name() const override { return "markov"; }
  std::string_view describe() const override {
    return "two-level birth-death chains (pool-as-a-disk)";
  }

  std::string applicability(const Scenario& scenario) const override {
    if (scenario.ure_per_bit > 0.0)
      return "the birth-death chains do not model latent errors (use dp)";
    if (scenario.has_bursts())
      return "stochastic burst climates are folded in by the dp estimator only";
    if (network_placement(scenario.system.scheme) == Placement::kDeclustered)
      return "pool-as-a-disk needs clustered network placement (independent network pools)";
    if (local_placement(scenario.system.scheme) == Placement::kDeclustered &&
        scenario.priority_repair)
      return "the local birth-death chain has no priority-reconstruction state "
             "(declustered pools with priority repair diverge)";
    if (scenario.system.network_family == CodeFamily::kLrc)
      return "pool-as-a-disk chains count failed pools, which assumes an MDS "
             "network level (LRC loses data at pattern-dependent counts; use dp or sim)";
    return {};
  }

  Estimate estimate(const Scenario& scenario, const EstimateOptions& options) const override {
    (void)options;  // pure closed form
    require_applicable(*this, scenario);
    MLEC_FAULT_POINT("estimator.markov.pre");

    const DurabilityEnv env = scenario.durability_env();
    const MlecCode& code = scenario.system.code;
    const MlecScheme scheme = scenario.system.scheme;
    const PoolLayout layout(env.dc, code, scheme);
    const RepairTimeModel rtm(env.dc, env.bw, code);

    // Lost-stripe fraction at catastrophe, needed by the shared stage-2
    // closed forms: the analytic midpoint for clustered pools, the
    // hypergeometric tail for declustered.
    const bool local_clustered = local_placement(scheme) == Placement::kClustered;
    const double frac =
        local_clustered
            ? 0.5
            : hypergeom_tail_geq(static_cast<std::int64_t>(layout.local_pool_disks()),
                                 static_cast<std::int64_t>(code.local.p + 1),
                                 static_cast<std::int64_t>(code.local_width()),
                                 static_cast<std::int64_t>(code.local.p + 1));

    MlecMarkovParams params;
    params.kn = code.network.k;
    params.pn = code.network.p;
    params.kl = code.local.k;
    params.pl = code.local.p;
    params.local_pool_disks = layout.local_pool_disks();
    params.disk_fail_rate = env.afr / units::kHoursPerYear;
    params.disk_repair_rate =
        1.0 / (env.detection_hours + rtm.single_disk_repair_hours(scheme));
    // Clustered pools rebuild each failed disk onto its own spare; the
    // declustered (non-priority) idealization also repairs in parallel.
    params.local_parallel_repair = true;
    params.pool_repair_rate =
        1.0 / stage2_exposure_hours(env, code, scheme, scenario.system.repair, frac);
    params.network_pools = layout.network_pools();

    const MlecMarkovResult chains = mlec_markov_mttdl(params);
    const double coverage = stage2_coverage(env, code, scheme, scenario.system.repair, frac);

    Estimate e;
    e.method = std::string(name());
    e.provenance =
        "two-level birth-death chains (pool-as-a-disk) with shared stage-2 closed forms";
    e.pdl = -std::expm1(-coverage * env.mission_hours / chains.system_mttdl_hours);
    e.nines = durability_nines(e.pdl);
    e.pdl_lo = e.pdl_hi = e.pdl;
    e.exposure_hours = 1.0 / params.pool_repair_rate;
    e.cat_rate_per_year = units::kHoursPerYear / chains.local_pool_mttf_hours *
                          static_cast<double>(layout.total_local_pools());
    e.coverage = coverage;
    return e;
  }
};

}  // namespace

const std::vector<const Estimator*>& estimator_registry() {
  static const SimEstimator sim;
  static const SplitEstimator split;
  static const DpEstimator dp;
  static const MarkovEstimator markov;
  static const std::vector<const Estimator*> registry{&sim, &split, &dp, &markov};
  return registry;
}

const Estimator* find_estimator(std::string_view name) {
  for (const Estimator* estimator : estimator_registry())
    if (estimator->name() == name) return estimator;
  return nullptr;
}

}  // namespace mlec
