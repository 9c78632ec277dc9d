#include "analysis/durability.hpp"

#include <cmath>
#include <functional>

#include "analysis/burst_pdl.hpp"
#include "analysis/repair_time.hpp"
#include "math/combin.hpp"
#include "math/distribution.hpp"
#include "math/markov.hpp"
#include "placement/lrc.hpp"
#include "placement/pools.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

namespace {

double tb_per_hour(double mbps) { return mbps * units::kSecondsPerHour * 1e6 / 1e12; }

/// Hours to rebuild one failed disk inside its pool, detection included.
double single_disk_hours(const DurabilityEnv& env, const SlecCode& code, Placement placement,
                         std::size_t pool_disks) {
  return env.detection_hours +
         BandwidthModel(env.bw).repair_hours(env.dc.disk_capacity_tb,
                                             single_disk_flow(code, placement, pool_disks));
}

/// The priority-reconstruction critical-window model for declustered pools
/// and whole-system declustered placements.
///
/// Under priority reconstruction, stripes at j failed chunks (the risk class
/// at level j) are demoted — one rebuilt chunk each — within a window
///   W_j = detection + (class-j volume)/bandwidth.
/// A stripe dies only if every next failure lands inside the previous
/// window AND on a surviving chunk of a still-critical stripe, so the loss
/// rate is the initiating failure rate times the product of per-transition
/// probabilities:
///   rate = n*lambda * prod_{j=1..p} (1 - exp(-(n-j) lambda W_j h_j)),
/// where h_j = P(a random newly failed disk hits a class-j stripe)
///           = 1 - exp(-K_j (w-j)/(n-j)),  K_j = E[#class-j stripes].
/// The h_j factor is ~1 inside a 120-disk pool but decisive for whole-system
/// declustered placements (and is what makes wide-pool priority repair so
/// strong — the paper's Figure 7 and §5.2.2 detection-floor effects).
struct WindowModel {
  std::size_t units = 0;      ///< disks participating
  std::size_t tolerance = 0;  ///< stripe failure tolerance p
  double lambda_hour = 0;     ///< per-disk failure rate
  double detection_hours = 0;
  double chunk_tb = 0;
  /// E[#stripes with exactly j failed chunks] when j disks are down.
  std::function<double(std::size_t)> class_stripes;
  /// Surviving chunks whose loss advances a class-j stripe.
  std::function<double(std::size_t)> kill_chunks;
  /// Aggregate rebuild bandwidth (TB/h) at j concurrent failures.
  std::function<double(std::size_t)> bw_tb_h;
};

double window_loss_rate_per_hour(const WindowModel& m) {
  MLEC_REQUIRE(m.tolerance >= 1, "window model needs at least one tolerated failure");
  MLEC_REQUIRE(m.units > m.tolerance, "pool too small for the tolerance");

  double rate = static_cast<double>(m.units) * m.lambda_hour;
  for (std::size_t j = 1; j <= m.tolerance; ++j) {
    const double k_j = m.class_stripes(j);
    const double window_hours = m.detection_hours + k_j * m.chunk_tb / m.bw_tb_h(j);
    const double hit = -std::expm1(-k_j * m.kill_chunks(j) /
                                   static_cast<double>(m.units - j));
    const double next_rate = static_cast<double>(m.units - j) * m.lambda_hour;
    rate *= -std::expm1(-next_rate * window_hours * hit);
  }
  return rate;
}

/// Declustered rebuild bandwidth of a pool: survivors share reads+writes at
/// (k+1) transferred bytes per repaired byte.
std::function<double(std::size_t)> pool_dp_bw(const DurabilityEnv& env, std::size_t pool_disks,
                                              std::size_t k) {
  const double disk_eff = env.bw.effective_disk_mbps();
  return [pool_disks, k, disk_eff](std::size_t f) {
    return tb_per_hour(static_cast<double>(pool_disks - f) * disk_eff /
                       static_cast<double>(k + 1));
  };
}

/// Whole-system declustered rebuild bandwidth: min of the disk fabric and
/// the cross-rack fabric at `reads` read-amplification.
std::function<double(std::size_t)> system_dp_bw(const DurabilityEnv& env, double reads) {
  const double disk_eff = env.bw.effective_disk_mbps();
  const double rack_total = static_cast<double>(env.dc.racks) * env.bw.effective_rack_mbps();
  const std::size_t disks = env.dc.total_disks();
  return [disks, disk_eff, rack_total, reads](std::size_t f) {
    const double disk_fabric = static_cast<double>(disks - f) * disk_eff / (reads + 1.0);
    const double rack_fabric = rack_total / (reads + 1.0);
    return tb_per_hour(std::min(disk_fabric, rack_fabric));
  };
}

double chunk_tb(const DataCenterConfig& dc) { return dc.chunk_kb * 1e3 / 1e12; }

/// The network level's code model: `network` when given, else the RS model
/// of code.network. make_code_model's process-wide cache owns the default,
/// so the reference stays valid.
const CodeModel& network_model(const MlecCode& code, const CodeModel* network) {
  return network != nullptr ? *network : *make_code_model(LevelCode::make_rs(code.network));
}

}  // namespace

LocalPoolStats local_pool_stats(const DurabilityEnv& env, const SlecCode& local_code,
                                Placement placement, std::size_t pool_disks) {
  local_code.validate();
  MLEC_REQUIRE(pool_disks >= local_code.width(), "pool smaller than the stripe width");
  const double lambda = env.afr / units::kHoursPerYear;
  LocalPoolStats stats;

  const double chunk_bits = env.dc.chunk_kb * 1e3 * 8.0;

  if (placement == Placement::kClustered) {
    const double repair_hours = single_disk_hours(env, local_code, placement, pool_disks);
    const double mttdl = erasure_set_mttdl(local_code.k, local_code.p, lambda,
                                           1.0 / repair_hours, /*parallel_repair=*/true);
    stats.cat_rate_per_pool_year = units::kHoursPerYear / mttdl;
    if (env.ure_per_bit > 0.0 && local_code.p >= 1) {
      // Latent-error extension: at p_l concurrent failures, every stripe
      // sits one error from loss while the rebuild reads k_l chunks per
      // stripe; a single URE then loses a stripe (catastrophic pool).
      BirthDeathChain reach;
      reach.birth.resize(local_code.p);
      reach.death.resize(local_code.p);
      for (std::size_t i = 0; i < local_code.p; ++i) {
        reach.birth[i] = static_cast<double>(local_code.width() - i) * lambda;
        reach.death[i] = i == 0 ? 0.0 : static_cast<double>(i) / repair_hours;
      }
      const double stripes = static_cast<double>(pool_disks) * env.dc.chunks_per_disk() /
                             static_cast<double>(local_code.width());
      const double read_bits = stripes * static_cast<double>(local_code.k) * chunk_bits;
      const double p_ure = -std::expm1(-read_bits * env.ure_per_bit);
      stats.cat_rate_per_pool_year +=
          units::kHoursPerYear / reach.mean_time_to_absorption() * p_ure;
    }
    // At catastrophe the overlapping rebuilds are partially done; stripes
    // past the most-rebuilt disk's progress survive. The analytic default is
    // the midpoint; splitting simulation refines it.
    stats.lost_stripe_fraction = 0.5;
    return stats;
  }

  const std::size_t w = local_code.width();
  const std::size_t p = local_code.p;
  const double stripes = static_cast<double>(pool_disks) * env.dc.chunks_per_disk() /
                         static_cast<double>(w);
  WindowModel m;
  m.units = pool_disks;
  m.tolerance = p;
  m.lambda_hour = lambda;
  m.detection_hours = env.detection_hours;
  m.chunk_tb = chunk_tb(env.dc);
  m.class_stripes = [stripes, pool_disks, w](std::size_t j) {
    return stripes * hypergeom_pmf(static_cast<std::int64_t>(pool_disks),
                                   static_cast<std::int64_t>(j), static_cast<std::int64_t>(w),
                                   static_cast<std::int64_t>(j));
  };
  m.kill_chunks = [w](std::size_t j) { return static_cast<double>(w - j); };
  m.bw_tb_h = pool_dp_bw(env, pool_disks, local_code.k);
  stats.cat_rate_per_pool_year = window_loss_rate_per_hour(m) * units::kHoursPerYear;
  if (env.ure_per_bit > 0.0 && p >= 1) {
    // Latent-error extension: a URE while demoting a class-p stripe (k_l
    // chunks read per demotion) loses that stripe. The class-p state is
    // created at the rate of the first p-1 ladder transitions.
    double reach_rate = static_cast<double>(pool_disks) * lambda;
    for (std::size_t j = 1; j + 1 <= p; ++j) {
      const double k_j = m.class_stripes(j);
      const double window = m.detection_hours + k_j * m.chunk_tb / m.bw_tb_h(j);
      const double hit =
          -std::expm1(-k_j * m.kill_chunks(j) / static_cast<double>(pool_disks - j));
      reach_rate *=
          -std::expm1(-static_cast<double>(pool_disks - j) * lambda * window * hit);
    }
    const double read_bits =
        m.class_stripes(p) * static_cast<double>(local_code.k) * chunk_bits;
    const double p_ure = -std::expm1(-read_bits * env.ure_per_bit);
    stats.cat_rate_per_pool_year += reach_rate * p_ure * units::kHoursPerYear;
  }
  stats.lost_stripe_fraction =
      hypergeom_tail_geq(static_cast<std::int64_t>(pool_disks), static_cast<std::int64_t>(p + 1),
                         static_cast<std::int64_t>(w), static_cast<std::int64_t>(p + 1));
  return stats;
}

double stage2_exposure_hours(const DurabilityEnv& env, const MlecCode& code, MlecScheme scheme,
                             RepairMethod method, double lost_stripe_fraction) {
  const PoolLayout layout(env.dc, code, scheme);
  const RepairTimeModel rtm(env.dc, env.bw, code);
  // The network-rebuilt volume depends on the repair method and, for the
  // chunk-aware methods, on the lost-stripe fraction at catastrophe
  // (long-term failures arrive staggered, so partial rebuilds shrink the
  // lost set — paper §4.2.3 F#2).
  const std::size_t pl1 = code.local.p + 1;
  const double failed_tb = static_cast<double>(pl1) * env.dc.disk_capacity_tb;
  // Chunk-level fraction of a failed disk's data sitting in lost stripes.
  const double chunk_frac =
      std::min(1.0, lost_stripe_fraction * static_cast<double>(layout.local_pool_disks()) /
                        static_cast<double>(code.local_width()));
  double network_tb = 0.0;
  switch (method) {
    case RepairMethod::kRepairAll:
      network_tb = layout.local_pool_capacity_tb();
      break;
    case RepairMethod::kRepairFailedOnly:
      network_tb = failed_tb;
      break;
    case RepairMethod::kRepairHybrid:
      network_tb = failed_tb * chunk_frac;
      break;
    case RepairMethod::kRepairMinimum:
      network_tb = failed_tb * chunk_frac / static_cast<double>(pl1);
      break;
  }
  const BandwidthModel bwm(env.bw);
  return env.detection_hours +
         bwm.repair_hours(network_tb, rtm.network_stage_flow(scheme, method));
}

double stage2_coverage(const DurabilityEnv& env, const MlecCode& code, MlecScheme scheme,
                       RepairMethod method, double lost_stripe_fraction,
                       const CodeModel* network) {
  // The overlap threshold is the network level's min tolerance t, and only
  // the undecodable fraction of (t+1)-erasure patterns actually loses. For
  // an MDS level every (t+1)-pattern is fatal (t = p_n), so R_ALL, which
  // cannot tell which chunks are lost, must declare loss. A non-MDS level
  // keeps both corrections even for R_ALL: t+1 pools may overlap without
  // loss when t < p_n is set by the worst pattern, not every pattern.
  const CodeModel& model = network_model(code, network);
  const std::size_t tol = model.min_tolerance();
  const double decodable = model.decodable_fraction(tol + 1);
  // lint:allow(float-eq): an exact pattern count; 0 means no (t+1)-pattern decodes (MDS)
  if (method == RepairMethod::kRepairAll && decodable == 0.0) return 1.0;
  const double loss_frac = 1.0 - decodable;
  const PoolLayout layout(env.dc, code, scheme);
  const double frac =
      method == RepairMethod::kRepairAll ? 1.0 : std::max(1e-12, lost_stripe_fraction);
  const double joint = std::pow(frac, static_cast<double>(tol + 1)) * loss_frac;
  if (network_placement(scheme) == Placement::kClustered)
    return saturating_loss(joint, layout.network_stripes_per_pool());
  // P(one network stripe touches the t+1 specific pools): racks first,
  // then the pool within each rack.
  const std::size_t R = env.dc.racks;
  const std::size_t W = code.network_width();
  const double rack_cover =
      std::exp(log_choose(static_cast<std::int64_t>(R - (tol + 1)),
                          static_cast<std::int64_t>(W - (tol + 1))) -
               log_choose(static_cast<std::int64_t>(R), static_cast<std::int64_t>(W)));
  const double pool_pick = std::pow(1.0 / static_cast<double>(layout.local_pools_per_rack()),
                                    static_cast<double>(tol + 1));
  return saturating_loss(rack_cover * pool_pick * joint, layout.total_network_stripes());
}

MlecDurabilityResult mlec_durability(const DurabilityEnv& env, const MlecCode& code,
                                     MlecScheme scheme, RepairMethod method,
                                     const std::optional<LocalPoolStats>& stage1,
                                     const CodeModel* network) {
  code.validate();
  const CodeModel& model = network_model(code, network);
  MLEC_REQUIRE(model.data_chunks() == code.network.k && model.width() == code.network_width(),
               "network code model must match code.network's data count and width");
  const PoolLayout layout(env.dc, code, scheme);
  MlecDurabilityResult r;
  r.stage1 = stage1.value_or(local_pool_stats(env, code.local, local_placement(scheme),
                                              layout.local_pool_disks()));
  const double cat_rate_hour = r.stage1.cat_rate_per_pool_year / units::kHoursPerYear;
  r.system_cat_rate_per_year =
      r.stage1.cat_rate_per_pool_year * static_cast<double>(layout.total_local_pools());

  // Exposure: how long the pool stays catastrophic.
  r.exposure_hours =
      stage2_exposure_hours(env, code, scheme, method, r.stage1.lost_stripe_fraction);

  // Stage 2: overlap of t+1 catastrophic pools, t = the network level's min
  // tolerance (= p_n for the MDS default; smaller for LRC, whose worst
  // (t+1)-pattern is already fatal).
  const std::size_t tol = model.min_tolerance();
  double mttdl_sys_hours = 0.0;
  if (network_placement(scheme) == Placement::kClustered) {
    const double mttdl_np = erasure_set_mttdl(code.network_width() - tol, tol, cat_rate_hour,
                                              1.0 / r.exposure_hours,
                                              /*parallel_repair=*/true);
    mttdl_sys_hours = mttdl_np / static_cast<double>(layout.network_pools());
  } else {
    const std::size_t pools = layout.total_local_pools();
    BirthDeathChain chain;
    chain.birth.resize(tol + 1);
    chain.death.resize(tol + 1);
    for (std::size_t i = 0; i <= tol; ++i) {
      chain.birth[i] = static_cast<double>(pools - i) * cat_rate_hour;
      chain.death[i] = static_cast<double>(i) / r.exposure_hours;
    }
    mttdl_sys_hours = chain.mean_time_to_absorption();
  }

  // Coverage: do t+1 overlapping catastrophic pools actually share a lost
  // network stripe — and, for a non-MDS level, is the realized pattern one
  // of the undecodable ones? R_ALL under MDS cannot tell and must declare
  // loss (paper §4.2.3 F#1); the chunk-aware methods thin the loss rate.
  r.coverage =
      stage2_coverage(env, code, scheme, method, r.stage1.lost_stripe_fraction, &model);

  r.pdl = -std::expm1(-r.coverage * env.mission_hours / mttdl_sys_hours);
  r.nines = durability_nines(r.pdl);
  return r;
}

SimpleDurability slec_durability(const DurabilityEnv& env, const SlecCode& code,
                                 SlecScheme scheme) {
  code.validate();
  const SlecLayout layout(env.dc, code, scheme);
  const double lambda = env.afr / units::kHoursPerYear;
  SimpleDurability out;

  if (scheme.placement == Placement::kClustered) {
    // Pool = k+p dedicated disks (local: one enclosure; network: one disk
    // per rack — the rebuild is spare-write-bound either way).
    const double repair_hours = single_disk_hours(env, code, Placement::kClustered, code.width());
    const double mttdl = erasure_set_mttdl(code.k, code.p, lambda, 1.0 / repair_hours,
                                           /*parallel_repair=*/true);
    const double rate = static_cast<double>(layout.total_pools()) / mttdl;
    out.pdl = -std::expm1(-rate * env.mission_hours);
  } else {
    WindowModel m;
    m.tolerance = code.p;
    m.lambda_hour = lambda;
    m.detection_hours = env.detection_hours;
    m.chunk_tb = chunk_tb(env.dc);
    const std::size_t w = code.width();
    m.kill_chunks = [w](std::size_t j) { return static_cast<double>(w - j); };
    double rate_hour = 0.0;
    if (scheme.domain == SlecDomain::kLocal) {
      m.units = env.dc.disks_per_enclosure;
      const double stripes = layout.stripes_per_pool();
      const std::size_t units = m.units;
      m.class_stripes = [stripes, units, w](std::size_t j) {
        return stripes * hypergeom_pmf(static_cast<std::int64_t>(units),
                                       static_cast<std::int64_t>(j),
                                       static_cast<std::int64_t>(w),
                                       static_cast<std::int64_t>(j));
      };
      m.bw_tb_h = pool_dp_bw(env, m.units, code.k);
      rate_hour = window_loss_rate_per_hour(m) * static_cast<double>(layout.total_pools());
    } else {
      m.units = env.dc.total_disks();
      const double stripes = layout.total_stripes();
      const std::size_t units = m.units;
      m.class_stripes = [stripes, units, w](std::size_t j) {
        return stripes * hypergeom_pmf(static_cast<std::int64_t>(units),
                                       static_cast<std::int64_t>(j),
                                       static_cast<std::int64_t>(w),
                                       static_cast<std::int64_t>(j));
      };
      m.bw_tb_h = system_dp_bw(env, static_cast<double>(code.k));
      rate_hour = window_loss_rate_per_hour(m);
    }
    out.pdl = -std::expm1(-rate_hour * env.mission_hours);
  }
  out.nines = durability_nines(out.pdl);
  return out;
}

SimpleDurability lrc_durability(const DurabilityEnv& env, const LrcCode& code) {
  code.validate();
  const std::size_t n = env.dc.total_disks();
  const std::size_t w = code.width();
  MLEC_REQUIRE(w <= env.dc.racks, "LRC-Dp needs a rack per chunk");
  const double lambda = env.afr / units::kHoursPerYear;
  const double stripes =
      static_cast<double>(n) * env.dc.chunks_per_disk() / static_cast<double>(w);

  // Risk-class census at f concurrent failures: stripes whose failure
  // pattern has residual exactly f-1 under the maximally-recoverable
  // criterion, i.e. stripes on the fastest path to unrecoverability.
  const LrcStripeShape shape(code);
  auto residual_census = [&](std::size_t f, std::size_t residual_target) {
    const double u = static_cast<double>(f) / static_cast<double>(n);
    const DiscreteDist residual = shape.residual_distribution(std::vector<double>(w, u));
    double mass = residual.pmf(residual_target);
    // Residual 0 includes untouched stripes; the risk class needs a failure.
    if (residual_target == 0)
      mass -= std::pow(1.0 - u, static_cast<double>(code.width()));
    return stripes * std::max(0.0, mass);
  };

  // Minimum concurrent failures that can produce an unrecoverable pattern is
  // r+2; the transition ladder runs through residuals 0..r with a window at
  // each step.
  WindowModel m;
  m.units = n;
  m.tolerance = code.r + 1;
  m.lambda_hour = lambda;
  m.detection_hours = env.detection_hours;
  m.chunk_tb = chunk_tb(env.dc);
  m.class_stripes = [&](std::size_t j) { return residual_census(j, j - 1); };
  // Conservative: any surviving non-absorbed chunk advances the residual.
  m.kill_chunks = [w](std::size_t j) { return static_cast<double>(w - j); };
  m.bw_tb_h = system_dp_bw(env, static_cast<double>(code.group_data_chunks()));

  SimpleDurability out;
  out.pdl = -std::expm1(-window_loss_rate_per_hour(m) * env.mission_hours);
  out.nines = durability_nines(out.pdl);
  return out;
}

SimpleDurability mlec_durability_with_bursts(const DurabilityEnv& env, const MlecCode& code,
                                             MlecScheme scheme, RepairMethod method,
                                             const BurstClimate& climate,
                                             const BurstPdlEngine& engine) {
  MLEC_REQUIRE(climate.bursts_per_year >= 0.0, "burst rate must be non-negative");
  const double pdl_indep = mlec_durability(env, code, scheme, method).pdl;
  double log_survival = std::log1p(-pdl_indep);
  if (climate.bursts_per_year > 0.0) {
    const double pdl_burst = engine.mlec_cell(code, scheme, climate.racks, climate.failures);
    const double bursts = climate.bursts_per_year * env.mission_hours / units::kHoursPerYear;
    if (pdl_burst >= 1.0) {
      log_survival = -std::numeric_limits<double>::infinity();
    } else {
      log_survival += bursts * std::log1p(-pdl_burst);
    }
  }
  SimpleDurability out;
  out.pdl = -std::expm1(log_survival);
  out.nines = durability_nines(out.pdl);
  return out;
}

}  // namespace mlec
