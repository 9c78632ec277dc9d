#include "analysis/fleet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/burst_pdl.hpp"
#include "analysis/repair_time.hpp"
#include "math/combin.hpp"
#include "placement/pools.hpp"
#include "sim/pool_state.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

void FleetSimConfig::validate() const {
  dc.validate();
  code.validate();
  bandwidth.validate();
  MLEC_REQUIRE(std::isfinite(failures.afr) && failures.afr > 0.0,
               "AFR must be positive and finite");
  MLEC_REQUIRE(detection_hours >= 0.0, "detection time must be non-negative");
  MLEC_REQUIRE(mission_hours > 0.0, "mission must be positive");
}

LocalPoolSimConfig FleetSimConfig::local_pool() const {
  return {.code = code.local,
          .placement = local_placement(scheme),
          .pool_disks = PoolLayout(dc, code, scheme).local_pool_disks(),
          .disk_capacity_tb = dc.disk_capacity_tb,
          .chunk_kb = dc.chunk_kb,
          .afr = failures.afr,
          .detection_hours = detection_hours,
          .bandwidth = bandwidth,
          .mission_hours = mission_hours,
          .priority_repair = priority_repair};
}

ProportionEstimate::Interval FleetSimResult::pdl_interval() const {
  ProportionEstimate est;
  est.add_many(data_loss_missions, missions);
  return est.wilson();
}

double FleetSimResult::catastrophes_per_system_year(double mission_hours) const {
  const double years =
      static_cast<double>(missions) * mission_hours / units::kHoursPerYear;
  return years > 0 ? static_cast<double>(catastrophic_pool_events) / years : 0.0;
}

/// Shared, immutable per-run constants. One instance serves every worker
/// engine of a campaign — the repair
/// model's lookup tables (hypergeometric tails, per-f declustered
/// bandwidths, critical-window lengths) are built exactly once.
class FleetSimContext {
 public:
  FleetSimConfig cfg;
  PoolLayout layout;
  bool network_clustered;
  std::size_t pools_per_enclosure;
  std::size_t pools_per_rack;
  std::size_t total_pools;
  double pool_rate;         // failures per hour, one local pool
  double net_bw_tb_h;       // network-stage bandwidth for cfg.method
  double stripes_per_network_pool;
  double total_network_stripes;
  double rack_cover_times_pool_pick;  // D/* coverage geometry factor
  PoolRepairModel model;              // shared per-pool rebuild physics
  std::shared_ptr<const CodeModel> net_model;  // network-level code family
  std::size_t net_tolerance;   // model min tolerance (p_n for MDS)
  double net_loss_frac;        // 1 - P(decodable | net_tolerance+1 erasures)
  double net_repair_reads;     // avg shards read per rebuilt chunk (k_n for MDS)
  /// Injected failures grouped by pool, trace order within a pool; pool p's
  /// run is injected[injected_begin[p], injected_begin[p+1]).
  std::vector<InjectedFailure> injected;
  std::vector<std::uint32_t> injected_begin;

  explicit FleetSimContext(const FleetSimConfig& config)
      : cfg(config), layout(config.dc, config.code, config.scheme) {
    cfg.validate();
    MLEC_REQUIRE(std::is_sorted(cfg.injected_events.begin(), cfg.injected_events.end(),
                                [](const FailureEvent& a, const FailureEvent& b) {
                                  return a.time_hours < b.time_hours;
                                }),
                 "injected events must be time-sorted");
    network_clustered = network_placement(cfg.scheme) == Placement::kClustered;
    model = cfg.local_pool().repair_model();
    pools_per_enclosure = layout.local_pools_per_enclosure();
    pools_per_rack = layout.local_pools_per_rack();
    total_pools = cfg.dc.total_disks() / cfg.dc.disks_per_enclosure * pools_per_enclosure;
    pool_rate = cfg.failures.afr / units::kHoursPerYear * static_cast<double>(model.pool_disks);

    // Network-level code model: the zero-width default means classic RS
    // over cfg.code.network; anything else must keep that shape's counts.
    const LevelCode net_level = cfg.network_level.width() == 0
                                    ? LevelCode::make_rs(cfg.code.network)
                                    : cfg.network_level;
    MLEC_REQUIRE(net_level.data_chunks() == cfg.code.network.k &&
                     net_level.width() == cfg.code.network_width(),
                 "network_level must match code.network's data count and width");
    net_model = make_code_model(net_level);
    net_tolerance = net_model->min_tolerance();
    net_loss_frac = 1.0 - net_model->decodable_fraction(net_tolerance + 1);
    net_repair_reads = net_model->avg_single_repair_reads();

    const RepairTimeModel rtm(cfg.dc, cfg.bandwidth, cfg.code);
    const BandwidthModel bwm(cfg.bandwidth);
    net_bw_tb_h = bwm.available_repair_mbps(rtm.network_stage_flow(cfg.scheme, cfg.method)) *
                  units::kSecondsPerHour * 1e6 / 1e12;

    stripes_per_network_pool = layout.network_stripes_per_pool();
    total_network_stripes = layout.total_network_stripes();
    if (!network_clustered) {
      const auto R = static_cast<std::int64_t>(cfg.dc.racks);
      const auto W = static_cast<std::int64_t>(cfg.code.network_width());
      const auto pn1 = static_cast<std::int64_t>(net_tolerance + 1);
      const double rack_cover =
          std::exp(log_choose(R - pn1, W - pn1) - log_choose(R, W));
      rack_cover_times_pool_pick =
          rack_cover * std::pow(1.0 / static_cast<double>(pools_per_rack),
                                static_cast<double>(pn1));
    } else {
      rack_cover_times_pool_pick = 0.0;
    }

    // File each injected failure under its pool: a counting sort keeps
    // trace order within a pool.
    injected_begin.assign(total_pools + 1, 0);
    std::vector<std::uint32_t> pool_of(cfg.injected_events.size());
    for (std::size_t i = 0; i < pool_of.size(); ++i) {
      const DiskId disk = cfg.injected_events[i].disk;
      MLEC_REQUIRE(disk < cfg.dc.total_disks(), "injected failure names a disk outside the fleet");
      const std::size_t enc = disk / cfg.dc.disks_per_enclosure;
      const std::size_t within = (disk % cfg.dc.disks_per_enclosure) /
                                 (model.clustered ? model.pool_disks : cfg.dc.disks_per_enclosure);
      pool_of[i] = static_cast<std::uint32_t>(enc * pools_per_enclosure + within);
      ++injected_begin[pool_of[i] + 1];
    }
    for (std::size_t p = 0; p < total_pools; ++p) injected_begin[p + 1] += injected_begin[p];
    injected.resize(pool_of.size());
    std::vector<std::uint32_t> fill(injected_begin.begin(), injected_begin.end() - 1);
    for (std::size_t i = 0; i < pool_of.size(); ++i) {
      const double time = cfg.injected_events[i].time_hours;
      injected[fill[pool_of[i]]++] = {time, static_cast<std::uint32_t>(i)};
    }
  }

  RackId rack_of_pool(std::uint32_t pool) const {
    return static_cast<RackId>(pool / pools_per_rack);
  }
  std::uint32_t network_pool_of(std::uint32_t pool) const {
    if (!network_clustered) return 0;
    const std::size_t group = rack_of_pool(pool) / cfg.code.network_width();
    return static_cast<std::uint32_t>(group * pools_per_rack + pool % pools_per_rack);
  }

  /// Network-rebuilt volume for one catastrophe, from the realized state.
  double network_volume_tb(double unrebuilt_tb, std::size_t f, double stripe_frac) const {
    const double chunk_frac = std::min(
        1.0, stripe_frac * static_cast<double>(model.pool_disks) /
                 static_cast<double>(cfg.code.local_width()));
    switch (cfg.method) {
      case RepairMethod::kRepairAll:
        return layout.local_pool_capacity_tb();
      case RepairMethod::kRepairFailedOnly:
        return unrebuilt_tb;
      case RepairMethod::kRepairHybrid:
        return unrebuilt_tb * chunk_frac;
      case RepairMethod::kRepairMinimum:
        return unrebuilt_tb * chunk_frac *
               static_cast<double>(f - cfg.code.local.p) / static_cast<double>(f);
    }
    throw InternalError("unknown repair method");
  }
};

std::shared_ptr<const FleetSimContext> make_fleet_context(const FleetSimConfig& config) {
  return std::make_shared<const FleetSimContext>(config);
}

namespace {

/// A local pool under network repair, from its catastrophe until `until`.
struct Catastrophe {
  std::uint32_t pool;
  RackId rack;
  std::uint32_t network_pool;
  double until;
  double lost_fraction;
  std::size_t failed_disks;
  double exposure_hours;
  double volume_tb;  ///< network-rebuilt volume
};

/// A failure that couples pools: the one that makes a pool catastrophic
/// (`opens`), or a later one landing on the pool before its network repair
/// ends, which deepens the damage.
struct Coupling {
  double time;
  /// Tie order at equal times, as one fleet-wide timeline would see it: the
  /// trace index for injected failures, injected-count + pool for sampled
  /// ones, so injected failures go first, in trace order.
  std::uint64_t order;
  std::uint32_t seq;  ///< record index: breaks the last (measure-zero) ties
  std::uint32_t cat;  ///< index into the mission's catastrophes
  bool opens;

  bool operator<(const Coupling& o) const {
    return std::tie(time, order, seq) < std::tie(o.time, o.order, o.seq);
  }
};

/// Per-mission inter-failure gaps are drawn this many at a time; leftovers
/// are discarded at mission end. A worker's engine runs every block the
/// worker claims, each block on its own substream, so a carried-over gap
/// would leak one block's draws into the next and tie the answer to which
/// worker ran which block.
constexpr std::size_t kExpBatch = 128;

}  // namespace

/// One engine's mission, in two phases over the caller's Rng.
///
/// Phase 1 walks the local pools one after another through walk_pool, each
/// on its own Poisson failure stream merged with the pool's injected
/// failures, in one reused LocalPoolState. Pools interact only through
/// catastrophes, so the walk records just those and the failures that
/// deepen them. Phase 2 sorts the records into one timeline and replays the
/// network-level coupling — repair expiry, incremental lost fractions, the
/// loss draw. All working storage lives on the engine and keeps its
/// capacity across missions.
struct FleetMissionEngine::Impl {
  std::shared_ptr<const FleetSimContext> context_;
  const FleetSimContext& ctx_;
  /// The caller's Rng and result, bound for one mission.
  Rng* rng_ = nullptr;
  FleetSimResult* result_ = nullptr;
  /// The pool being walked.
  LocalPoolState state_;
  /// The mission's catastrophes and coupling records, and the indices of
  /// the catastrophes under network repair, in opening order.
  std::vector<Catastrophe> cats_;
  std::vector<Coupling> couplings_;
  std::vector<std::uint32_t> active_;
  /// Subset-enumeration scratch of check_data_loss (capacity is retained).
  std::vector<const Catastrophe*> others_;
  std::vector<std::size_t> idx_;
  /// Batched inter-failure gaps; reset per mission (see kExpBatch).
  std::vector<double> exp_buf_ = std::vector<double>(kExpBatch);
  std::size_t exp_pos_ = 0;
  std::size_t exp_len_ = 0;

  explicit Impl(std::shared_ptr<const FleetSimContext> context)
      : context_(std::move(context)), ctx_(*context_) {}

  void run(Rng& mission_rng, FleetSimResult& into) {
    rng_ = &mission_rng;
    result_ = &into;
    ++into.missions;
    into.events_processed += walk_pools();
    replay_couplings();
  }

  /// Phase 1: every pool through walk_pool, each pool's overshooting
  /// arrival carried to the next as its first. Returns the failures walked.
  std::uint64_t walk_pools() {
    const double mission = ctx_.cfg.mission_hours;
    const std::uint64_t n_injected = ctx_.cfg.injected_events.size();
    const InjectedFailure* const filed = ctx_.injected.data();
    const std::uint32_t* const filed_begin = ctx_.injected_begin.data();
    cats_.clear();
    couplings_.clear();
    exp_pos_ = exp_len_ = 0;
    std::uint64_t walked = 0;
    double next_fail = next_gap(0.0, 0);
    for (std::uint32_t pool = 0; pool < ctx_.total_pools; ++pool, next_fail -= mission) {
      const std::uint64_t sampled_order = n_injected + pool;
      walked += walk_pool(
          state_, ctx_.model, mission, next_fail,
          {filed + filed_begin[pool], filed + filed_begin[pool + 1]},
          [&](double t) { return next_gap(t, pool); },
          [&](double t, const InjectedFailure* inj) {
            // Catastrophic local pool: realized state and network exposure.
            const std::size_t f_after = state_.concurrent_failures(ctx_.model);
            const double frac = state_.lost_stripe_fraction(ctx_.model);
            const double volume =
                ctx_.network_volume_tb(state_.unrebuilt_tb(ctx_.model), f_after, frac);
            const double exposure = ctx_.cfg.detection_hours + volume / ctx_.net_bw_tb_h;
            couple(t, inj ? inj->order : sampled_order, cats_.size(), true);
            cats_.push_back({pool, ctx_.rack_of_pool(pool), ctx_.network_pool_of(pool),
                             t + exposure, frac, f_after, exposure, volume});
            return t + exposure;
          },
          [&](double t, const InjectedFailure* inj) {
            // Network repair owns the pool: the failure deepens the damage.
            couple(t, inj ? inj->order : sampled_order, cats_.size() - 1, false);
          });
    }
    return walked;
  }

  /// Record a failure at (t, order) that opens or deepens catastrophe `cat`.
  void couple(double t, std::uint64_t order, std::size_t cat, bool opens) {
    const auto seq = static_cast<std::uint32_t>(couplings_.size());
    couplings_.push_back({t, order, seq, static_cast<std::uint32_t>(cat), opens});
  }

  /// Phase 2: the recorded couplings in fleet time order, up to the
  /// mission's first loss.
  void replay_couplings() {
    if (couplings_.empty()) return;
    std::sort(couplings_.begin(), couplings_.end());
    active_.clear();
    for (const Coupling& e : couplings_) {
      const double t = e.time;
      std::erase_if(active_, [&](std::uint32_t c) { return cats_[c].until <= t; });
      Catastrophe& cat = cats_[e.cat];
      bool lost;
      if (e.opens) {
        ++result_->catastrophic_pool_events;
        result_->catastrophe_exposure_hours.add(cat.exposure_hours);
        // Each rebuilt chunk reads the model's average repair fan-in across
        // racks and writes once (k_n + 1 for MDS; below k_n for LRC — the
        // locality payoff the paper's Figure 8 arithmetic cannot see).
        result_->cross_rack_tb += cat.volume_tb * (ctx_.net_repair_reads + 1.0);
        active_.push_back(e.cat);
        lost = check_data_loss(cat);
      } else {
        // The extra failure deepens the damage (more lost stripes) and
        // gives the overlap another chance to cover a network stripe —
        // crucial for bursts, where all failures land before any repair
        // begins. Only the *incremental* coverage gets a fresh draw:
        // overlaps were already tested at the old fraction when they formed.
        ++cat.failed_disks;
        const double prev_frac = cat.lost_fraction;
        if (!ctx_.model.clustered)
          cat.lost_fraction = ctx_.model.declustered_lost_fraction(cat.failed_disks);
        lost = check_data_loss(cat, prev_frac);
      }
      if (!lost) continue;
      ++result_->data_loss_missions;
      result_->loss_time_hours.add(t);
      return;
    }
  }

  /// Next inter-failure gap from the batch buffer, refilling (and counting
  /// the refill's draws) when empty. The refill size tracks the expected
  /// draws left in the mission — the rest of this pool's walk from `now`
  /// plus every later pool's — so the variates discarded at mission end
  /// stay near zero. The size is a pure function of simulation state, so
  /// trajectories remain deterministic.
  double next_gap(double now, std::uint32_t pool) {
    if (exp_pos_ == exp_len_) [[unlikely]] refill_gaps(now, pool);
    return exp_buf_[exp_pos_++];
  }
  void refill_gaps(double now, std::uint32_t pool) {
    const double pools_left = static_cast<double>(ctx_.total_pools - pool);
    const double expected = (pools_left * ctx_.cfg.mission_hours - now) * ctx_.pool_rate;
    const std::size_t n =
        std::min(kExpBatch, static_cast<std::size_t>(std::max(expected, 0.0)) + 1);
    rng_->exponential_fill(std::span<double>(exp_buf_.data(), n), ctx_.pool_rate);
    result_->rng_draws += n;
    exp_pos_ = 0;
    exp_len_ = n;
  }

  /// Bernoulli draw with the perf counter kept honest: p <= 0 and p >= 1
  /// consume no variate.
  bool draw_bernoulli(double p) {
    if (p > 0.0 && p < 1.0) ++result_->rng_draws;
    return rng_->bernoulli(p);
  }

  /// Does the overlap of `newest` with the other active catastrophes lose a
  /// network stripe? Enumerates every (t+1)-subset containing `newest`
  /// (t = the network code model's min tolerance — p_n for MDS; same
  /// network pool for clustered networks, distinct racks for declustered
  /// ones) and draws once against the union of their stripe-coverage
  /// probabilities. Non-MDS levels additionally thin each combination by
  /// the fraction of (t+1)-erasure patterns that are actually undecodable
  /// (ctx_.net_loss_frac; 1 for MDS) — the stripe's erased positions within
  /// its network pool are modeled as a uniform (t+1)-subset.
  /// `prev_frac >= 0` re-tests existing overlaps after the newest pool's
  /// lost fraction grew: the draw targets only the added coverage
  /// (cov_new - cov_old) / (1 - cov_old) per combination.
  bool check_data_loss(const Catastrophe& newest, double prev_frac = -1.0) {
    const std::size_t pn1 = ctx_.net_tolerance + 1;
    others_.clear();
    for (std::uint32_t i : active_) {
      const Catastrophe& c = cats_[i];
      if (&c == &newest) continue;
      if (ctx_.network_clustered) {
        if (c.network_pool == newest.network_pool) others_.push_back(&c);
      } else if (c.rack != newest.rack) {
        others_.push_back(&c);
      }
    }
    if (others_.size() + 1 < pn1) return false;

    const double frac_new =
        ctx_.cfg.method == RepairMethod::kRepairAll ? 1.0 : newest.lost_fraction;
    double log_no_cover = 0.0;
    // Enumerate (p_n)-subsets of `others_` via an index odometer.
    idx_.resize(pn1 - 1);
    for (std::size_t i = 0; i < idx_.size(); ++i) idx_[i] = i;
    while (true) {
      bool valid = true;
      if (!ctx_.network_clustered) {
        // Distinct racks within the subset (newest's rack already excluded).
        for (std::size_t a = 0; a < idx_.size() && valid; ++a)
          for (std::size_t b = a + 1; b < idx_.size() && valid; ++b)
            valid = others_[idx_[a]]->rack != others_[idx_[b]]->rack;
      }
      if (valid) {
        double partners = 1.0;
        for (std::size_t i : idx_)
          partners *= ctx_.cfg.method == RepairMethod::kRepairAll ? 1.0
                                                                  : others_[i]->lost_fraction;
        auto coverage_of = [&](double frac) {
          const double joint = frac * partners * ctx_.net_loss_frac;
          return ctx_.network_clustered
                     ? saturating_loss(joint, ctx_.stripes_per_network_pool)
                     : saturating_loss(joint * ctx_.rack_cover_times_pool_pick,
                                       ctx_.total_network_stripes);
        };
        const double cov_new = coverage_of(frac_new);
        const double cov_old =
            prev_frac >= 0.0 && ctx_.cfg.method != RepairMethod::kRepairAll
                ? coverage_of(prev_frac)
                : (prev_frac >= 0.0 ? cov_new : 0.0);
        if (cov_new >= 1.0 && cov_old < 1.0) return draw_bernoulli(1.0);
        if (cov_new > cov_old)
          log_no_cover += std::log1p(-cov_new) - std::log1p(-cov_old);
      }
      // Advance the odometer.
      if (idx_.empty()) break;
      std::size_t pos = idx_.size();
      while (pos > 0) {
        --pos;
        if (idx_[pos] + (idx_.size() - pos) < others_.size()) {
          ++idx_[pos];
          for (std::size_t i = pos + 1; i < idx_.size(); ++i) idx_[i] = idx_[i - 1] + 1;
          break;
        }
        if (pos == 0) {
          pos = idx_.size() + 1;  // exhausted
          break;
        }
      }
      if (pos > idx_.size()) break;
    }
    return draw_bernoulli(-std::expm1(log_no_cover));
  }
};

FleetMissionEngine::FleetMissionEngine(const FleetSimConfig& config)
    : impl_(std::make_unique<Impl>(make_fleet_context(config))) {}
FleetMissionEngine::FleetMissionEngine(std::shared_ptr<const FleetSimContext> context)
    : impl_(std::make_unique<Impl>(std::move(context))) {}
FleetMissionEngine::~FleetMissionEngine() = default;
FleetMissionEngine::FleetMissionEngine(FleetMissionEngine&&) noexcept = default;
FleetMissionEngine& FleetMissionEngine::operator=(FleetMissionEngine&&) noexcept = default;

void FleetMissionEngine::run_mission(Rng& rng, FleetSimResult& into) { impl_->run(rng, into); }

FleetSimResult simulate_fleet(const FleetSimConfig& config, std::uint64_t missions,
                              std::uint64_t seed) {
  FleetMissionEngine engine(config);
  Rng rng = Rng::for_substream(seed, 0);
  FleetSimResult result;
  for (std::uint64_t m = 0; m < missions; ++m) engine.run_mission(rng, result);
  return result;
}

}  // namespace mlec
