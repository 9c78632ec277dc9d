#include "analysis/fleet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "analysis/burst_pdl.hpp"
#include "analysis/repair_time.hpp"
#include "math/combin.hpp"
#include "placement/pools.hpp"
#include "sim/indexed_heap.hpp"
#include "sim/pool_state.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

void FleetSimConfig::validate() const {
  dc.validate();
  code.validate();
  bandwidth.validate();
  MLEC_REQUIRE(detection_hours >= 0.0, "detection time must be non-negative");
  MLEC_REQUIRE(mission_hours > 0.0, "mission must be positive");
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
  bool local_clustered;
  bool network_clustered;
  std::size_t pool_disks;
  std::size_t pools_per_enclosure;
  std::size_t pools_per_rack;
  std::size_t total_pools;
  double lambda_hour;       // per disk
  double fleet_rate;        // per hour, whole fleet
  double net_bw_tb_h;       // network-stage bandwidth for cfg.method
  double stripes_per_network_pool;
  double total_network_stripes;
  double rack_cover_times_pool_pick;  // D/* coverage geometry factor
  PoolRepairModel model;              // shared per-pool rebuild physics
  std::shared_ptr<const CodeModel> net_model;  // network-level code family
  std::size_t net_tolerance;   // model min tolerance (p_n for MDS)
  double net_loss_frac;        // 1 - P(decodable | net_tolerance+1 erasures)
  double net_repair_reads;     // avg shards read per rebuilt chunk (k_n for MDS)
  std::vector<std::uint32_t> disk_pool_tab;  // disk id -> local pool id

  explicit FleetSimContext(const FleetSimConfig& config)
      : cfg(config), layout(config.dc, config.code, config.scheme) {
    cfg.validate();
    MLEC_REQUIRE(std::is_sorted(cfg.injected_events.begin(), cfg.injected_events.end(),
                                [](const FailureEvent& a, const FailureEvent& b) {
                                  return a.time_hours < b.time_hours;
                                }),
                 "injected events must be time-sorted");
    local_clustered = local_placement(cfg.scheme) == Placement::kClustered;
    network_clustered = network_placement(cfg.scheme) == Placement::kClustered;
    pool_disks = layout.local_pool_disks();
    pools_per_enclosure = layout.local_pools_per_enclosure();
    pools_per_rack = layout.local_pools_per_rack();
    total_pools = cfg.dc.total_disks() / cfg.dc.disks_per_enclosure * pools_per_enclosure;
    lambda_hour = cfg.failures.afr / units::kHoursPerYear;
    fleet_rate = lambda_hour * static_cast<double>(cfg.dc.total_disks());

    model.code = cfg.code.local;
    model.pool_disks = pool_disks;
    model.clustered = local_clustered;
    model.priority_repair = cfg.priority_repair;
    model.detection_hours = cfg.detection_hours;
    model.disk_capacity_tb = cfg.dc.disk_capacity_tb;
    model.chunk_kb = cfg.dc.chunk_kb;
    model.disk_eff_mbps = cfg.bandwidth.effective_disk_mbps();
    model.finalize();

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

    // The disk->pool map costs three integer divisions per lookup; on the
    // per-failure hot path a shared table beats redoing them every draw.
    disk_pool_tab.resize(cfg.dc.total_disks());
    for (std::size_t d = 0; d < disk_pool_tab.size(); ++d) {
      const std::size_t enc = d / cfg.dc.disks_per_enclosure;
      const std::size_t within = (d % cfg.dc.disks_per_enclosure) /
                                 (local_clustered ? pool_disks : cfg.dc.disks_per_enclosure);
      disk_pool_tab[d] = static_cast<std::uint32_t>(enc * pools_per_enclosure + within);
    }
  }

  std::uint32_t pool_of_disk(DiskId disk) const { return disk_pool_tab[disk]; }
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
        1.0, stripe_frac * static_cast<double>(pool_disks) /
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

struct Catastrophe {
  std::uint32_t pool;
  RackId rack;
  std::uint32_t network_pool;
  double until;
  double lost_fraction;
  std::size_t failed_disks;
};

/// Per-mission inter-failure gaps are drawn this many at a time; leftovers
/// are discarded at mission end. A worker's engine runs every block the
/// worker claims, each block on its own substream, so a carried-over gap
/// would leak one block's draws into the next and tie the answer to which
/// worker ran which block.
constexpr std::size_t kExpBatch = 32;

/// One engine's mission loop. All working storage (pool arena, event heap,
/// catastrophe list, subset-enumeration scratch, RNG batch buffer) lives on
/// the runner and is reset — never reallocated — per mission: the steady
/// state performs no heap traffic.
class MissionRunner {
 public:
  explicit MissionRunner(const FleetSimContext& ctx) : ctx_(ctx) {
    pools_.resize(ctx.total_pools);
    events_.resize(ctx.total_pools);
    exp_buf_.resize(kExpBatch);
    allocs_baseline_ = pools_.allocations();
  }

  void run(Rng& rng, FleetSimResult& result) {
    rng_ = &rng;
    result_ = &result;
    ++result.missions;
    const double mission = ctx_.cfg.mission_hours;
    double t = 0.0;
    std::size_t injected_idx = 0;
    pools_.begin_trial();
    events_.clear();
    cats_.clear();
    exp_pos_ = 0;
    exp_len_ = 0;
    double next_fail = next_gap(0.0);

    bool lost_this_mission = false;

    while (true) {
      double next_event = next_fail;
      const auto& injected = ctx_.cfg.injected_events;
      if (injected_idx < injected.size())
        next_event = std::min(next_event, injected[injected_idx].time_hours);
      bool pool_event = false;
      if (!events_.empty() && events_.top_key() < next_event) {
        next_event = events_.top_key();
        pool_event = true;
      }
      if (next_event >= mission) break;

      if (pool_event) {
        const std::uint32_t pool = events_.top_id();
        events_.pop();
        ++result.events_processed;
        advance_pool(pool, next_event);
        schedule_pool(pool, next_event);
        continue;
      }

      // Disk failure: sampled or injected.
      DiskId disk;
      if (injected_idx < injected.size() &&
          injected[injected_idx].time_hours <= next_fail) {
        disk = injected[injected_idx].disk;
        ++injected_idx;
      } else {
        disk = static_cast<DiskId>(rng_->uniform_below(ctx_.cfg.dc.total_disks()));
        ++result.rng_draws;
        next_fail = next_event + next_gap(next_event);
      }
      t = next_event;
      ++result.disk_failures;
      ++result.events_processed;
      if (!cats_.empty())
        std::erase_if(cats_, [t](const Catastrophe& c) { return c.until <= t; });

      const std::uint32_t pool = ctx_.pool_of_disk(disk);
      if (Catastrophe* active = active_catastrophe(pool, t); active != nullptr) {
        // The pool is already under network repair: the extra failure
        // deepens the damage (more lost stripes) and gives the overlap
        // another chance to cover a network stripe — crucial for bursts,
        // where all failures land before any repair begins.
        ++active->failed_disks;
        const double prev_frac = active->lost_fraction;
        if (!ctx_.local_clustered)
          active->lost_fraction = ctx_.model.declustered_lost_fraction(active->failed_disks);
        // Only the *incremental* coverage gets a fresh draw: overlaps were
        // already tested at the old fraction when they formed.
        if (check_data_loss(*active, t, prev_frac)) {
          ++result.data_loss_events;
          if (!lost_this_mission) {
            lost_this_mission = true;
            ++result.data_loss_missions;
            result.loss_time_hours.add(t);
          }
          if (ctx_.cfg.stop_on_loss) break;
        }
        continue;
      }
      advance_pool(pool, t);  // may retire the pool entirely
      LocalPoolState& state =
          pools_.activate(pool, [](LocalPoolState& s) { s.reset(); });
      state.add_failure(t, ctx_.model);
      const std::size_t f_after = state.failures.size();

      if (!state.catastrophic(t, ctx_.model)) {
        state.extend_critical_window(t, ctx_.model);
        schedule_pool(pool, t);
        continue;
      }

      // Catastrophic local pool: compute realized state, enter exposure.
      ++result.catastrophic_pool_events;
      const double unrebuilt = state.unrebuilt_tb();
      const double frac = state.lost_stripe_fraction(ctx_.model);
      const double volume = ctx_.network_volume_tb(unrebuilt, f_after, frac);
      const double exposure = ctx_.cfg.detection_hours + volume / ctx_.net_bw_tb_h;
      result.catastrophe_exposure_hours.add(exposure);
      // Each rebuilt chunk reads the model's average repair fan-in across
      // racks and writes once (k_n + 1 for MDS; below k_n for LRC — the
      // locality payoff the paper's Figure 8 arithmetic cannot see).
      result.cross_rack_tb += volume * (ctx_.net_repair_reads + 1.0);

      // Network repair owns the pool now.
      pools_.deactivate(pool);
      events_.remove(pool);
      cats_.push_back({pool, ctx_.rack_of_pool(pool), ctx_.network_pool_of(pool), t + exposure,
                       frac, f_after});

      if (check_data_loss(cats_.back(), t)) {
        ++result.data_loss_events;
        if (!lost_this_mission) {
          lost_this_mission = true;
          ++result.data_loss_missions;
          result.loss_time_hours.add(t);
        }
        if (ctx_.cfg.stop_on_loss) break;
      }
    }

    result.arena_allocations += pools_.allocations() - allocs_baseline_;
    allocs_baseline_ = pools_.allocations();
  }

 private:
  /// Next inter-failure gap from the batch buffer, refilling (and counting
  /// the refill's draws) when empty. The refill size tracks the expected
  /// number of failures left before `now` reaches mission end, so the
  /// variates discarded at the next mission-start reset — each one a draw
  /// the legacy core never paid for — stay near zero. The size is a pure
  /// function of simulation state, so trajectories remain deterministic.
  double next_gap(double now) {
    if (exp_pos_ == exp_len_) {
      const double expected = (ctx_.cfg.mission_hours - now) * ctx_.fleet_rate;
      const std::size_t n =
          std::min(kExpBatch, static_cast<std::size_t>(std::max(expected, 0.0)) + 1);
      rng_->exponential_fill(std::span<double>(exp_buf_.data(), n), ctx_.fleet_rate);
      result_->rng_draws += n;
      exp_pos_ = 0;
      exp_len_ = n;
    }
    return exp_buf_[exp_pos_++];
  }

  /// Bernoulli draw with the perf counter kept honest: p <= 0 and p >= 1
  /// consume no variate.
  bool draw_bernoulli(double p) {
    if (p > 0.0 && p < 1.0) ++result_->rng_draws;
    return rng_->bernoulli(p);
  }

  /// Progress repairs in [state.last_advance, t] (shared state machine) and
  /// retire pools with nothing left in flight — their heap entry goes too.
  void advance_pool(std::uint32_t pool, double t) {
    LocalPoolState* state = pools_.find(pool);
    if (state == nullptr) return;
    state->advance_to(t, ctx_.model);
    if (state->idle(t)) {
      pools_.deactivate(pool);
      events_.remove(pool);
    }
  }

  /// Reposition this pool's single heap entry at its next intrinsic event
  /// (detection or completion) — updated in place, never lazily deleted.
  ///
  /// Only declustered pools need stepping events: their per-failure rates
  /// interlock (pool-wide bandwidth split across detected failures), so the
  /// piecewise-constant state machine must be walked boundary by boundary.
  /// Clustered rebuilds are independent, and nothing observable happens
  /// between a pool's failures — losses, catastrophes, and window checks
  /// all fire at failure arrivals, where advance_pool() completes the
  /// finished rebuilds on the closed-form clock and retires the pool if it
  /// drained. Scheduling no event at all for clustered pools removes
  /// roughly two heap events per failure from the hot loop at identical
  /// trajectories.
  void schedule_pool(std::uint32_t pool, double t) {
    if (ctx_.local_clustered) return;
    const LocalPoolState* state = pools_.find(pool);
    if (state == nullptr) return;
    const double next = state->next_event_after(t, ctx_.model);
    if (std::isfinite(next))
      events_.push_or_update(pool, next);
    else
      events_.remove(pool);  // live critical window, nothing in flight
  }

  /// The pool's in-flight catastrophe, if any.
  Catastrophe* active_catastrophe(std::uint32_t pool, double t) {
    for (auto& c : cats_)
      if (c.pool == pool && c.until > t) return &c;
    return nullptr;
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
  bool check_data_loss(const Catastrophe& newest, double t, double prev_frac = -1.0) {
    const std::size_t pn1 = ctx_.net_tolerance + 1;
    others_.clear();
    for (const auto& c : cats_) {
      if (&c == &newest || c.until <= t) continue;
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

  const FleetSimContext& ctx_;
  Rng* rng_ = nullptr;              ///< caller-owned, bound for the duration of run()
  FleetSimResult* result_ = nullptr;  ///< likewise
  TrialArena<LocalPoolState> pools_;
  IndexedMinHeap events_;
  std::vector<Catastrophe> cats_;
  /// Subset-enumeration scratch, hoisted out of check_data_loss so the
  /// per-event path performs no allocation (capacity is retained).
  std::vector<const Catastrophe*> others_;
  std::vector<std::size_t> idx_;
  /// Batched inter-failure gaps; reset per mission (see kExpBatch).
  std::vector<double> exp_buf_;
  std::size_t exp_pos_ = 0;
  std::size_t exp_len_ = 0;
  std::uint64_t allocs_baseline_ = 0;
};

}  // namespace

struct FleetMissionEngine::Impl {
  std::shared_ptr<const FleetSimContext> ctx;
  MissionRunner runner;

  explicit Impl(std::shared_ptr<const FleetSimContext> context)
      : ctx(std::move(context)), runner(*ctx) {}
};

FleetMissionEngine::FleetMissionEngine(const FleetSimConfig& config)
    : impl_(std::make_unique<Impl>(make_fleet_context(config))) {}
FleetMissionEngine::FleetMissionEngine(std::shared_ptr<const FleetSimContext> context)
    : impl_(std::make_unique<Impl>(std::move(context))) {}
FleetMissionEngine::~FleetMissionEngine() = default;
FleetMissionEngine::FleetMissionEngine(FleetMissionEngine&&) noexcept = default;
FleetMissionEngine& FleetMissionEngine::operator=(FleetMissionEngine&&) noexcept = default;

void FleetMissionEngine::run_mission(Rng& rng, FleetSimResult& into) {
  impl_->runner.run(rng, into);
}

FleetSimResult simulate_fleet(const FleetSimConfig& config, std::uint64_t missions,
                              std::uint64_t seed) {
  FleetMissionEngine engine(config);
  Rng rng = Rng::for_substream(seed, 0);
  FleetSimResult result;
  for (std::uint64_t m = 0; m < missions; ++m) engine.run_mission(rng, result);
  return result;
}

}  // namespace mlec
