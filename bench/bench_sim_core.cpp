// Head-to-head benchmark of the fleet-simulation core rewrite: the pre-PR
// event loop (lazy-deletion priority_queue + per-mission unordered_map +
// one-at-a-time RNG draws) vs the current zero-allocation core (TrialArena,
// IndexedMinHeap with decrease-key/remove, batched exponential fills,
// shared immutable context).
//
// The `legacy` namespace below is a faithful copy of the pre-rewrite
// RunContext/MissionRunner from src/analysis/fleet_sim.cpp, kept here as
// the measurement baseline. Both sides share the (now table-backed)
// PoolRepairModel; the bundled scenarios use clustered local placement,
// whose hot path never touches those tables, so the measured speedup
// isolates the event-queue/allocation/RNG changes and is conservative.
//
// A second table times stage 1 of the split estimator on crosscheck_mlec's
// local pool two ways in one process: the bare simulate_local_pool loop and
// a 1-shard in-memory run_local_pool_campaign over the same missions. Their
// per-mission ratio is what the campaign path adds to the engine loop; as a
// ratio of two timings on one host it does not depend on the host's speed.
//
//   bench_sim_core [--quick] [--json[=PATH]] [--min-tps=X]
//                  [--max-stage1-ratio=X] [--scenario-dir=DIR]
//
//   --quick        shrink mission counts (CI smoke mode; MLEC_FAST=1 too)
//   --json[=PATH]  write machine-readable results (default
//                  BENCH_sim_core.json)
//   --min-tps=X    exit 1 unless the optimized core sustains at least X
//                  trials/sec on every scenario (CI regression floor)
//   --max-stage1-ratio=X
//                  exit 1 when the stage-1 campaign costs more than X times
//                  the simulate_local_pool loop per mission (CI gate)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/burst_pdl.hpp"
#include "analysis/fleet_sim.hpp"
#include "analysis/repair_time.hpp"
#include "core/spec_io.hpp"
#include "math/combin.hpp"
#include "placement/pools.hpp"
#include "runtime/pool_campaign.hpp"
#include "sim/pool_state.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace mlec::legacy {

/// One fleet pool: the shared state machine plus a generation counter for
/// lazy invalidation of queued events.
struct PoolEntry {
  LocalPoolState state;
  std::uint64_t generation = 0;
};

struct Catastrophe {
  std::uint32_t pool;
  RackId rack;
  std::uint32_t network_pool;
  double until;
  double lost_fraction;
  std::size_t failed_disks;
};

/// Shared, immutable per-run constants (pre-rewrite layout).
struct RunContext {
  FleetSimConfig cfg;
  PoolLayout layout;
  bool local_clustered;
  bool network_clustered;
  std::size_t pool_disks;
  std::size_t pools_per_enclosure;
  std::size_t pools_per_rack;
  double lambda_hour;
  double fleet_rate;
  double net_bw_tb_h;
  double stripes_per_network_pool;
  double total_network_stripes;
  double rack_cover_times_pool_pick;
  PoolRepairModel model;

  explicit RunContext(const FleetSimConfig& config)
      : cfg(config), layout(config.dc, config.code, config.scheme) {
    cfg.validate();
    local_clustered = local_placement(cfg.scheme) == Placement::kClustered;
    network_clustered = network_placement(cfg.scheme) == Placement::kClustered;
    pool_disks = layout.local_pool_disks();
    pools_per_enclosure = layout.local_pools_per_enclosure();
    pools_per_rack = layout.local_pools_per_rack();
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

    const RepairTimeModel rtm(cfg.dc, cfg.bandwidth, cfg.code);
    const BandwidthModel bwm(cfg.bandwidth);
    net_bw_tb_h = bwm.available_repair_mbps(rtm.network_stage_flow(cfg.scheme, cfg.method)) *
                  units::kSecondsPerHour * 1e6 / 1e12;

    stripes_per_network_pool = layout.network_stripes_per_pool();
    total_network_stripes = layout.total_network_stripes();
    if (!network_clustered) {
      const auto R = static_cast<std::int64_t>(cfg.dc.racks);
      const auto W = static_cast<std::int64_t>(cfg.code.network_width());
      const auto pn1 = static_cast<std::int64_t>(cfg.code.network.p + 1);
      const double rack_cover =
          std::exp(log_choose(R - pn1, W - pn1) - log_choose(R, W));
      rack_cover_times_pool_pick =
          rack_cover * std::pow(1.0 / static_cast<double>(pools_per_rack),
                                static_cast<double>(pn1));
    } else {
      rack_cover_times_pool_pick = 0.0;
    }
  }

  std::uint32_t pool_of_disk(DiskId disk) const {
    const std::size_t enc = disk / cfg.dc.disks_per_enclosure;
    const std::size_t within = (disk % cfg.dc.disks_per_enclosure) /
                               (local_clustered ? pool_disks : cfg.dc.disks_per_enclosure);
    return static_cast<std::uint32_t>(enc * pools_per_enclosure + within);
  }
  RackId rack_of_pool(std::uint32_t pool) const {
    return static_cast<RackId>(pool / pools_per_rack);
  }
  std::uint32_t network_pool_of(std::uint32_t pool) const {
    if (!network_clustered) return 0;
    const std::size_t group = rack_of_pool(pool) / cfg.code.network_width();
    return static_cast<std::uint32_t>(group * pools_per_rack + pool % pools_per_rack);
  }

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

class MissionRunner {
 public:
  explicit MissionRunner(const RunContext& ctx) : ctx_(ctx) {}

  void run(Rng& rng, FleetSimResult& result) {
    rng_ = &rng;
    ++result.missions;
    const double mission = ctx_.cfg.mission_hours;
    double t = 0.0;
    double next_fail = rng_->exponential(ctx_.fleet_rate);
    std::size_t injected_idx = 0;
    pools_.clear();
    cats_.clear();
    events_ = {};

    bool lost_this_mission = false;

    while (true) {
      // Next pool event (lazy invalidation by generation).
      while (!events_.empty()) {
        const auto& top = events_.top();
        auto it = pools_.find(top.pool);
        if (it == pools_.end() || it->second.generation != top.generation) {
          events_.pop();
          continue;
        }
        break;
      }
      double next_event = next_fail;
      const auto& injected = ctx_.cfg.injected_events;
      if (injected_idx < injected.size())
        next_event = std::min(next_event, injected[injected_idx].time_hours);
      bool pool_event = false;
      if (!events_.empty() && events_.top().time < next_event) {
        next_event = events_.top().time;
        pool_event = true;
      }
      if (next_event >= mission) break;

      if (pool_event) {
        const auto ev = events_.top();
        events_.pop();
        ++result.events_processed;
        advance_pool(ev.pool, ev.time);
        schedule_pool(ev.pool, ev.time);
        continue;
      }

      DiskId disk;
      if (injected_idx < injected.size() &&
          injected[injected_idx].time_hours <= next_fail) {
        disk = injected[injected_idx].disk;
        ++injected_idx;
      } else {
        disk = static_cast<DiskId>(rng_->uniform_below(ctx_.cfg.dc.total_disks()));
        next_fail = next_event + rng_->exponential(ctx_.fleet_rate);
      }
      t = next_event;
      ++result.disk_failures;
      ++result.events_processed;
      std::erase_if(cats_, [t](const Catastrophe& c) { return c.until <= t; });

      const std::uint32_t pool = ctx_.pool_of_disk(disk);
      if (Catastrophe* active = active_catastrophe(pool, t); active != nullptr) {
        ++active->failed_disks;
        const double prev_frac = active->lost_fraction;
        if (!ctx_.local_clustered)
          active->lost_fraction = ctx_.model.declustered_lost_fraction(active->failed_disks);
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
      advance_pool(pool, t);
      auto& state = pools_[pool].state;
      state.add_failure(t, ctx_.model);
      const std::size_t f_after = state.failures.size();

      if (!state.catastrophic(t, ctx_.model)) {
        state.extend_critical_window(t, ctx_.model);
        schedule_pool(pool, t);
        continue;
      }

      ++result.catastrophic_pool_events;
      const double unrebuilt = state.unrebuilt_tb();
      const double frac = state.lost_stripe_fraction(ctx_.model);
      const double volume = ctx_.network_volume_tb(unrebuilt, f_after, frac);
      const double exposure = ctx_.cfg.detection_hours + volume / ctx_.net_bw_tb_h;
      result.catastrophe_exposure_hours.add(exposure);
      result.cross_rack_tb += volume * (static_cast<double>(ctx_.cfg.code.network.k) + 1.0);

      pools_.erase(pool);
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
  }

 private:
  struct PoolEvent {
    double time;
    std::uint32_t pool;
    std::uint64_t generation;
    bool operator>(const PoolEvent& other) const { return time > other.time; }
  };

  void advance_pool(std::uint32_t pool, double t) {
    auto it = pools_.find(pool);
    if (it == pools_.end()) return;
    it->second.state.advance_to(t, ctx_.model);
    if (it->second.state.idle(t)) pools_.erase(it);
  }

  void schedule_pool(std::uint32_t pool, double t) {
    auto it = pools_.find(pool);
    if (it == pools_.end()) return;
    ++it->second.generation;
    const double next = it->second.state.next_event_after(t, ctx_.model);
    if (std::isfinite(next)) events_.push({next, pool, it->second.generation});
  }

  Catastrophe* active_catastrophe(std::uint32_t pool, double t) {
    for (auto& c : cats_)
      if (c.pool == pool && c.until > t) return &c;
    return nullptr;
  }

  bool check_data_loss(const Catastrophe& newest, double t, double prev_frac = -1.0) {
    const std::size_t pn1 = ctx_.cfg.code.network.p + 1;
    std::vector<const Catastrophe*> others;
    for (const auto& c : cats_) {
      if (&c == &newest || c.until <= t) continue;
      if (ctx_.network_clustered) {
        if (c.network_pool == newest.network_pool) others.push_back(&c);
      } else if (c.rack != newest.rack) {
        others.push_back(&c);
      }
    }
    if (others.size() + 1 < pn1) return false;

    const double frac_new =
        ctx_.cfg.method == RepairMethod::kRepairAll ? 1.0 : newest.lost_fraction;
    double log_no_cover = 0.0;
    std::vector<std::size_t> idx(pn1 - 1);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    while (true) {
      bool valid = true;
      if (!ctx_.network_clustered) {
        for (std::size_t a = 0; a < idx.size() && valid; ++a)
          for (std::size_t b = a + 1; b < idx.size() && valid; ++b)
            valid = others[idx[a]]->rack != others[idx[b]]->rack;
      }
      if (valid) {
        double partners = 1.0;
        for (std::size_t i : idx)
          partners *= ctx_.cfg.method == RepairMethod::kRepairAll ? 1.0
                                                                  : others[i]->lost_fraction;
        auto coverage_of = [&](double frac) {
          const double joint = frac * partners;
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
        if (cov_new >= 1.0 && cov_old < 1.0) return rng_->bernoulli(1.0);
        if (cov_new > cov_old)
          log_no_cover += std::log1p(-cov_new) - std::log1p(-cov_old);
      }
      if (idx.empty()) break;
      std::size_t pos = idx.size();
      while (pos > 0) {
        --pos;
        if (idx[pos] + (idx.size() - pos) < others.size()) {
          ++idx[pos];
          for (std::size_t i = pos + 1; i < idx.size(); ++i) idx[i] = idx[i - 1] + 1;
          break;
        }
        if (pos == 0) {
          pos = idx.size() + 1;
          break;
        }
      }
      if (pos > idx.size()) break;
    }
    return rng_->bernoulli(-std::expm1(log_no_cover));
  }

  const RunContext& ctx_;
  Rng* rng_ = nullptr;
  std::unordered_map<std::uint32_t, PoolEntry> pools_;
  std::vector<Catastrophe> cats_;
  std::priority_queue<PoolEvent, std::vector<PoolEvent>, std::greater<>> events_;
};

/// Serial driver matching the optimized simulate_fleet's single-shard path.
FleetSimResult simulate(const FleetSimConfig& cfg, std::uint64_t missions,
                        std::uint64_t seed) {
  const RunContext ctx(cfg);
  MissionRunner runner(ctx);
  Rng rng = Rng::for_substream(seed, 0);
  FleetSimResult result;
  for (std::uint64_t m = 0; m < missions; ++m) runner.run(rng, result);
  return result;
}

}  // namespace mlec::legacy

namespace {

using namespace mlec;

struct Measurement {
  double elapsed_s = 0.0;
  double trials_per_sec = 0.0;
  double events_per_sec = 0.0;
  FleetSimResult result;
};

/// Best-of-N timing: the minimum elapsed over `reps` runs discards noise
/// from scheduler preemption and frequency ramps, for both contenders alike.
template <typename Run>
Measurement measure(std::uint64_t missions, int reps, Run&& run) {
  Measurement m;
  m.elapsed_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    FleetSimResult result = run(missions);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (elapsed < m.elapsed_s) {
      m.elapsed_s = elapsed;
      m.result = result;
    }
  }
  m.trials_per_sec = static_cast<double>(missions) / m.elapsed_s;
  m.events_per_sec = static_cast<double>(m.result.events_processed) / m.elapsed_s;
  return m;
}

struct ScenarioRow {
  std::string name;
  std::uint64_t missions = 0;
  Measurement baseline;
  Measurement optimized;
  double speedup = 0.0;
};

/// Stage 1 of the split estimator, per mission, two ways.
struct Stage1Row {
  std::string name;
  std::uint64_t missions = 0;
  double loop_us = 0.0;      ///< simulate_local_pool
  double campaign_us = 0.0;  ///< 1-shard in-memory run_local_pool_campaign
  double ratio = 0.0;        ///< campaign_us / loop_us
};

/// Best-of-`reps` per-mission cost of both stage-1 paths on `sc`'s local
/// pool. The two paths alternate, so a drift in host speed hits both, and a
/// first untimed round warms both up.
Stage1Row measure_stage1(const Scenario& sc, std::uint64_t missions, int reps) {
  const LocalPoolSimConfig config = sc.local_pool_config();
  LocalPoolCampaignOptions one_shard;
  one_shard.shards = 1;
  auto seconds = [](auto&& run) {
    const auto start = std::chrono::steady_clock::now();
    run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  double loop_s = std::numeric_limits<double>::infinity();
  double campaign_s = loop_s;
  for (int r = 0; r <= reps; ++r) {
    const double loop = seconds([&] {
      Rng rng = Rng::for_substream(sc.seed, 0);
      (void)simulate_local_pool(config, missions, rng);
    });
    const double campaign =
        seconds([&] { (void)run_local_pool_campaign(config, missions, sc.seed, one_shard); });
    if (r == 0) continue;
    loop_s = std::min(loop_s, loop);
    campaign_s = std::min(campaign_s, campaign);
  }
  Stage1Row row;
  row.name = sc.name;
  row.missions = missions;
  row.loop_us = loop_s * 1e6 / static_cast<double>(missions);
  row.campaign_us = campaign_s * 1e6 / static_cast<double>(missions);
  row.ratio = row.campaign_us / row.loop_us;
  return row;
}

Scenario load(const std::string& path) {
  std::ifstream in(path);
  MLEC_REQUIRE(static_cast<bool>(in), "cannot open scenario file " + path);
  return load_scenario(IniFile::parse(in));
}

void write_json(const std::string& path, const std::vector<ScenarioRow>& rows,
                const Stage1Row& stage1, bool quick) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n  \"bench\": \"sim_core\",\n  \"quick\": " << (quick ? "true" : "false")
      << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    auto side = [&](const char* tag, const Measurement& m) {
      out << "      \"" << tag << "\": {\"elapsed_s\": " << m.elapsed_s
          << ", \"trials_per_sec\": " << m.trials_per_sec
          << ", \"events_per_sec\": " << m.events_per_sec
          << ", \"pdl\": " << m.result.pdl() << "}";
    };
    out << "    {\n      \"name\": \"" << r.name << "\",\n      \"missions\": " << r.missions
        << ",\n";
    side("baseline", r.baseline);
    out << ",\n";
    side("optimized", r.optimized);
    out << ",\n      \"speedup\": " << r.speedup << "\n    }" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"stage1\": {\"name\": \"" << stage1.name << "\", \"missions\": " << stage1.missions
      << ", \"loop_us_per_mission\": " << stage1.loop_us
      << ", \"campaign_us_per_mission\": " << stage1.campaign_us << ", \"ratio\": " << stage1.ratio
      << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = fast_mode();
  std::string json_path;
  double min_tps = 0.0;
  double max_stage1_ratio = 0.0;
  std::string scenario_dir = "examples/scenarios";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--json") json_path = "BENCH_sim_core.json";
    else if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else if (arg.rfind("--min-tps=", 0) == 0) min_tps = std::stod(arg.substr(10));
    else if (arg.rfind("--max-stage1-ratio=", 0) == 0)
      max_stage1_ratio = std::stod(arg.substr(19));
    else if (arg.rfind("--scenario-dir=", 0) == 0) scenario_dir = arg.substr(15);
    else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: bench_sim_core [--quick] [--json[=PATH]] [--min-tps=X]"
                   " [--max-stage1-ratio=X] [--scenario-dir=DIR]\n";
      return 2;
    }
  }

  std::cout << "# fleet-sim core: legacy (priority_queue + unordered_map) vs current\n"
            << "# (indexed heap + trial arena + batched RNG), single-threaded\n\n";

  std::vector<ScenarioRow> rows;
  bool floor_ok = true;
  for (const char* file : {"crosscheck_mlec.ini", "crosscheck_slec.ini"}) {
    const Scenario sc = load(scenario_dir + "/" + file);
    const FleetSimConfig cfg = sc.fleet_config();
    ScenarioRow row;
    row.name = sc.name;
    // Enough missions for a stable single-threaded measurement; the hotter
    // MLEC scenario has 3x the disks, so it gets fewer.
    row.missions = quick ? 300 : 2000;

    const int reps = quick ? 2 : 4;
    // Warmup primes caches/allocators on both sides.
    (void)legacy::simulate(cfg, row.missions / 10 + 1, sc.seed);
    row.baseline = measure(row.missions, reps, [&](std::uint64_t n) {
      return legacy::simulate(cfg, n, sc.seed);
    });
    (void)simulate_fleet(cfg, row.missions / 10 + 1, sc.seed);
    row.optimized = measure(row.missions, reps, [&](std::uint64_t n) {
      return simulate_fleet(cfg, n, sc.seed);
    });
    row.speedup = row.optimized.trials_per_sec / row.baseline.trials_per_sec;
    if (min_tps > 0.0 && row.optimized.trials_per_sec < min_tps) floor_ok = false;
    rows.push_back(row);
  }

  Table t({"scenario", "missions", "legacy_tps", "current_tps", "speedup", "current_events/s",
           "legacy_pdl", "current_pdl"});
  for (const auto& r : rows)
    t.add_row({r.name, std::to_string(r.missions), Table::num(r.baseline.trials_per_sec, 1),
               Table::num(r.optimized.trials_per_sec, 1), Table::num(r.speedup, 2),
               Table::num(r.optimized.events_per_sec, 0), Table::num(r.baseline.result.pdl(), 4),
               Table::num(r.optimized.result.pdl(), 4)});
  std::cout << t.to_ascii("trials/sec, higher is better") << '\n';
  std::cout << "# the two cores draw the same distributions through different RNG\n"
            << "# schedules, so PDLs agree statistically, not bit-for-bit\n";

  const Stage1Row stage1 = measure_stage1(load(scenario_dir + "/crosscheck_mlec.ini"),
                                          quick ? 100'000 : 500'000, quick ? 3 : 5);
  Table s({"scenario", "missions", "loop_us/mission", "campaign_us/mission", "ratio"});
  s.add_row({stage1.name, std::to_string(stage1.missions), Table::num(stage1.loop_us, 4),
             Table::num(stage1.campaign_us, 4), Table::num(stage1.ratio, 3)});
  std::cout << s.to_ascii("stage 1: 1-shard in-memory campaign vs simulate_local_pool loop")
            << '\n';

  if (!json_path.empty()) {
    write_json(json_path, rows, stage1, quick);
    std::cout << "# wrote " << json_path << '\n';
  }
  int status = 0;
  if (!floor_ok) {
    std::cerr << "FAIL: optimized core below --min-tps=" << min_tps << " floor\n";
    status = 1;
  }
  if (max_stage1_ratio > 0.0 && stage1.ratio > max_stage1_ratio) {
    std::cerr << "FAIL: the stage-1 campaign costs " << stage1.ratio
              << "x the simulate_local_pool loop per mission (--max-stage1-ratio="
              << max_stage1_ratio << ")\n";
    status = 1;
  }
  return status;
}
