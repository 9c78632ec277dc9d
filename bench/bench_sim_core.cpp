// Throughput benchmark of the fleet-simulation core (zero-allocation
// TrialArena, IndexedMinHeap with decrease-key/remove, batched exponential
// fills, shared immutable context): single-threaded trials/sec on the
// bundled crosscheck scenarios. Its speedup over the pre-rewrite event loop
// is recorded in EXPERIMENTS.md.
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
//   --min-tps=X    exit 1 unless the core sustains at least X trials/sec on
//                  every scenario (CI regression floor)
//   --max-stage1-ratio=X
//                  exit 1 when the stage-1 campaign costs more than X times
//                  the simulate_local_pool loop per mission (CI gate)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/fleet_sim.hpp"
#include "core/spec_io.hpp"
#include "runtime/pool_campaign.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace mlec;

struct ScenarioRow {
  std::string name;
  std::uint64_t missions = 0;
  double elapsed_s = 0.0;
  double trials_per_sec = 0.0;
  double events_per_sec = 0.0;
  FleetSimResult result;
};

/// Best-of-`reps` timing of simulate_fleet: the minimum elapsed discards
/// noise from scheduler preemption and frequency ramps.
ScenarioRow measure(const Scenario& sc, std::uint64_t missions, int reps) {
  const FleetSimConfig cfg = sc.fleet_config();
  // Warmup primes caches and allocators.
  (void)simulate_fleet(cfg, missions / 10 + 1, sc.seed);
  ScenarioRow row;
  row.name = sc.name;
  row.missions = missions;
  row.elapsed_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    FleetSimResult result = simulate_fleet(cfg, missions, sc.seed);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (elapsed < row.elapsed_s) {
      row.elapsed_s = elapsed;
      row.result = result;
    }
  }
  row.trials_per_sec = static_cast<double>(missions) / row.elapsed_s;
  row.events_per_sec = static_cast<double>(row.result.events_processed) / row.elapsed_s;
  return row;
}

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
  CampaignConfig one_shard;
  one_shard.total_units = missions;
  one_shard.seed = sc.seed;
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
    const double campaign = seconds([&] { (void)run_local_pool_campaign(config, one_shard); });
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
    out << "    {\"name\": \"" << r.name << "\", \"missions\": " << r.missions
        << ", \"elapsed_s\": " << r.elapsed_s << ", \"trials_per_sec\": " << r.trials_per_sec
        << ", \"events_per_sec\": " << r.events_per_sec << ", \"pdl\": " << r.result.pdl()
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
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

  std::cout << "# fleet-sim core (indexed heap + trial arena + batched RNG),"
               " single-threaded\n\n";

  std::vector<ScenarioRow> rows;
  bool floor_ok = true;
  for (const char* file : {"crosscheck_mlec.ini", "crosscheck_slec.ini"}) {
    // Enough missions for a stable single-threaded measurement.
    rows.push_back(measure(load(scenario_dir + "/" + file), quick ? 300 : 2000, quick ? 2 : 4));
    if (min_tps > 0.0 && rows.back().trials_per_sec < min_tps) floor_ok = false;
  }

  Table t({"scenario", "missions", "trials/s", "events/s", "pdl"});
  for (const auto& r : rows)
    t.add_row({r.name, std::to_string(r.missions), Table::num(r.trials_per_sec, 1),
               Table::num(r.events_per_sec, 0), Table::num(r.result.pdl(), 4)});
  std::cout << t.to_ascii("trials/sec, higher is better") << '\n';

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
    std::cerr << "FAIL: fleet-sim core below --min-tps=" << min_tps << " floor\n";
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
