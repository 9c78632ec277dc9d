// Throughput benchmark of the fleet-simulation core (pool-major missions:
// each local pool walked on its own failure stream, pools coupled only at
// catastrophes; batched ziggurat exponential fills, shared immutable
// context, clustered rebuilds on a closed-form clock): single-threaded
// trials/sec and ns per event (a walked failure) on the bundled crosscheck
// scenarios and on the paper's 57,600-disk topology ((9+1)/(18+2) under
// R_MIN at AFR 0.5, C/C and D/D). Its history is recorded in
// EXPERIMENTS.md.
//
// A second table times stage 1 of the split estimator per mission. On
// crosscheck_mlec's local pool it runs two ways in one process: the bare
// simulate_local_pool loop and a single-worker in-memory run_local_pool_campaign
// over the same missions. Their per-mission ratio is what the campaign path
// adds to the engine loop; as a ratio of two timings on one host it does not
// depend on the host's speed. On the paper's clustered (17+3) pool at AFR
// 0.3 (split's pool in bench/e2e's paper_scale) it times the loop alone.
//
// Every timing is repeated; the JSON records the host (CPU model, nproc,
// compiler, build type, EC backend), the repetition count, and the minimum
// and quartiles of each timing. Throughputs and the stage-1 ratio are taken
// from the minima, which discard preemption and frequency ramps. At full
// size each repetition runs 30 ms or more and the rows repeat 7-25 times,
// so the quartiles resolve a difference of about 10% between two builds.
//
//   bench_sim_core [--quick] [--json[=PATH]] [--min-tps=X]
//                  [--max-stage1-ratio=X] [--scenario-dir=DIR]
//
//   --quick        shrink mission counts (CI smoke mode; MLEC_FAST=1 too)
//   --json[=PATH]  write machine-readable results (default
//                  BENCH_sim_core.json)
//   --min-tps=X    exit 1 unless the core sustains at least X trials/sec on
//                  each crosscheck scenario (CI regression floor; the
//                  paper-scale rows run about 1k trials/sec and are not
//                  gated)
//   --max-stage1-ratio=X
//                  exit 1 when the stage-1 campaign costs more than X times
//                  the simulate_local_pool loop per mission (CI gate)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fleet_sim.hpp"
#include "core/spec_io.hpp"
#include "ec/backend.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace mlec;

/// Minimum and quartiles of one timing's repetitions.
struct Spread {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  /// Interquartile range relative to the median.
  double relative_iqr() const { return median > 0.0 ? (q3 - q1) / median : 0.0; }
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between the order statistics around fraction f.
  auto quantile = [&](double f) {
    const double pos = f * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {samples.front(), quantile(0.25), quantile(0.5), quantile(0.75)};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct ScenarioRow {
  std::string name;
  std::uint64_t missions = 0;
  int reps = 0;
  Spread elapsed_s;
  double trials_per_sec = 0.0;  ///< at the minimum elapsed
  double events_per_sec = 0.0;  ///< at the minimum elapsed
  FleetSimResult result;

  double ns_per_event() const { return 1e9 / events_per_sec; }
};

/// `reps` timings of simulate_fleet on one seed (every repetition computes
/// the same result).
ScenarioRow measure(const Scenario& sc, std::uint64_t missions, int reps) {
  const FleetSimConfig cfg = sc.fleet_config();
  // Warmup primes caches and allocators.
  (void)simulate_fleet(cfg, missions / 10 + 1, sc.seed);
  ScenarioRow row;
  row.name = sc.name;
  row.missions = missions;
  row.reps = reps;
  std::vector<double> elapsed;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    row.result = simulate_fleet(cfg, missions, sc.seed);
    elapsed.push_back(seconds_since(start));
  }
  row.elapsed_s = spread_of(elapsed);
  row.trials_per_sec = static_cast<double>(missions) / row.elapsed_s.min;
  row.events_per_sec = static_cast<double>(row.result.events_processed) / row.elapsed_s.min;
  return row;
}

/// Stage 1 of the split estimator, per mission: the loop, and optionally
/// the single-worker campaign over the same missions.
struct Stage1Row {
  std::string name;
  std::uint64_t missions = 0;
  int reps = 0;
  Spread loop_us;                   ///< simulate_local_pool, per mission
  double events_per_mission = 0.0;  ///< the loop's events_processed per mission
  bool with_campaign = false;
  Spread campaign_us;  ///< single-worker in-memory run_local_pool_campaign, per mission
  double ratio = 0.0;  ///< campaign_us.min / loop_us.min
};

/// `reps` per-mission timings of the stage-1 loop on `sc`'s local pool and,
/// `with_campaign`, of the single-worker campaign. The two paths alternate, so a
/// drift in host speed hits both, and a first untimed round warms both up.
Stage1Row measure_stage1(const Scenario& sc, std::uint64_t missions, int reps,
                         bool with_campaign) {
  const LocalPoolSimConfig config = sc.local_pool_config();
  CampaignConfig one_worker;  // no pool: one worker runs every block
  one_worker.total_units = missions;
  one_worker.seed = sc.seed;
  const double per_mission_us = 1e6 / static_cast<double>(missions);
  Stage1Row row;
  std::vector<double> loop_us, campaign_us;
  for (int r = 0; r <= reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    Rng rng = Rng::for_substream(sc.seed, 0);
    const LocalPoolSimResult result = simulate_local_pool(config, missions, rng);
    const double loop = seconds_since(start) * per_mission_us;
    row.events_per_mission =
        static_cast<double>(result.events_processed) / static_cast<double>(missions);
    if (r > 0) loop_us.push_back(loop);
    if (!with_campaign) continue;
    start = std::chrono::steady_clock::now();
    (void)run_local_pool_campaign(config, one_worker);
    if (r > 0) campaign_us.push_back(seconds_since(start) * per_mission_us);
  }
  row.name = sc.name;
  row.missions = missions;
  row.reps = reps;
  row.loop_us = spread_of(loop_us);
  row.with_campaign = with_campaign;
  if (with_campaign) {
    row.campaign_us = spread_of(campaign_us);
    row.ratio = row.campaign_us.min / row.loop_us.min;
  }
  return row;
}

Scenario load(const std::string& path) {
  std::ifstream in(path);
  MLEC_REQUIRE(static_cast<bool>(in), "cannot open scenario file " + path);
  return load_scenario(IniFile::parse(in));
}

/// The paper's topology (60 racks x 8 enclosures x 120 disks) under R_MIN;
/// C/C is how bench/e2e's paper_scale workload runs it.
Scenario paper_scale(const std::string& name, const std::string& code, double afr,
                     const std::string& scheme = "C/C") {
  return load_scenario(IniFile::parse_string(
      "[scenario]\nname = " + name +
      "\n[datacenter]\nracks = 60\nenclosures_per_rack = 8\ndisks_per_enclosure = 120\n"
      "[code]\nmlec = " + code + "\nscheme = " + scheme + "\nrepair = R_MIN\n"
      "[failures]\nafr = " + std::to_string(afr) + "\n[sim]\nseed = 2023\n"));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string spread_json(const Spread& s) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"min\": " << s.min << ", \"q1\": " << s.q1 << ", \"median\": " << s.median
     << ", \"q3\": " << s.q3 << "}";
  return os.str();
}

void write_json(const std::string& path, const std::vector<ScenarioRow>& rows,
                const std::vector<Stage1Row>& stage1, bool quick) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n  \"bench\": \"sim_core\",\n  \"quick\": " << (quick ? "true" : "false")
      << ",\n  \"host\": {\"cpu_model\": \"" << cpu_model()
      << "\", \"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
      << compiler() << "\", \"build_type\": \"" << MLEC_BUILD_TYPE << "\", \"ec_backend\": \""
      << ec::to_string(ec::active_backend()) << "\"},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"missions\": " << r.missions
        << ", \"reps\": " << r.reps << ", \"elapsed_s\": " << spread_json(r.elapsed_s)
        << ", \"trials_per_sec\": " << r.trials_per_sec
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"ns_per_event\": " << r.ns_per_event() << ", \"pdl\": " << r.result.pdl() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"stage1\": [\n";
  for (std::size_t i = 0; i < stage1.size(); ++i) {
    const auto& r = stage1[i];
    out << "    {\"name\": \"" << r.name << "\", \"missions\": " << r.missions
        << ", \"reps\": " << r.reps << ", \"loop_us_per_mission\": " << spread_json(r.loop_us)
        << ", \"events_per_mission\": " << r.events_per_mission;
    if (r.with_campaign)
      out << ", \"campaign_us_per_mission\": " << spread_json(r.campaign_us)
          << ", \"ratio\": " << r.ratio;
    out << "}" << (i + 1 < stage1.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
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

  std::cout << "# fleet-sim core (pool-major missions + batched RNG), single-threaded\n\n";

  std::vector<ScenarioRow> rows;
  bool floor_ok = true;
  for (const char* file : {"crosscheck_mlec.ini", "crosscheck_slec.ini"}) {
    // Full size: 50-150 ms per repetition, far above the timer resolution
    // and long enough that one preemption moves a repetition by little.
    rows.push_back(
        measure(load(scenario_dir + "/" + file), quick ? 300 : 100'000, quick ? 2 : 25));
    if (min_tps > 0.0 && rows.back().trials_per_sec < min_tps) floor_ok = false;
  }
  // About 28,800 failures per mission, so even the quick size times ~1M
  // events. Declustered pools walk their piecewise rebuild segments inside
  // each failure's advance, so a D/D mission costs a few times a C/C one.
  rows.push_back(measure(paper_scale("paper-scale-(9+1)/(18+2)", "(9+1)/(18+2)", 0.5),
                         quick ? 50 : 400, quick ? 2 : 11));
  rows.push_back(measure(paper_scale("paper-scale-D/D-(9+1)/(18+2)", "(9+1)/(18+2)", 0.5, "D/D"),
                         quick ? 20 : 200, quick ? 2 : 7));

  Table t({"scenario", "missions", "reps", "trials/s", "median trials/s", "iqr %", "events/s",
           "ns/event", "pdl"});
  for (const auto& r : rows)
    t.add_row({r.name, std::to_string(r.missions), std::to_string(r.reps),
               Table::num(r.trials_per_sec, 1),
               Table::num(static_cast<double>(r.missions) / r.elapsed_s.median, 1),
               Table::num(100.0 * r.elapsed_s.relative_iqr(), 1),
               Table::num(r.events_per_sec, 0), Table::num(r.ns_per_event(), 1),
               Table::num(r.result.pdl(), 4)});
  std::cout << t.to_ascii("trials/sec at the fastest repetition, higher is better") << '\n';

  const std::uint64_t stage1_missions = quick ? 100'000 : 1'000'000;
  const int stage1_reps = quick ? 3 : 15;
  const std::vector<Stage1Row> stage1{
      measure_stage1(load(scenario_dir + "/crosscheck_mlec.ini"), stage1_missions, stage1_reps,
                     true),
      measure_stage1(paper_scale("paper-scale-(17+3)", "(10+2)/(17+3)", 0.3), stage1_missions,
                     stage1_reps, false)};
  Table s({"scenario", "missions", "reps", "loop_us/mission", "median", "iqr %",
           "events/mission", "campaign_us/mission", "median", "ratio"});
  for (const auto& r : stage1)
    s.add_row({r.name, std::to_string(r.missions), std::to_string(r.reps),
               Table::num(r.loop_us.min, 4), Table::num(r.loop_us.median, 4),
               Table::num(100.0 * r.loop_us.relative_iqr(), 1),
               Table::num(r.events_per_mission, 2),
               r.with_campaign ? Table::num(r.campaign_us.min, 4) : "-",
               r.with_campaign ? Table::num(r.campaign_us.median, 4) : "-",
               r.with_campaign ? Table::num(r.ratio, 3) : "-"});
  std::cout << s.to_ascii("stage 1 per mission: simulate_local_pool loop and, on crosscheck-mlec,"
                          " the single-worker in-memory campaign")
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
  if (max_stage1_ratio > 0.0 && stage1.front().ratio > max_stage1_ratio) {
    std::cerr << "FAIL: the stage-1 campaign costs " << stage1.front().ratio
              << "x the simulate_local_pool loop per mission (--max-stage1-ratio="
              << max_stage1_ratio << ")\n";
    status = 1;
  }
  return status;
}
