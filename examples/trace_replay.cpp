// Trace replay: run the fleet simulator from a failure trace.
//
//   $ ./trace_replay               # synthetic exponential trace
//   $ ./trace_replay my_trace.csv  # replay "time_hours,disk_id" lines
//
// The bundled synthetic mode generates a hot (AFR 60%) year on a shrunken
// 540-disk C/C system so something actually happens, prints the trace head,
// and Monte-Carlos 400 one-year missions through the fleet simulator. A
// trace file is replayed against the same deployment twice: once as if
// nothing were repaired (end-state damage on a materialized placement), and
// once as one fleet-simulator mission that injects the trace verbatim over a
// negligible background AFR, with repairs running.
#include <fstream>
#include <iostream>

#include "analysis/fleet_sim.hpp"
#include "placement/stripe_map.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mlec;

  FleetSimConfig cfg;
  cfg.dc.racks = 6;
  cfg.dc.enclosures_per_rack = 3;
  cfg.dc.disks_per_enclosure = 30;
  cfg.dc.disk_capacity_tb = 8.0;
  cfg.code = {{2, 1}, {8, 2}};
  cfg.scheme = MlecScheme::kCC;
  cfg.method = RepairMethod::kRepairMinimum;
  cfg.failures.afr = 0.6;
  const Topology topo(cfg.dc);

  std::cout << "deployment: " << cfg.code.notation() << " " << to_string(cfg.scheme) << " over "
            << cfg.dc.total_disks() << " disks, repair " << to_string(cfg.method) << "\n\n";

  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << '\n';
      return 1;
    }
    const auto trace = parse_trace(in, topo);
    std::cout << "replaying " << trace.size() << " failures from " << argv[1] << "\n";
    // Assess the end-state damage against a materialized placement.
    const StripeMap map(topo, cfg.code, cfg.scheme, 8, 42);
    std::vector<DiskId> failed;
    for (const auto& ev : trace) failed.push_back(ev.disk);
    const auto damage = assess_failures(map, failed);
    std::cout << "if nothing were repaired: " << damage.lost_local_stripes
              << " lost local stripes, " << damage.lost_network_stripes
              << " lost network stripes\n";

    // Replay with repairs: the trace is the mission's only failure source.
    cfg.failures.afr = 1e-12;
    cfg.injected_events = trace;
    const auto replay = simulate_fleet(cfg, 1, 99);
    std::cout << "with repairs: " << (replay.data_loss_missions > 0 ? "data lost" : "no data lost")
              << ", " << replay.catastrophic_pool_events << " catastrophic pool events\n";
    return 0;
  }

  // Synthetic mode: show the trace format, then Monte-Carlo the year.
  Rng rng(99);
  const auto sample = generate_failures(topo, cfg.failures, 30.0 * 24.0, rng);
  std::cout << "first month of a sample trace (format: time_hours,disk_id):\n";
  std::cout << format_trace(FailureTrace(sample.begin(),
                                         sample.begin() + std::min<std::size_t>(8, sample.size())));
  std::cout << "...\n\n";

  const std::uint64_t missions = 400;
  const auto result = simulate_fleet(cfg, missions, 99);
  Table t({"missions", "data_loss_missions", "PDL", "catastrophic_pool_events"});
  t.add_row({std::to_string(result.missions), std::to_string(result.data_loss_missions),
             Table::num(result.pdl(), 4), std::to_string(result.catastrophic_pool_events)});
  std::cout << t.to_ascii("one-year Monte Carlo @ AFR 60%");
  if (result.loss_time_hours.count() > 0)
    std::cout << "mean time of first loss in lossy missions: "
              << Table::num(result.loss_time_hours.mean(), 0) << " h\n";
  return 0;
}
