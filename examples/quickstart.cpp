// Quickstart: analyze the paper's default deployment in a dozen lines.
//
//   $ ./quickstart
//
// Configures the (10+2)/(17+3) MLEC over 57,600 disks (paper §3), prints
// its deployment report (repair bandwidth, repair traffic, and the `dp`
// estimator's two-stage durability), then compares all four schemes under
// the most optimized repair method.
#include <iostream>

#include "analysis/repair_time.hpp"
#include "analysis/traffic.hpp"
#include "core/estimator.hpp"
#include "core/report.hpp"
#include "util/table.hpp"

int main() {
  using namespace mlec;

  // The defaults are the paper's setup; changing any field re-analyzes a
  // different deployment.
  Scenario scenario;
  scenario.system.scheme = MlecScheme::kCD;
  scenario.system.repair = RepairMethod::kRepairMinimum;
  std::cout << deployment_report(scenario) << '\n';

  const SystemSpec& spec = scenario.system;
  const Estimator& dp = *find_estimator("dp");
  const RepairTimeModel repair(spec.dc, spec.bandwidth, spec.code);
  std::cout << "scheme comparison under " << to_string(spec.repair) << ":\n";
  Table t({"scheme", "nines", "single_disk_repair_h", "catastrophic_traffic_TB"});
  for (auto scheme : kAllMlecSchemes) {
    Scenario variant = scenario;
    variant.system.scheme = scheme;
    const auto traffic = catastrophic_injection_traffic(spec.dc, spec.code, scheme, spec.repair);
    t.add_row({to_string(scheme), Table::num(dp.estimate(variant).nines, 1),
               Table::num(repair.single_disk_repair_hours(scheme), 1),
               Table::num(traffic.cross_rack_tb(), 2)});
  }
  std::cout << t.to_ascii();
  return 0;
}
