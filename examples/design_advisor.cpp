// Design advisor: the paper's §6.1 takeaways applied to your deployment.
//
//   $ ./design_advisor [--bursts] [--devops] [--nines N] [--throughput]
//
// Flags describe the environment; the advisor picks an architecture, scheme
// and repair method, prints the paper-backed rationale, and quantifies the
// recommendation with the deployment report (core/report.hpp).
#include <cstring>
#include <iostream>
#include <string>

#include "core/advisor.hpp"
#include "core/estimator.hpp"
#include "core/report.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mlec;

  DeploymentProfile profile;
  profile.required_nines = 25.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bursts") == 0) profile.frequent_failure_bursts = true;
    else if (std::strcmp(argv[i], "--devops") == 0) profile.has_devops_team = true;
    else if (std::strcmp(argv[i], "--throughput") == 0) profile.throughput_critical = true;
    else if (std::strcmp(argv[i], "--nines") == 0 && i + 1 < argc)
      profile.required_nines = std::stod(argv[++i]);
    else {
      std::cerr << "usage: design_advisor [--bursts] [--devops] [--nines N] [--throughput]\n";
      return 1;
    }
  }

  std::cout << "profile: bursts=" << (profile.frequent_failure_bursts ? "frequent" : "rare")
            << ", devops=" << (profile.has_devops_team ? "yes" : "no")
            << ", required nines=" << profile.required_nines
            << ", throughput-critical=" << (profile.throughput_critical ? "yes" : "no")
            << "\n\n";

  const auto rec = advise(profile);
  std::cout << "recommendation: " << rec.summary() << '\n';
  for (const auto& line : rec.rationale) std::cout << "  - " << line << '\n';
  std::cout << '\n';

  if (!rec.use_mlec) {
    std::cout << "(single-level EC recommended; see bench_fig12_mlec_vs_slec for the\n"
              << " durability/throughput frontier at your overhead budget)\n";
    return 0;
  }

  Scenario scenario;
  scenario.system.scheme = rec.scheme;
  scenario.system.repair = rec.repair;
  std::cout << "with the paper's default " << scenario.system.code.notation() << " code:\n"
            << deployment_report(scenario);

  const Estimate d = find_estimator("dp")->estimate(scenario);
  if (d.nines < profile.required_nines)
    std::cout << "\nNOTE: " << Table::num(d.nines, 1) << " nines misses the "
              << profile.required_nines
              << "-nine target; widen parities (see bench_fig12) or relax the target.\n";
  return 0;
}
