// Human-readable deployment report: the paper's per-deployment numbers for
// one Scenario in a few lines. `mlecctl analyze`, examples/quickstart and
// examples/design_advisor all print this one report.
//
//   mlec::Scenario scenario;                        // the paper's §3 setup
//   std::cout << mlec::deployment_report(scenario);
#pragma once

#include <string>

#include "core/scenario.hpp"

namespace mlec {

/// Layout, Table 2 repair bandwidth, Figure 6 repair times, Figure 8
/// catastrophic-repair traffic, and durability. The durability line is the
/// `dp` estimator's Estimate (nines, PDL, catastrophic-pool rate, exposure,
/// coverage); when dp cannot run the scenario the line gives dp's reason
/// instead of a number. Throws PreconditionError for an invalid scenario.
std::string deployment_report(const Scenario& scenario);

}  // namespace mlec
