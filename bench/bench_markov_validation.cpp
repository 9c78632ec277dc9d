// Methodology cross-validation (paper §3, §6.2): the paper stresses that
// its strategies verify each other. This harness compares, at regimes hot
// enough for raw Monte Carlo:
//   1. the split estimator (stage-1 pool simulation) vs the markov and dp
//      estimators on one shared Scenario of clustered (4+2) pools;
//   2. the sim (full-fleet simulation) and markov (two-level pool-as-a-disk
//      chains) estimators on one shared Scenario of a (2+1)/(2+1) toy
//      system under R_ALL.
#include <iostream>

#include "core/estimator.hpp"
#include "util/table.hpp"

int main() {
  using namespace mlec;
  const std::uint64_t scale = fast_mode() ? 1 : 4;

  std::cout << "# paper: §3 'Mathematical model' — simulation vs Markov cross-checks\n\n";

  {
    // Clustered (4+2) pools expressed as MLEC with a trivial (1+0) network
    // code, so the full estimator stack applies. 60 TB disks keep rebuilds
    // slow enough for catastrophes to be observable at these AFRs.
    Scenario sc;
    sc.system.dc.racks = 3;
    sc.system.dc.enclosures_per_rack = 1;
    sc.system.dc.disks_per_enclosure = 6;
    sc.system.dc.disk_capacity_tb = 60.0;
    sc.system.code = {{1, 0}, {4, 2}};
    sc.system.scheme = MlecScheme::kCC;
    sc.system.repair = RepairMethod::kRepairAll;
    sc.split_missions = 3000 * scale;
    const Estimator& split = *find_estimator("split");
    const Estimator& markov = *find_estimator("markov");

    Table t({"AFR_%", "split_cat_per_sys_yr", "markov_cat_per_sys_yr", "missions"});
    for (double afr : {0.3, 0.6, 0.9}) {
      sc.system.afr = afr;
      sc.seed = static_cast<std::uint64_t>(afr * 1000);
      const Estimate s = split.estimate(sc);
      const Estimate m = markov.estimate(sc);
      t.add_row({Table::num(100 * afr, 0), Table::num(s.cat_rate_per_year, 3),
                 Table::num(m.cat_rate_per_year, 3), std::to_string(s.samples)});
    }
    std::cout << t.to_ascii("(1) clustered (4+2) pools: catastrophic-failure rate, "
                            "split (simulated stage 1) vs markov")
              << '\n';
  }

  {
    // One network pool of three clustered (2+1) pools; 50 TB disks keep
    // rebuilds slow enough for end-to-end losses to be observable.
    Scenario sc;
    sc.system.dc.racks = 3;
    sc.system.dc.enclosures_per_rack = 1;
    sc.system.dc.disks_per_enclosure = 3;
    sc.system.dc.disk_capacity_tb = 50.0;
    sc.system.code = {{2, 1}, {2, 1}};
    sc.system.scheme = MlecScheme::kCC;
    sc.system.repair = RepairMethod::kRepairAll;
    sc.system.afr = 0.9;
    sc.missions = 2000 * scale;
    sc.seed = 7;
    const Estimate s = find_estimator("sim")->estimate(sc);
    const Estimate m = find_estimator("markov")->estimate(sc);

    Table t({"quantity", "sim", "markov"});
    t.add_row({"PDL over one year", Table::num(s.pdl, 4), Table::num(m.pdl, 4)});
    t.add_row({"catastrophic pool events per system-year", Table::num(s.cat_rate_per_year, 3),
               Table::num(m.cat_rate_per_year, 3)});
    t.add_row({"missions", std::to_string(s.samples), "-"});
    std::cout << t.to_ascii("(2) (2+1)/(2+1) C/C toy system, R_ALL, AFR 90%") << '\n';
  }

  std::cout << "# expectation: same order of magnitude in every row (the models differ\n"
            << "# in repair-time distribution assumptions, as the paper discusses).\n";
  return 0;
}
