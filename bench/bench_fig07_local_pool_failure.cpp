// Figure 7: probability of a catastrophic local failure (per system-year)
// for each MLEC scheme.
//
// Primary numbers come from the stage-1 closed forms (clustered: Markov
// chain; declustered: priority-reconstruction window model). A splitting
// stage-1 simulation at elevated AFR cross-checks the clustered closed form
// (raw simulation cannot reach 1e-9/pool-year — the reason the paper
// introduces splitting).
#include <iostream>

#include "analysis/durability.hpp"
#include "placement/pools.hpp"
#include "sim/local_pool_sim.hpp"
#include "util/table.hpp"

int main() {
  using namespace mlec;
  const DurabilityEnv env;
  const auto code = MlecCode::paper_default();

  std::cout << "# paper: Figure 7 — probability of catastrophic local failure\n\n";
  Table t({"scheme", "pool_disks", "pools", "per_pool_per_year", "per_system_per_year"});
  for (auto scheme : kAllMlecSchemes) {
    const PoolLayout layout(env.dc, code, scheme);
    const auto stats = local_pool_stats(env, code.local, local_placement(scheme),
                                        layout.local_pool_disks());
    t.add_row({to_string(scheme), std::to_string(layout.local_pool_disks()),
               std::to_string(layout.total_local_pools()),
               Table::num(stats.cat_rate_per_pool_year, 3),
               Table::num(stats.cat_rate_per_pool_year *
                              static_cast<double>(layout.total_local_pools()),
                          3)});
  }
  std::cout << t.to_ascii() << '\n';
  std::cout << "# paper shape: < 1e-5 per year for C/C,D/C; ~1e-7 for C/D,D/D\n"
            << "# (local-Dp pools are rarer and, with priority reconstruction, sturdier).\n\n";

  // Splitting stage-1 cross-check at elevated AFR (clustered pool).
  LocalPoolSimConfig sim_cfg;
  sim_cfg.code = code.local;
  sim_cfg.placement = Placement::kClustered;
  sim_cfg.pool_disks = code.local_width();
  sim_cfg.afr = 0.5;  // hot enough for Monte Carlo
  Rng rng(7);
  const std::uint64_t missions = fast_mode() ? 2000 : 20000;
  const auto sim = simulate_local_pool(sim_cfg, missions, rng);

  DurabilityEnv hot = env;
  hot.afr = sim_cfg.afr;
  const auto analytic = local_pool_stats(hot, code.local, Placement::kClustered,
                                         code.local_width());
  std::cout << "stage-1 cross-check at AFR 50% (clustered (17+3) pool):\n"
            << "  simulated  " << Table::num(sim.catastrophe_rate_per_year(), 3)
            << " catastrophes/pool-year (" << sim.catastrophes << " events)\n"
            << "  markov     " << Table::num(analytic.cat_rate_per_pool_year, 3)
            << " catastrophes/pool-year\n";
  return 0;
}
