#include "core/report.hpp"

#include <sstream>

#include "analysis/repair_time.hpp"
#include "analysis/traffic.hpp"
#include "core/estimator.hpp"
#include "placement/pools.hpp"
#include "util/table.hpp"

namespace mlec {

std::string deployment_report(const Scenario& scenario) {
  scenario.validate();
  const SystemSpec& spec = scenario.system;
  const PoolLayout layout(spec.dc, spec.code, spec.scheme);
  const RepairTimeModel rtm(spec.dc, spec.bandwidth, spec.code);

  std::ostringstream os;
  os << "MLEC deployment " << spec.code.notation() << " " << to_string(spec.scheme)
     << ", repair " << to_string(spec.repair) << '\n';
  os << "  topology: " << spec.dc.racks << " racks x " << spec.dc.enclosures_per_rack
     << " enclosures x " << spec.dc.disks_per_enclosure << " disks (" << spec.dc.total_disks()
     << " disks, " << Table::num(spec.dc.total_capacity_tb() / 1e3) << " PB)\n";
  os << "  local pools: " << layout.total_local_pools() << " x " << layout.local_pool_disks()
     << " disks; network pools: " << layout.network_pools() << '\n';
  os << "  parity overhead: " << Table::num(100.0 * spec.code.overhead()) << "%\n";

  const auto row = rtm.table2_row(spec.scheme);
  os << "  repair bandwidth: single disk " << Table::num(row.single_disk_mbps)
     << " MB/s, pool (R_ALL) " << Table::num(row.pool_mbps) << " MB/s\n";
  os << "  repair time: single disk " << Table::num(rtm.single_disk_repair_hours(spec.scheme))
     << " h; catastrophic pool (R_ALL) "
     << Table::num(rtm.catastrophic_repair_hours(spec.scheme)) << " h\n";

  const auto traffic =
      catastrophic_injection_traffic(spec.dc, spec.code, spec.scheme, spec.repair);
  os << "  catastrophic repair traffic (" << to_string(spec.repair)
     << "): " << Table::num(traffic.cross_rack_tb()) << " TB cross-rack, "
     << Table::num(traffic.local_tb()) << " TB local\n";

  const Estimator& dp = *find_estimator("dp");
  if (const std::string why = dp.applicability(scenario); !why.empty()) {
    os << "  durability: n/a (dp: " << why << ")\n";
    return os.str();
  }
  const Estimate dur = dp.estimate(scenario);
  os << "  durability: " << Table::num(dur.nines, 3) << " nines (PDL "
     << Table::num(dur.pdl, 3) << "/mission); catastrophic pools "
     << Table::num(dur.cat_rate_per_year, 3) << "/yr; exposure "
     << Table::num(dur.exposure_hours, 3) << " h; coverage " << Table::num(dur.coverage, 3)
     << '\n';
  return os.str();
}

}  // namespace mlec
