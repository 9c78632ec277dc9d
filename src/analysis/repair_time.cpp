#include "analysis/repair_time.hpp"

#include "placement/pools.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

RepairFlow single_disk_flow(const SlecCode& code, Placement placement, std::size_t pool_disks) {
  RepairFlow flow;
  flow.read_amp = static_cast<double>(code.k);
  flow.write_amp = 1.0;
  if (placement == Placement::kClustered) {
    flow.read_only_disks = code.width() - 1;
    flow.write_only_disks = 1;  // the spare disk
  } else {
    flow.shared_disks = pool_disks - 1;  // pool-wide read+write
  }
  return flow;
}

RepairTimeModel::RepairTimeModel(DataCenterConfig dc, BandwidthConfig bw, MlecCode code)
    : dc_(dc), bw_(bw), code_(code) {
  dc_.validate();
  code_.validate();
}

RepairFlow RepairTimeModel::single_disk_flow(MlecScheme scheme) const {
  return mlec::single_disk_flow(code_.local, local_placement(scheme), dc_.disks_per_enclosure);
}

RepairFlow RepairTimeModel::network_pool_flow(MlecScheme scheme) const {
  return network_stage_flow(scheme, RepairMethod::kRepairAll);
}

RepairFlow RepairTimeModel::local_stage_flow(MlecScheme scheme) const {
  RepairFlow flow;
  flow.read_amp = static_cast<double>(code_.local.k);
  flow.write_amp = 1.0;
  const std::size_t pl1 = code_.local.p + 1;
  if (local_placement(scheme) == Placement::kClustered) {
    // After the network stage each stripe has k_l readable chunks; writes
    // land on the not-yet-filled replacement disks.
    flow.read_only_disks = code_.local.k;
    flow.write_only_disks = code_.local.p;
  } else {
    flow.shared_disks = dc_.disks_per_enclosure - pl1;
  }
  return flow;
}

RepairFlow RepairTimeModel::network_stage_flow(MlecScheme scheme, RepairMethod method) const {
  const PoolLayout layout(dc_, code_, scheme);
  RepairFlow flow;
  flow.read_amp = static_cast<double>(code_.network.k);
  flow.write_amp = 1.0;
  flow.cross_rack = true;
  if (network_placement(scheme) == Placement::kClustered) {
    flow.read_only_racks = code_.network.k;
    flow.write_only_racks = 1;
  } else {
    flow.shared_racks = dc_.racks;
  }
  if (network_placement(scheme) == Placement::kDeclustered) {
    // Network-declustered repairs read sibling local stripes scattered over
    // every rack and write to spare space spread over all racks (paper
    // §4.1.2 F#3), so neither disk side bottlenecks.
    flow.shared_disks = dc_.total_disks() - layout.local_pool_disks();
    return flow;
  }
  // Network-clustered: sources are the k_n sibling pools.
  flow.read_only_disks = code_.network.k * layout.local_pool_disks();
  if (local_placement(scheme) == Placement::kClustered) {
    // Writes land on replacement disks: the whole replacement pool for
    // R_ALL, the p_l+1 replacements otherwise.
    flow.write_only_disks = method == RepairMethod::kRepairAll ? layout.local_pool_disks()
                                                               : code_.local.p + 1;
  } else {
    // Declustered spare space spreads writes across the surviving pool.
    flow.write_only_disks = layout.local_pool_disks() - (code_.local.p + 1);
  }
  return flow;
}

Table2Row RepairTimeModel::table2_row(MlecScheme scheme) const {
  const PoolLayout layout(dc_, code_, scheme);
  Table2Row row;
  row.scheme = scheme;
  row.disk_size_tb = dc_.disk_capacity_tb;
  row.single_disk_mbps = bw_.available_repair_mbps(single_disk_flow(scheme));
  row.pool_size_tb = layout.local_pool_capacity_tb();
  row.pool_mbps = bw_.available_repair_mbps(network_pool_flow(scheme));
  return row;
}

double RepairTimeModel::single_disk_repair_hours(MlecScheme scheme) const {
  return bw_.repair_hours(dc_.disk_capacity_tb, single_disk_flow(scheme));
}

double RepairTimeModel::catastrophic_repair_hours(MlecScheme scheme) const {
  const PoolLayout layout(dc_, code_, scheme);
  return bw_.repair_hours(layout.local_pool_capacity_tb(), network_pool_flow(scheme));
}

RepairTimeModel::MethodTime RepairTimeModel::method_repair_time(MlecScheme scheme,
                                                                RepairMethod method) const {
  const InjectionTraffic traffic = catastrophic_injection_traffic(dc_, code_, scheme, method);
  MethodTime t;
  t.network_hours = bw_.repair_hours(traffic.network_rebuilt_tb,
                                     network_stage_flow(scheme, method));
  if (traffic.local_rebuilt_tb > 0.0)
    t.local_hours = bw_.repair_hours(traffic.local_rebuilt_tb, local_stage_flow(scheme));
  return t;
}

}  // namespace mlec
