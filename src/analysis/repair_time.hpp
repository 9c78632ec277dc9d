// Repair-time models (paper §4.1.2 Figure 6 + Table 2, §4.2.2 Figure 9).
//
// Combines the bandwidth solver (topology/bandwidth.hpp) with the traffic
// closed forms (analysis/traffic.hpp) to produce, per MLEC scheme:
//  * the Table 2 rows: repair size and available repair bandwidth for a
//    single-disk failure and a catastrophic local failure (R_ALL);
//  * the Figure 6 rebuild times;
//  * the Figure 9 per-method network/local repair-time split.
#pragma once

#include "analysis/traffic.hpp"
#include "placement/codes.hpp"
#include "placement/schemes.hpp"
#include "topology/bandwidth.hpp"
#include "topology/topology.hpp"

namespace mlec {

/// One row of the paper's Table 2.
struct Table2Row {
  MlecScheme scheme{};
  double disk_size_tb = 0;
  double single_disk_mbps = 0;   ///< available repair BW, single disk failure
  double pool_size_tb = 0;
  double pool_mbps = 0;          ///< available repair BW, whole-pool (R_ALL)
};

/// Flow of one failed disk's rebuild inside a local pool of `pool_disks`
/// disks: read amplification k; clustered pools read from the width-1
/// survivors and write to one spare, declustered pools share the read+write
/// work over the other pool_disks-1 disks.
RepairFlow single_disk_flow(const SlecCode& code, Placement placement, std::size_t pool_disks);

class RepairTimeModel {
 public:
  RepairTimeModel(DataCenterConfig dc, BandwidthConfig bw, MlecCode code);

  /// Flow of a local single-disk rebuild (clustered: 19 readers -> 1 spare;
  /// declustered: enclosure-wide shared read+write).
  RepairFlow single_disk_flow(MlecScheme scheme) const;
  /// Flow of a network-level pool rebuild (clustered: k_n source racks -> 1
  /// target rack; declustered: all racks shared).
  RepairFlow network_pool_flow(MlecScheme scheme) const;
  /// Flow of the *local* stage of R_HYB/R_MIN repairs inside the damaged
  /// pool (clustered pools read k_l surviving chunks and write to the p_l+1
  /// replacement disks; declustered pools use the shared pool flow).
  RepairFlow local_stage_flow(MlecScheme scheme) const;
  /// Flow of the network stage when rebuilding into clustered replacement
  /// disks (R_FCO/R_MIN on local-clustered schemes write to p_l+1 spares).
  RepairFlow network_stage_flow(MlecScheme scheme, RepairMethod method) const;

  Table2Row table2_row(MlecScheme scheme) const;

  /// Figure 6a: hours to rebuild a single failed disk.
  double single_disk_repair_hours(MlecScheme scheme) const;
  /// Figure 6b: hours to rebuild a catastrophic local pool with R_ALL.
  double catastrophic_repair_hours(MlecScheme scheme) const;

  /// Figure 9: network and local repair-time components for a catastrophic
  /// local failure (p_l+1 simultaneous failures) under `method`.
  struct MethodTime {
    double network_hours = 0;
    double local_hours = 0;
    double total_hours() const { return network_hours + local_hours; }
  };
  MethodTime method_repair_time(MlecScheme scheme, RepairMethod method) const;

  const DataCenterConfig& dc() const { return dc_; }
  const BandwidthConfig& bandwidth() const { return bw_.config(); }
  const MlecCode& code() const { return code_; }

 private:
  DataCenterConfig dc_;
  BandwidthModel bw_;
  MlecCode code_;
};

}  // namespace mlec
