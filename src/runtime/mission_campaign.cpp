#include "runtime/mission_campaign.hpp"

#include <sstream>

#include "placement/notation.hpp"

namespace mlec {

std::string fleet_campaign_fingerprint(const FleetSimConfig& config) {
  std::ostringstream os;
  os.precision(17);
  // The version names the sim core's RNG schedule and repair clock; a
  // journal written under another one must not resume into this one. v2:
  // batched inter-failure gaps. v3: exponential gaps from the ziggurat, not
  // the inverse CDF. v4: clustered rebuilds on the closed-form clock. v5:
  // block b draws from substream b, whatever worker runs it. v6: each local
  // pool walks its own failure stream, pools coupled only at catastrophes,
  // and no arena_allocations slot. v7: no disk_failures slot. v8: every
  // mission stops at its first loss, and no data_loss_events slot.
  os << "fleet-v8;dc=" << config.dc.racks << 'x' << config.dc.enclosures_per_rack << 'x'
     << config.dc.disks_per_enclosure << ";disk_tb=" << config.dc.disk_capacity_tb
     << ";chunk_kb=" << config.dc.chunk_kb << ";code=" << config.code.notation()
     << ";scheme=" << to_string(config.scheme) << ";method=" << to_string(config.method)
     << ";bw=" << config.bandwidth.disk_mbps << '/' << config.bandwidth.rack_gbps << '/'
     << config.bandwidth.repair_fraction
     << ";afr=" << config.failures.afr
     << ";detect=" << config.detection_hours << ";mission=" << config.mission_hours
     << ";priority=" << config.priority_repair << ";injected=" << config.injected_events.size();
  for (const auto& ev : config.injected_events) os << ',' << ev.time_hours << ':' << ev.disk;
  return os.str();
}

MissionCampaignResult<FleetSimResult> run_fleet_campaign(const FleetSimConfig& config,
                                                         CampaignConfig campaign,
                                                         ThreadPool* pool) {
  config.validate();
  campaign.fingerprint = fleet_campaign_fingerprint(config);
  // One immutable context (validated config + lookup tables) shared by every
  // worker's engine; each engine keeps only its own mutable trial state.
  auto context = make_fleet_context(config);
  return run_mission_campaign<FleetSimResult>(
      std::move(campaign), [context] { return FleetMissionEngine(context); }, pool);
}

std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config) {
  std::ostringstream os;
  os.precision(17);
  // v2: exponential lifetimes from the ziggurat, not the inverse CDF, so
  // v1 journals name another RNG schedule and must not resume. v3:
  // clustered rebuilds on the closed-form clock, with failures as the only
  // clustered events. v4: block b draws from substream b, whatever worker
  // runs it. v5: failures are the only declustered events too.
  os << "localpool-v5;code=" << config.code.k << '+' << config.code.p << ";placement="
     << (config.placement == Placement::kClustered ? 'C' : 'D') << ";disks=" << config.pool_disks
     << ";disk_tb=" << config.disk_capacity_tb << ";chunk_kb=" << config.chunk_kb
     << ";afr=" << config.afr << ";detect=" << config.detection_hours
     << ";bw=" << config.bandwidth.disk_mbps << '/' << config.bandwidth.rack_gbps << '/'
     << config.bandwidth.repair_fraction << ";mission=" << config.mission_hours
     << ";priority=" << config.priority_repair;
  return os.str();
}

MissionCampaignResult<LocalPoolSummary> run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                                CampaignConfig campaign,
                                                                ThreadPool* pool) {
  config.validate();
  campaign.fingerprint = local_pool_campaign_fingerprint(config);
  return run_mission_campaign<LocalPoolSummary>(
      std::move(campaign), [config] { return LocalPoolEngine(config); }, pool);
}

}  // namespace mlec
