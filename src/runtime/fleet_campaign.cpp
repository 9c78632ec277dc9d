#include "runtime/fleet_campaign.hpp"

#include <memory>
#include <sstream>

#include "placement/notation.hpp"

namespace mlec {

namespace {

constexpr const char* kMissions = "missions";
constexpr const char* kLossMissions = "data_loss_missions";
constexpr const char* kLossEvents = "data_loss_events";
constexpr const char* kDiskFailures = "disk_failures";
constexpr const char* kCatastrophes = "catastrophic_pool_events";
constexpr const char* kCrossRackTb = "cross_rack_tb";
constexpr const char* kLossTime = "loss_time_hours";
constexpr const char* kExposure = "catastrophe_exposure_hours";
constexpr const char* kEvents = "events_processed";
constexpr const char* kRngDraws = "rng_draws";
constexpr const char* kArenaAllocs = "arena_allocations";

}  // namespace

void accumulate_fleet_result(const FleetSimResult& result, CampaignAccumulator& acc) {
  acc.counter(kMissions) += result.missions;
  acc.counter(kLossMissions) += result.data_loss_missions;
  acc.counter(kLossEvents) += result.data_loss_events;
  acc.counter(kDiskFailures) += result.disk_failures;
  acc.counter(kCatastrophes) += result.catastrophic_pool_events;
  acc.scalar(kCrossRackTb) += result.cross_rack_tb;
  acc.stats(kLossTime).merge(result.loss_time_hours);
  acc.stats(kExposure).merge(result.catastrophe_exposure_hours);
  acc.counter(kEvents) += result.events_processed;
  acc.counter(kRngDraws) += result.rng_draws;
  acc.counter(kArenaAllocs) += result.arena_allocations;
}

FleetSimResult fleet_result_from(const CampaignAccumulator& acc) {
  FleetSimResult result;
  result.missions = acc.counter(kMissions);
  result.data_loss_missions = acc.counter(kLossMissions);
  result.data_loss_events = acc.counter(kLossEvents);
  result.disk_failures = acc.counter(kDiskFailures);
  result.catastrophic_pool_events = acc.counter(kCatastrophes);
  result.cross_rack_tb = acc.scalar(kCrossRackTb);
  result.loss_time_hours = acc.stats(kLossTime);
  result.catastrophe_exposure_hours = acc.stats(kExposure);
  result.events_processed = acc.counter(kEvents);
  result.rng_draws = acc.counter(kRngDraws);
  result.arena_allocations = acc.counter(kArenaAllocs);
  return result;
}

std::string fleet_campaign_fingerprint(const FleetSimConfig& config) {
  std::ostringstream os;
  os.precision(17);
  // The version names the sim core's RNG schedule; a journal written under
  // another one must not resume into this one. v2: batched inter-failure
  // gaps. v3: exponential gaps from the ziggurat, not the inverse CDF.
  os << "fleet-v3;dc=" << config.dc.racks << 'x' << config.dc.enclosures_per_rack << 'x'
     << config.dc.disks_per_enclosure << ";disk_tb=" << config.dc.disk_capacity_tb
     << ";chunk_kb=" << config.dc.chunk_kb << ";code=" << config.code.notation()
     << ";scheme=" << to_string(config.scheme) << ";method=" << to_string(config.method)
     << ";bw=" << config.bandwidth.disk_mbps << '/' << config.bandwidth.rack_gbps << '/'
     << config.bandwidth.repair_fraction
     << ";fail=" << static_cast<int>(config.failures.kind) << '/' << config.failures.afr << '/'
     << config.failures.weibull_shape << '/' << config.failures.weibull_scale_hours
     << ";detect=" << config.detection_hours << ";mission=" << config.mission_hours
     << ";priority=" << config.priority_repair << ";stop_on_loss=" << config.stop_on_loss
     << ";injected=" << config.injected_events.size();
  for (const auto& ev : config.injected_events) os << ',' << ev.time_hours << ':' << ev.disk;
  return os.str();
}

FleetCampaignResult run_fleet_campaign(const FleetSimConfig& config, CampaignConfig campaign,
                                       ThreadPool* pool) {
  config.validate();
  campaign.fingerprint = fleet_campaign_fingerprint(config);

  // One immutable context (validated config + lookup tables) shared by every
  // shard's engine; each engine keeps only its own mutable trial state.
  auto context = make_fleet_context(config);
  auto factory = [context](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    auto engine = std::make_shared<FleetMissionEngine>(context);
    return [engine, &rng](CampaignAccumulator& acc) {
      FleetSimResult one;
      engine->run_mission(rng, one);
      accumulate_fleet_result(one, acc);
    };
  };
  auto pdl_rse = [](const CampaignAccumulator& merged) {
    return bernoulli_rse(merged.counter(kLossMissions), merged.counter(kMissions));
  };

  CampaignRunner runner(std::move(campaign), factory, pdl_rse);
  auto [merged, report] = runner.run(pool);

  FleetCampaignResult out;
  out.result = fleet_result_from(merged);
  out.result.truncated = report.truncated;
  out.report = std::move(report);
  return out;
}

}  // namespace mlec
