#include "runtime/pool_campaign.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

namespace mlec {

namespace {

constexpr const char* kMissions = "missions";
constexpr const char* kCatastrophes = "catastrophes";
constexpr const char* kPoolYears = "pool_years";
constexpr const char* kLostFraction = "lost_stripe_fraction";
constexpr const char* kUnrebuiltTb = "unrebuilt_tb";
constexpr const char* kRepairHours = "single_disk_repair_hours";
constexpr const char* kEvents = "events_processed";
constexpr const char* kRngDraws = "rng_draws";

/// The accumulator slots one mission updates, looked up once. Binding
/// creates any missing slot first, counters and stats each in a fixed
/// order, so the layout never depends on which missions hit catastrophes;
/// references are taken only after that, when no slot vector can grow.
class LocalPoolSlots {
 public:
  explicit LocalPoolSlots(CampaignAccumulator& acc) : acc_(&acc) {
    for (const char* name : {kMissions, kCatastrophes, kEvents, kRngDraws}) acc.counter(name);
    acc.scalar(kPoolYears);
    for (const char* name : {kLostFraction, kUnrebuiltTb, kRepairHours}) acc.stats(name);
    missions_ = &acc.counter(kMissions);
    catastrophes_ = &acc.counter(kCatastrophes);
    events_ = &acc.counter(kEvents);
    rng_draws_ = &acc.counter(kRngDraws);
    pool_years_ = &acc.scalar(kPoolYears);
    lost_fraction_ = &acc.stats(kLostFraction);
    unrebuilt_tb_ = &acc.stats(kUnrebuiltTb);
    repair_hours_ = &acc.stats(kRepairHours);
  }

  bool bound_to(const CampaignAccumulator& acc) const { return acc_ == &acc; }

  void add(const LocalPoolSimResult& result) const {
    *missions_ += result.missions;
    *catastrophes_ += result.catastrophes;
    *pool_years_ += result.pool_years;
    for (const auto& s : result.samples) {
      lost_fraction_->add(s.lost_stripe_fraction);
      unrebuilt_tb_->add(s.unrebuilt_tb);
    }
    repair_hours_->merge(result.single_disk_repair_hours);
    *events_ += result.events_processed;
    *rng_draws_ += result.rng_draws;
  }

 private:
  const CampaignAccumulator* acc_;
  std::uint64_t* missions_;
  std::uint64_t* catastrophes_;
  std::uint64_t* events_;
  std::uint64_t* rng_draws_;
  double* pool_years_;
  RunningStats* lost_fraction_;
  RunningStats* unrebuilt_tb_;
  RunningStats* repair_hours_;
};

}  // namespace

LocalPoolStats LocalPoolCampaignResult::stats() const {
  LocalPoolStats s;
  s.cat_rate_per_pool_year = catastrophe_rate_per_year();
  s.lost_stripe_fraction = lost_stripe_fraction.mean();
  return s;
}

std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config) {
  std::ostringstream os;
  os.precision(17);
  // v2: exponential lifetimes from the ziggurat, not the inverse CDF, so
  // v1 journals name another RNG schedule and must not resume.
  os << "localpool-v2;code=" << config.code.k << '+' << config.code.p << ";placement="
     << (config.placement == Placement::kClustered ? 'C' : 'D') << ";disks=" << config.pool_disks
     << ";disk_tb=" << config.disk_capacity_tb << ";chunk_kb=" << config.chunk_kb
     << ";afr=" << config.afr << ";detect=" << config.detection_hours
     << ";bw=" << config.bandwidth.disk_mbps << '/' << config.bandwidth.rack_gbps << '/'
     << config.bandwidth.repair_fraction << ";mission=" << config.mission_hours
     << ";priority=" << config.priority_repair;
  return os.str();
}

LocalPoolCampaignResult run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                CampaignConfig campaign, ThreadPool* pool) {
  config.validate();
  campaign.fingerprint = local_pool_campaign_fingerprint(config);

  // One engine per shard attempt: validation and the finalized repair model
  // are built here, once, never in a unit (as fleet_campaign.cpp does). The
  // accumulator slots are likewise looked up once per attempt: every unit
  // of an attempt gets the same accumulator.
  auto factory = [&config](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    auto engine = std::make_shared<LocalPoolEngine>(config);
    auto slots = std::make_shared<std::optional<LocalPoolSlots>>();
    return [engine, slots, &rng](CampaignAccumulator& acc) {
      if (!*slots || !(*slots)->bound_to(acc)) slots->emplace(acc);
      LocalPoolSimResult one;
      engine->run_mission(rng, one);
      (*slots)->add(one);
    };
  };
  // The splitting pipeline is rate-limited by the catastrophe count, whose
  // relative error is Poisson: 1/sqrt(count).
  auto cat_rse = [](const CampaignAccumulator& merged) {
    const std::uint64_t cat = merged.counter(kCatastrophes);
    return cat > 0 ? 1.0 / std::sqrt(static_cast<double>(cat))
                   : std::numeric_limits<double>::infinity();
  };

  CampaignRunner runner(std::move(campaign), factory, cat_rse);
  auto [merged, report] = runner.run(pool);

  LocalPoolCampaignResult out;
  out.missions = merged.counter(kMissions);
  out.catastrophes = merged.counter(kCatastrophes);
  out.pool_years = merged.scalar(kPoolYears);
  out.lost_stripe_fraction = merged.stats(kLostFraction);
  out.unrebuilt_tb = merged.stats(kUnrebuiltTb);
  out.single_disk_repair_hours = merged.stats(kRepairHours);
  out.events_processed = merged.counter(kEvents);
  out.rng_draws = merged.counter(kRngDraws);
  out.report = std::move(report);
  return out;
}

}  // namespace mlec
