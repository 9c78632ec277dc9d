// One campaign template for every Monte-Carlo mission engine: the fleet
// simulator (Strategy 1, `sim`) and the stage-1 local-pool simulator of
// splitting (Strategy 2, `split`), with checkpoint/resume, cancellation,
// block fault isolation and adaptive stopping from the campaign runner.
//
// A campaign summary declares its journal slots once, as an ordered list of
// (kind, journal name, member pointer) in MissionSchema<Summary>::slots.
// The slot binding of a worker's accumulator, the summary's
// reconstruction from the merged accumulator and the default per-mission
// fold all derive from that list. The order of each kind's slots is the
// journal layout: renaming or reordering one stops old journals resuming.
//
// One campaign unit = one mission. Block b of B missions draws from
// Rng::for_substream(seed, b) on its worker's engine, which is built once
// per worker attempt and reused across that worker's blocks; the summary
// is the fold of the blocks in index order, so it depends on the seed, the
// mission count and B (plus the RSE target, when set) and on nothing else:
// not the worker count, not thread timing, not a kill and resume.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "analysis/durability.hpp"
#include "analysis/fleet_sim.hpp"
#include "runtime/campaign.hpp"
#include "sim/local_pool_sim.hpp"

namespace mlec {

enum class SlotKind : std::uint8_t { kCounter, kScalar, kStats };

/// One journal slot of `Summary`: its kind, its accumulator name and the
/// member it holds (only the member pointer of its kind is set).
template <typename Summary>
struct Slot {
  SlotKind kind;
  const char* name;
  std::uint64_t Summary::*counter = nullptr;
  double Summary::*scalar = nullptr;
  RunningStats Summary::*stats = nullptr;

  constexpr bool holds(std::uint64_t Summary::*member) const { return counter == member; }
  constexpr bool holds(double Summary::*member) const { return scalar == member; }
  constexpr bool holds(RunningStats Summary::*member) const { return stats == member; }
};

template <typename Summary>
constexpr Slot<Summary> counter_slot(const char* name, std::uint64_t Summary::*member) {
  return {SlotKind::kCounter, name, member};
}
template <typename Summary>
constexpr Slot<Summary> scalar_slot(const char* name, double Summary::*member) {
  return {SlotKind::kScalar, name, nullptr, member};
}
template <typename Summary>
constexpr Slot<Summary> stats_slot(const char* name, RunningStats Summary::*member) {
  return {SlotKind::kStats, name, nullptr, nullptr, member};
}

/// Specialized once per campaign summary with `slots` (the journal layout),
/// `Mission` (what the engine's run_mission fills), `rse` (the adaptive-
/// stopping rule) and, when Mission is not the summary itself, `fold`.
template <typename Summary>
struct MissionSchema;

/// The slots of one accumulator, looked up once. Binding first creates any
/// missing slot in schema order, so the layout never depends on which
/// missions ran; addresses are taken only after that, when no slot vector
/// can grow again.
template <typename Summary>
class SlotBinding {
 public:
  static constexpr const auto& kSlots = MissionSchema<Summary>::slots;

  explicit SlotBinding(CampaignAccumulator& acc) {
    for (const auto& slot : kSlots) (void)address(acc, slot);
    for (std::size_t i = 0; i < kSlots.size(); ++i) targets_[i] = address(acc, kSlots[i]);
  }

  /// The accumulator value behind the slot that declares `Member`.
  template <auto Member>
  auto& at() const {
    constexpr std::size_t i = index_of(Member);
    using Value = std::remove_reference_t<decltype(std::declval<Summary&>().*Member)>;
    return *static_cast<Value*>(targets_[i]);
  }

  /// The default fold: += for counters and scalars, RunningStats::merge for
  /// stats.
  void fold(const Summary& one) const {
    for (std::size_t i = 0; i < kSlots.size(); ++i) {
      const Slot<Summary>& slot = kSlots[i];
      void* into = targets_[i];
      if (slot.kind == SlotKind::kCounter) *static_cast<std::uint64_t*>(into) += one.*slot.counter;
      if (slot.kind == SlotKind::kScalar) *static_cast<double*>(into) += one.*slot.scalar;
      if (slot.kind == SlotKind::kStats) static_cast<RunningStats*>(into)->merge(one.*slot.stats);
    }
  }

 private:
  static void* address(CampaignAccumulator& acc, const Slot<Summary>& slot) {
    if (slot.kind == SlotKind::kCounter) return &acc.counter(slot.name);
    if (slot.kind == SlotKind::kScalar) return &acc.scalar(slot.name);
    return &acc.stats(slot.name);
  }

  template <typename Member>
  static consteval std::size_t index_of(Member member) {
    for (std::size_t i = 0; i < kSlots.size(); ++i)
      if (kSlots[i].holds(member)) return i;
    throw "member has no slot in the schema";
  }

  std::array<void*, kSlots.size()> targets_{};
};

/// Rebuild a summary from a (merged) accumulator; absent slots read as zero.
template <typename Summary>
Summary summary_from(const CampaignAccumulator& acc) {
  Summary out;
  for (const auto& slot : MissionSchema<Summary>::slots) {
    if (slot.kind == SlotKind::kCounter) out.*slot.counter = acc.counter(slot.name);
    if (slot.kind == SlotKind::kScalar) out.*slot.scalar = acc.scalar(slot.name);
    if (slot.kind == SlotKind::kStats) out.*slot.stats = acc.stats(slot.name);
  }
  return out;
}

template <typename Summary>
struct MissionCampaignResult {
  Summary summary;
  CampaignReport report;
};

/// Run `campaign.total_units` missions. Every worker attempt builds one
/// engine with `make_engine()`, one MissionSchema<Summary>::Mission and
/// binds its accumulator's slots once, for all the blocks it runs; each
/// mission clears that Mission, runs into it, then folds it into those
/// slots. (Constructing a Mission
/// per mission cost a measurable share of a stage-1 mission of tens of
/// nanoseconds: bench_sim_core's stage-1 ratio.) The caller sets the seed,
/// the fingerprint and the execution knobs; target_rse stops on
/// MissionSchema<Summary>::rse.
template <typename Summary, typename MakeEngine>
MissionCampaignResult<Summary> run_mission_campaign(CampaignConfig campaign, MakeEngine make_engine,
                                                    ThreadPool* pool) {
  using Schema = MissionSchema<Summary>;
  using Engine = decltype(make_engine());
  auto factory = [make_engine](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    auto engine = std::make_shared<Engine>(make_engine());
    auto slots = std::make_shared<std::optional<SlotBinding<Summary>>>();
    auto one = std::make_shared<typename Schema::Mission>();
    return [engine, slots, one, &rng](CampaignAccumulator& acc) {
      if (!*slots) slots->emplace(acc);  // the worker's one accumulator
      if constexpr (requires { one->clear(); })
        one->clear();  // keeps the buffers' capacity
      else
        *one = {};
      engine->run_mission(rng, *one);
      if constexpr (std::is_same_v<typename Schema::Mission, Summary>)
        (*slots)->fold(*one);
      else
        Schema::fold(**slots, *one);
    };
  };
  auto rse = [](const CampaignAccumulator& merged) {
    return Schema::rse(summary_from<Summary>(merged));
  };
  auto [merged, report] = CampaignRunner(std::move(campaign), factory, rse).run(pool);
  return {summary_from<Summary>(merged), std::move(report)};
}

// Strategy 1: the fleet simulator, whose per-mission result is its summary.

template <>
struct MissionSchema<FleetSimResult> {
  using Mission = FleetSimResult;
  static constexpr std::array slots{
      counter_slot("missions", &FleetSimResult::missions),
      counter_slot("data_loss_missions", &FleetSimResult::data_loss_missions),
      counter_slot("catastrophic_pool_events", &FleetSimResult::catastrophic_pool_events),
      scalar_slot("cross_rack_tb", &FleetSimResult::cross_rack_tb),
      stats_slot("loss_time_hours", &FleetSimResult::loss_time_hours),
      stats_slot("catastrophe_exposure_hours", &FleetSimResult::catastrophe_exposure_hours),
      counter_slot("events_processed", &FleetSimResult::events_processed),
      counter_slot("rng_draws", &FleetSimResult::rng_draws),
  };
  /// The PDL estimate's relative standard error: Bernoulli on loss missions.
  static double rse(const FleetSimResult& s) {
    return bernoulli_rse(s.data_loss_missions, s.missions);
  }
};

/// Identity string folded into the journal fingerprint: any change to the
/// physics configuration invalidates old checkpoints.
std::string fleet_campaign_fingerprint(const FleetSimConfig& config);

/// Run `campaign.total_units` missions of `config` on engines sharing one
/// FleetSimContext; the fingerprint is set from fleet_campaign_fingerprint.
MissionCampaignResult<FleetSimResult> run_fleet_campaign(const FleetSimConfig& config,
                                                         CampaignConfig campaign,
                                                         ThreadPool* pool = nullptr);

// Strategy 2, stage 1: the local-pool simulator feeding splitting's stage 2.

struct LocalPoolSummary {
  std::uint64_t missions = 0;
  std::uint64_t catastrophes = 0;
  double pool_years = 0.0;  ///< total simulated pool-time in years
  RunningStats lost_stripe_fraction;  ///< per-catastrophe lost fraction
  RunningStats unrebuilt_tb;          ///< per-catastrophe missing data
  /// Perf counters merged from the block simulators.
  std::uint64_t events_processed = 0;
  std::uint64_t rng_draws = 0;

  /// Stage-1 statistics for the splitting stage 2 (mlec_durability).
  LocalPoolStats stats() const {
    const double rate = pool_years > 0.0 ? static_cast<double>(catastrophes) / pool_years : 0.0;
    return {rate, lost_stripe_fraction.mean()};
  }
};

template <>
struct MissionSchema<LocalPoolSummary> {
  using Mission = LocalPoolSimResult;
  static constexpr std::array slots{
      counter_slot("missions", &LocalPoolSummary::missions),
      counter_slot("catastrophes", &LocalPoolSummary::catastrophes),
      counter_slot("events_processed", &LocalPoolSummary::events_processed),
      counter_slot("rng_draws", &LocalPoolSummary::rng_draws),
      scalar_slot("pool_years", &LocalPoolSummary::pool_years),
      stats_slot("lost_stripe_fraction", &LocalPoolSummary::lost_stripe_fraction),
      stats_slot("unrebuilt_tb", &LocalPoolSummary::unrebuilt_tb),
  };
  /// Each catastrophe sample is add()ed on its own, in mission order:
  /// merging a per-mission RunningStats instead would round differently.
  static void fold(const SlotBinding<LocalPoolSummary>& into, const LocalPoolSimResult& one) {
    into.at<&LocalPoolSummary::missions>() += one.missions;
    into.at<&LocalPoolSummary::catastrophes>() += one.catastrophes;
    into.at<&LocalPoolSummary::pool_years>() += one.pool_years;
    for (const auto& s : one.samples) {
      into.at<&LocalPoolSummary::lost_stripe_fraction>().add(s.lost_stripe_fraction);
      into.at<&LocalPoolSummary::unrebuilt_tb>().add(s.unrebuilt_tb);
    }
    into.at<&LocalPoolSummary::events_processed>() += one.events_processed;
    into.at<&LocalPoolSummary::rng_draws>() += one.rng_draws;
  }
  /// The splitting pipeline is rate-limited by the catastrophe count, whose
  /// relative error is Poisson: 1/sqrt(count).
  static double rse(const LocalPoolSummary& s) {
    return s.catastrophes > 0 ? 1.0 / std::sqrt(static_cast<double>(s.catastrophes))
                              : std::numeric_limits<double>::infinity();
  }
};

/// Identity string folded into the journal fingerprint: any change to the
/// physics configuration invalidates old checkpoints.
std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config);

/// Run `campaign.total_units` pool missions of `config`; the fingerprint is
/// set from local_pool_campaign_fingerprint.
MissionCampaignResult<LocalPoolSummary> run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                                CampaignConfig campaign,
                                                                ThreadPool* pool = nullptr);

}  // namespace mlec
