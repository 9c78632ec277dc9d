// One campaign template for every Monte-Carlo mission engine: the fleet
// simulator (Strategy 1, `sim`) and the stage-1 local-pool simulator of
// splitting (Strategy 2, `split`), with checkpoint/resume, cancellation,
// block fault isolation and adaptive stopping from the campaign runner.
//
// A campaign summary, which is also what an engine's run_mission fills for
// one mission, declares its journal slots once, as an ordered list of
// (kind, journal name, member pointer) in MissionSchema<Summary>::slots.
// The slot binding of a worker's accumulator, the summary's
// reconstruction from the merged accumulator and the per-mission fold all
// derive from that list. The order of each kind's slots is the
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
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

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

/// Specialized once per campaign summary with `slots` (the journal layout)
/// and `rse` (the adaptive-stopping rule).
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

  /// The fold: += for counters and scalars, RunningStats::merge for stats.
  /// Each slot's kind and member are compile-time constants here, so a
  /// stage-1 mission of tens of nanoseconds does not reload them from the
  /// schema array every time.
  void fold(const Summary& one) const {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (fold_slot<I>(one), ...);
    }(std::make_index_sequence<kSlots.size()>{});
  }

 private:
  template <std::size_t I>
  void fold_slot(const Summary& one) const {
    constexpr Slot<Summary> slot = kSlots[I];
    void* into = targets_[I];
    if constexpr (slot.kind == SlotKind::kCounter)
      *static_cast<std::uint64_t*>(into) += one.*slot.counter;
    else if constexpr (slot.kind == SlotKind::kScalar)
      *static_cast<double*>(into) += one.*slot.scalar;
    else
      static_cast<RunningStats*>(into)->merge(one.*slot.stats);
  }

  static void* address(CampaignAccumulator& acc, const Slot<Summary>& slot) {
    if (slot.kind == SlotKind::kCounter) return &acc.counter(slot.name);
    if (slot.kind == SlotKind::kScalar) return &acc.scalar(slot.name);
    return &acc.stats(slot.name);
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
/// engine with `make_engine()`, one Summary for a mission's results and
/// binds its accumulator's slots once, for all the blocks it runs; each
/// mission zeroes that Summary, runs into it, then folds it into those
/// slots. The caller sets the seed, the fingerprint and the execution
/// knobs; target_rse stops on MissionSchema<Summary>::rse.
template <typename Summary, typename MakeEngine>
MissionCampaignResult<Summary> run_mission_campaign(CampaignConfig campaign, MakeEngine make_engine,
                                                    ThreadPool* pool) {
  using Schema = MissionSchema<Summary>;
  using Engine = decltype(make_engine());
  auto factory = [make_engine](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    auto engine = std::make_shared<Engine>(make_engine());
    auto slots = std::make_shared<std::optional<SlotBinding<Summary>>>();
    auto one = std::make_shared<Summary>();
    return [engine, slots, one, &rng](CampaignAccumulator& acc) {
      if (!*slots) slots->emplace(acc);  // the worker's one accumulator
      *one = {};
      engine->run_mission(rng, *one);
      (*slots)->fold(*one);
    };
  };
  auto rse = [](const CampaignAccumulator& merged) {
    return Schema::rse(summary_from<Summary>(merged));
  };
  auto [merged, report] = CampaignRunner(std::move(campaign), factory, rse).run(pool);
  return {summary_from<Summary>(merged), std::move(report)};
}

// Strategy 1: the fleet simulator.

template <>
struct MissionSchema<FleetSimResult> {
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

template <>
struct MissionSchema<LocalPoolSimResult> {
  static constexpr std::array slots{
      counter_slot("missions", &LocalPoolSimResult::missions),
      counter_slot("catastrophes", &LocalPoolSimResult::catastrophes),
      counter_slot("events_processed", &LocalPoolSimResult::events_processed),
      counter_slot("rng_draws", &LocalPoolSimResult::rng_draws),
      scalar_slot("pool_years", &LocalPoolSimResult::pool_years),
      scalar_slot("expected_catastrophes", &LocalPoolSimResult::expected_catastrophes),
      scalar_slot("expected_catastrophes_sq", &LocalPoolSimResult::expected_catastrophes_sq),
      scalar_slot("expected_lost_fraction", &LocalPoolSimResult::expected_lost_fraction),
  };
  /// The splitting pipeline is rate-limited by the stage-1 catastrophe rate,
  /// whose relative error is that of the mean per-mission compensator.
  static double rse(const LocalPoolSimResult& s) { return s.rate_rse(); }
};

/// Identity string folded into the journal fingerprint: any change to the
/// physics configuration invalidates old checkpoints.
std::string local_pool_campaign_fingerprint(const LocalPoolSimConfig& config);

/// Run `campaign.total_units` pool missions of `config`; the fingerprint is
/// set from local_pool_campaign_fingerprint.
MissionCampaignResult<LocalPoolSimResult> run_local_pool_campaign(const LocalPoolSimConfig& config,
                                                                CampaignConfig campaign,
                                                                ThreadPool* pool = nullptr);

}  // namespace mlec
