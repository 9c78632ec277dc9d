// Named-slot accumulator for campaign blocks.
//
// Monte-Carlo workloads reduce to three kinds of per-block state: event
// counters, additive scalars (e.g. traffic TB), and RunningStats moments.
// CampaignAccumulator holds all three under stable names so the campaign
// runner can journal, restore, and merge partial results without knowing
// the workload's concrete result struct; a summary's slot schema (see
// mission_campaign.hpp) translates to and from its domain type.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace mlec {

class CampaignAccumulator {
 public:
  /// Slot accessors create the slot on first use; insertion order is part of
  /// the identity (merge and serialization require identical layouts).
  std::uint64_t& counter(std::string_view name);
  double& scalar(std::string_view name);
  RunningStats& stats(std::string_view name);

  /// Const lookups return the zero/empty value when the slot is absent, so
  /// estimators and adapters stay total over partially filled accumulators.
  std::uint64_t counter(std::string_view name) const;
  double scalar(std::string_view name) const;
  const RunningStats& stats(std::string_view name) const;

  /// Reset every value to zero, keeping the slot layout and every slot's
  /// address: a campaign worker reuses one accumulator across its blocks.
  void zero();

  /// Element-wise merge. Slots are matched by name; `other` must have a
  /// layout compatible with this accumulator (same names in the same order,
  /// or one of the two empty).
  void merge(const CampaignAccumulator& other);

  void save(std::ostream& out) const;
  static CampaignAccumulator load(std::istream& in);

  bool operator==(const CampaignAccumulator&) const = default;

 private:
  // Few slots per workload: ordered vectors with linear lookup beat maps and
  // keep serialization order deterministic.
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, RunningStats>> stats_;
};

}  // namespace mlec
