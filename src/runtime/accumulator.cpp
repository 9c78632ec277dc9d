#include "runtime/accumulator.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "runtime/io_detail.hpp"
#include "util/error.hpp"

namespace mlec {

namespace {

template <typename T>
T* find_slot(std::vector<std::pair<std::string, T>>& slots, std::string_view name) {
  for (auto& [key, value] : slots)
    if (key == name) return &value;
  return nullptr;
}

template <typename T>
const T* find_slot(const std::vector<std::pair<std::string, T>>& slots,
                   std::string_view name) {
  for (const auto& [key, value] : slots)
    if (key == name) return &value;
  return nullptr;
}

template <typename T, typename MergeFn>
void merge_slots(std::vector<std::pair<std::string, T>>& into,
                 const std::vector<std::pair<std::string, T>>& from, MergeFn&& merge_one) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  MLEC_REQUIRE(into.size() == from.size(),
               "campaign accumulator layouts differ; cannot merge");
  for (std::size_t i = 0; i < into.size(); ++i) {
    MLEC_REQUIRE(into[i].first == from[i].first,
                 "campaign accumulator slot order differs; cannot merge");
    merge_one(into[i].second, from[i].second);
  }
}

}  // namespace

std::uint64_t& CampaignAccumulator::counter(std::string_view name) {
  if (auto* slot = find_slot(counters_, name)) return *slot;
  return counters_.emplace_back(std::string(name), 0).second;
}

double& CampaignAccumulator::scalar(std::string_view name) {
  if (auto* slot = find_slot(scalars_, name)) return *slot;
  return scalars_.emplace_back(std::string(name), 0.0).second;
}

RunningStats& CampaignAccumulator::stats(std::string_view name) {
  if (auto* slot = find_slot(stats_, name)) return *slot;
  return stats_.emplace_back(std::string(name), RunningStats{}).second;
}

std::uint64_t CampaignAccumulator::counter(std::string_view name) const {
  const auto* slot = find_slot(counters_, name);
  return slot != nullptr ? *slot : 0;
}

double CampaignAccumulator::scalar(std::string_view name) const {
  const auto* slot = find_slot(scalars_, name);
  return slot != nullptr ? *slot : 0.0;
}

const RunningStats& CampaignAccumulator::stats(std::string_view name) const {
  static const RunningStats empty;
  const auto* slot = find_slot(stats_, name);
  return slot != nullptr ? *slot : empty;
}

void CampaignAccumulator::zero() {
  for (auto& slot : counters_) slot.second = 0;
  for (auto& slot : scalars_) slot.second = 0.0;
  for (auto& slot : stats_) slot.second = RunningStats{};
}

void CampaignAccumulator::merge(const CampaignAccumulator& other) {
  merge_slots(counters_, other.counters_,
              [](std::uint64_t& a, const std::uint64_t& b) { a += b; });
  merge_slots(scalars_, other.scalars_, [](double& a, const double& b) { a += b; });
  merge_slots(stats_, other.stats_,
              [](RunningStats& a, const RunningStats& b) { a.merge(b); });
}

void CampaignAccumulator::save(std::ostream& out) const {
  using namespace campaign_io;
  write_u32(out, static_cast<std::uint32_t>(counters_.size()));
  for (const auto& [name, value] : counters_) {
    write_string(out, name);
    write_u64(out, value);
  }
  write_u32(out, static_cast<std::uint32_t>(scalars_.size()));
  for (const auto& [name, value] : scalars_) {
    write_string(out, name);
    write_f64(out, value);
  }
  write_u32(out, static_cast<std::uint32_t>(stats_.size()));
  for (const auto& [name, value] : stats_) {
    write_string(out, name);
    const auto raw = value.raw();
    write_u64(out, raw.n);
    write_f64(out, raw.mean);
    write_f64(out, raw.m2);
    write_f64(out, raw.min);
    write_f64(out, raw.max);
  }
}

CampaignAccumulator CampaignAccumulator::load(std::istream& in) {
  using namespace campaign_io;
  CampaignAccumulator acc;
  const std::uint32_t counters = read_u32(in);
  for (std::uint32_t i = 0; i < counters; ++i) {
    const std::string name = read_string(in);
    acc.counter(name) = read_u64(in);
  }
  const std::uint32_t scalars = read_u32(in);
  for (std::uint32_t i = 0; i < scalars; ++i) {
    const std::string name = read_string(in);
    acc.scalar(name) = read_f64(in);
  }
  const std::uint32_t stats = read_u32(in);
  for (std::uint32_t i = 0; i < stats; ++i) {
    const std::string name = read_string(in);
    RunningStats::Raw raw;
    raw.n = read_u64(in);
    raw.mean = read_f64(in);
    raw.m2 = read_f64(in);
    raw.min = read_f64(in);
    raw.max = read_f64(in);
    acc.stats(name) = RunningStats::from_raw(raw);
  }
  return acc;
}

}  // namespace mlec
