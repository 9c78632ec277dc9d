// Per-engine trial arena: dense slot storage with O(active) per-trial reset.
//
// Monte-Carlo trial loops (one mission of the fleet simulator, one block of
// a campaign) touch a small, data-dependent subset of a large id universe (a few
// local pools out of thousands). A hash map models that sparsity but pays
// hashing on every lookup and node allocation on every insert — per-event
// heap traffic in the hottest loop of the library. TrialArena keeps one
// value slot per id, allocated once per engine, plus an explicit active list:
//
//  * find/activate/deactivate are array indexing, no hashing;
//  * begin_trial() is O(active ids), not O(universe) and not a deallocation
//    storm — slots are recycled, so any heap capacity a value accumulated
//    (e.g. a std::vector member) survives into the next trial;
//  * the active list doubles as the simulator's active-pool set: trials
//    where most of the fleet is idle never touch idle slots at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mlec {

template <typename T>
class TrialArena {
 public:
  /// Size the id universe to [0, universe). Existing slots are kept; growth
  /// allocates the new slots eagerly so the trial loop never does.
  void resize(std::size_t universe) {
    if (universe > slots_.size()) ++allocations_;
    slots_.resize(universe);
    pos_.resize(universe, 0);
  }

  std::size_t universe() const { return slots_.size(); }

  /// Deactivate every id. O(active); slot values are NOT cleared here —
  /// activate() resets them lazily, so untouched slots cost nothing.
  void begin_trial() {
    for (std::uint32_t id : active_) pos_[id] = 0;
    active_.clear();
  }

  bool active(std::uint32_t id) const { return pos_[id] != 0; }

  /// The value for `id`, or nullptr while it is inactive.
  T* find(std::uint32_t id) { return pos_[id] != 0 ? &slots_[id] : nullptr; }
  const T* find(std::uint32_t id) const {
    return pos_[id] != 0 ? &slots_[id] : nullptr;
  }

  /// The value for `id`, activating it first if needed; `reset(T&)` runs on
  /// the recycled slot only on that inactive->active edge.
  template <typename Reset>
  T& activate(std::uint32_t id, Reset&& reset) {
    MLEC_ASSERT(id < slots_.size(), "id outside the sized universe");
    if (pos_[id] == 0) {
      active_.push_back(id);
      pos_[id] = static_cast<std::uint32_t>(active_.size());
      reset(slots_[id]);
    }
    return slots_[id];
  }

  /// Remove `id` from the active set (swap-remove; order not preserved).
  void deactivate(std::uint32_t id) {
    const std::uint32_t p = pos_[id];
    if (p == 0) return;
    const std::uint32_t last = active_.back();
    active_[p - 1] = last;
    pos_[last] = p;
    active_.pop_back();
    pos_[id] = 0;
  }

  /// Currently active ids, in activation order except where deactivation
  /// swap-removed.
  std::span<const std::uint32_t> active_ids() const { return active_; }
  std::size_t active_count() const { return active_.size(); }

  /// Times the slot storage grew — 0 after warm-up is the zero-allocation
  /// steady-state invariant the perf counters report on.
  std::uint64_t allocations() const { return allocations_; }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> pos_;  ///< id -> active index + 1; 0 = inactive
  std::vector<std::uint32_t> active_;
  std::uint64_t allocations_ = 0;
};

}  // namespace mlec
