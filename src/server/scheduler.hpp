// Fair-share job scheduling for the estimation service.
//
// The policy, in priority order:
//
//  1. class — interactive beats normal beats batch, always.
//  2. fairness within a class — among queued jobs of the best waiting
//     class, pick the one whose client has consumed the fewest tokens
//     (1 token = 1 campaign unit committed on that client's behalf), so a
//     client that queued fifty campaigns cannot starve one that queued
//     two: each completed batch shifts the lighter spender to the front.
//  3. FIFO — within one client, submissions run in arrival order.
//
// Preemption is decided by the service, not here: best_waiting() exposes
// the strongest queued class so the service can stop a running lower-class
// campaign at its next block boundary (StopToken; progress is journaled)
// and re-queue it. The scheduler itself is a plain value object guarded by
// the service's mutex.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace mlec::server {

struct QueuedJob {
  std::string id;
  std::string client;
  Priority priority = Priority::kNormal;
  std::uint64_t arrival = 0;  ///< assigned by enqueue(); FIFO tiebreak
};

class FairShareScheduler {
 public:
  void enqueue(QueuedJob job);
  /// Next job under the class -> least-spent-client -> FIFO policy.
  std::optional<QueuedJob> pop();
  /// Remove a queued job (cancellation); false when not queued.
  bool remove(const std::string& job_id);

  /// Record `tokens` units of work done on behalf of `client`.
  void charge(const std::string& client, std::uint64_t tokens);
  std::uint64_t spent(const std::string& client) const;
  const std::map<std::string, std::uint64_t>& spent_by_client() const { return spent_; }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }
  /// Strongest class currently waiting (preemption input); nullopt when
  /// the queue is empty.
  std::optional<Priority> best_waiting() const;

 private:
  std::vector<QueuedJob> queue_;
  std::map<std::string, std::uint64_t> spent_;
  std::uint64_t arrivals_ = 0;
};

}  // namespace mlec::server
