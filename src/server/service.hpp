// EstimationService: the daemon's brain, independent of any socket.
//
// Responsibilities, in the order a submission meets them:
//
//  1. canonicalize — parse the submitted INI strictly, load the Scenario,
//     and re-serialize it to the sorted-key normal form; compute the
//     structural fingerprint (core/spec_io.hpp) so isomorphic submissions
//     (reordered keys, comments, `18TB` vs `18000GB`) collapse to one
//     identity.
//  2. memoize — finished Estimates are cached under
//     (fingerprint, method, seed, rse_target); a hit returns the stored
//     bits immediately (no campaign) and bumps the cache-hit counter.
//  3. deduplicate — a submission identical to a queued/running job joins
//     that job instead of spawning a second campaign; both waiters receive
//     the same Estimate when it lands.
//  4. schedule — new jobs enter the fair-share queue
//     (server/scheduler.hpp); campaigns run on the shared ThreadPool in
//     the lane matching their priority class. An interactive arrival
//     preempts a running lower-class campaign: its StopToken fires, the
//     campaign checkpoints and truncates at the next block
//     boundary, and the job is re-queued to resume later.
//  5. persist — every job state transition rewrites the durable store
//     (server/store.hpp); memo hits and joins only bump counters, which
//     ride along with the next transition. A killed daemon reloads the
//     ledger, re-queues whatever was in flight, and the campaign journals
//     resume those jobs bit-identically.
//
// Two execution modes share all of that: start() spawns background runner
// threads (the daemon), while drain() runs queued jobs on the caller's
// thread until the queue empties — deterministic and thread-free, which is
// what the chaos harness's fork-based crash cases require.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.hpp"
#include "server/json.hpp"
#include "server/scheduler.hpp"
#include "server/store.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_safety.hpp"

namespace mlec::server {

struct ServiceConfig {
  /// Durable state directory; empty runs in-memory (no resume, no memo
  /// persistence — tests only).
  std::string state_dir;
  /// Worker pool for campaigns; nullptr runs each campaign on the job's
  /// runner thread alone (required by fork-based chaos cases).
  ThreadPool* pool = nullptr;
  /// Background runner threads started by start(); also the number of
  /// campaigns that can run concurrently.
  std::size_t runners = 2;
  /// Cap on one campaign's concurrent workers; 0 means the pool size.
  /// Answers and journals do not depend on it.
  std::size_t shards = 0;
  /// Missions per campaign block, part of an answer's identity: the CLI's
  /// default, so a submit answers what `mlecctl estimate` answers.
  std::uint64_t checkpoint_every = 256;
};

struct SubmitRequest {
  std::string scenario_ini;
  std::string method = "dp";
  std::string client = "anonymous";
  Priority priority = Priority::kNormal;
  /// Adaptive-stopping target forwarded to the campaign (0 disables);
  /// part of the memo key.
  double rse_target = 0.0;
  /// Overrides the scenario's [sim] seed when set.
  std::optional<std::uint64_t> seed;
};

struct SubmitOutcome {
  std::string job_id;  ///< empty only for a memo hit whose job was pruned
  std::uint64_t fingerprint = 0;
  bool cached = false;  ///< served from the memo cache, no campaign
  bool joined = false;  ///< attached to an identical in-flight job
  std::optional<Estimate> estimate;  ///< set when cached
};

struct ServiceStatus {
  struct Job {
    std::string id;
    std::string client;
    std::string method;
    std::string priority;
    std::string state;
    std::uint64_t units_done = 0;
    std::uint64_t units_total = 0;
    double rse = 0.0;
  };
  std::vector<Job> jobs;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> spent_by_client;
};

class EstimationService {
 public:
  /// Called with one JSON event object per job transition / progress
  /// commit. Invoked outside the service mutex; must be thread-safe.
  using EventSink = std::function<void(const json::Value&)>;

  explicit EstimationService(ServiceConfig config);
  ~EstimationService();

  /// Canonicalize, memo-check, dedup, or enqueue. Throws
  /// PreconditionError on malformed scenarios, unknown methods, or
  /// scenarios outside the method's domain.
  SubmitOutcome submit(const SubmitRequest& request) MLEC_EXCLUDES(mutex_);

  /// Cancel a queued or running job; false when already terminal/unknown.
  bool cancel(const std::string& job_id) MLEC_EXCLUDES(mutex_);

  /// Block until the job reaches a terminal state ("done", "cancelled",
  /// "failed") and return its ledger entry. Throws on unknown id. A
  /// service shutdown releases waiters with the job's current
  /// (possibly non-terminal) state.
  StoredJob wait(const std::string& job_id) MLEC_EXCLUDES(mutex_);

  ServiceStatus status() const MLEC_EXCLUDES(mutex_);

  /// Stream the job's events to `sink`. A job already terminal gets its
  /// terminal event replayed immediately. Returns a token for
  /// unsubscribe(); 0 when the terminal replay made registration moot.
  std::uint64_t subscribe(const std::string& job_id, EventSink sink) MLEC_EXCLUDES(mutex_);
  void unsubscribe(std::uint64_t token) MLEC_EXCLUDES(mutex_);

  /// Foreground mode: run queued jobs to completion on this thread, one at
  /// a time, until the queue is empty. Deterministic; no threads beyond
  /// the configured pool (none when pool == nullptr).
  void drain() MLEC_EXCLUDES(mutex_);

  /// Background mode: spawn the runner threads. stop() preempts running
  /// campaigns (they checkpoint and re-queue) and joins the runners.
  void start() MLEC_EXCLUDES(mutex_);
  void stop() MLEC_EXCLUDES(mutex_);

  /// Quiescent-state inspection for tests and the chaos harness: valid only
  /// once no runner is active (after drain()/stop()), when the store can no
  /// longer change underneath the caller.
  // lint:allow(tsa-escape): quiescent/drain-mode inspection only — chaos cases read the ledger after drain(), with no concurrent mutators left
  const Store& store() const MLEC_NO_THREAD_SAFETY_ANALYSIS { return store_; }

 private:
  struct LiveJob {
    StopSource stop;
    Priority priority = Priority::kNormal;
    std::string client;
    bool running = false;
    bool cancel_requested = false;
    bool preempt_requested = false;
    std::uint64_t units_done = 0;
    std::uint64_t units_total = 0;
    std::uint64_t charged = 0;  ///< tokens already billed to the client
    double rse = 0.0;
  };

  void recover_locked() MLEC_REQUIRES(mutex_);
  void run_job(const std::string& job_id) MLEC_EXCLUDES(mutex_);
  void maybe_preempt_locked(Priority incoming) MLEC_REQUIRES(mutex_);
  /// Excluded: the campaign calls this from worker threads outside every
  /// lock; the sink fan-out at the end must likewise run unlocked.
  void on_progress(const std::string& job_id, const CampaignProgress& progress)
      MLEC_EXCLUDES(mutex_);
  /// Collect the job's sinks under the lock; call them after releasing it.
  std::vector<EventSink> sinks_for_locked(const std::string& job_id) MLEC_REQUIRES(mutex_);
  void bump_locked(const std::string& counter) MLEC_REQUIRES(mutex_);

  ServiceConfig config_;
  mutable Mutex mutex_;
  CondVar cv_;
  Store store_ MLEC_GUARDED_BY(mutex_);
  FairShareScheduler scheduler_ MLEC_GUARDED_BY(mutex_);
  std::map<std::string, LiveJob> live_ MLEC_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::pair<std::string, EventSink>> sinks_ MLEC_GUARDED_BY(mutex_);
  std::uint64_t next_sink_ MLEC_GUARDED_BY(mutex_) = 1;
  /// Mutated only by start()/stop(), which external callers already
  /// serialize (the daemon calls them once each); runner threads never
  /// touch the vector itself.
  std::vector<std::thread> runners_;
  std::size_t busy_ MLEC_GUARDED_BY(mutex_) = 0;
  bool stopping_ MLEC_GUARDED_BY(mutex_) = false;
};

}  // namespace mlec::server
