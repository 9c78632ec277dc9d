// Resilient shard-based execution harness for long Monte-Carlo campaigns.
//
// A campaign partitions `total_units` work units (missions, trials) over
// shards, each driven by a deterministic RNG substream
// (Rng::for_substream(seed, shard | attempt << 32)). The runner layers four
// robustness mechanisms over the raw sweep:
//
//  * checkpoint/resume — every `checkpoint_every` units a shard commits its
//    accumulator + RNG state to the journal (see journal.hpp); a killed run
//    resumes from the last commit and finishes bit-identical to an
//    uninterrupted run with the same seed and shard count.
//  * cooperative cancellation — a StopToken (SIGINT/SIGTERM, --time-budget)
//    and an optional per-invocation unit budget stop shards at batch
//    boundaries; partial results stay statistically valid and the report is
//    flagged `truncated`.
//  * shard fault isolation — a throwing shard restarts on a fresh RNG
//    substream with deterministically jittered exponential backoff, up to
//    `max_attempts`; persistent failures are quarantined into the
//    CampaignReport (shard id, attempts, what()) instead of aborting the
//    sweep, and the report is flagged `degraded()`.
//  * shard watchdog — with `shard_timeout_s` set, a supervisor thread
//    watches each shard's commit heartbeat; a stalled attempt is cancelled
//    cooperatively (per-attempt StopToken, also registered as the thread's
//    fault-delay cancellation) and treated as a failed attempt.
//  * adaptive stopping — when `target_rse` is set and the workload supplies
//    an RSE estimator, the campaign ends early once the estimate's relative
//    standard error falls below target; the report is flagged `converged`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/accumulator.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_safety.hpp"

namespace mlec {

/// Snapshot handed to CampaignConfig::progress at every shard commit —
/// the live feed behind `mlecctl watch` and the server's progress streams.
struct CampaignProgress {
  std::uint32_t shard = 0;         ///< shard that just committed
  std::uint64_t units_done = 0;    ///< across all shards, incl. resumed work
  std::uint64_t units_total = 0;
  /// Current adaptive-stopping estimate; 0 when no RSE estimator is wired
  /// or it is still infinite (too few successes observed).
  double achieved_rse = 0.0;
};

struct CampaignConfig {
  std::uint64_t total_units = 0;
  std::uint64_t seed = 0;
  /// Shard count; 0 derives 2x pool workers (or 1 without a pool). The
  /// shard count is part of the campaign identity: resume requires a match.
  std::size_t shards = 0;
  /// Units a shard runs between journal commits (also the cancellation
  /// latency in units).
  std::uint64_t checkpoint_every = 256;
  /// Journal path; empty disables persistence (in-memory campaign).
  std::string checkpoint_path;
  /// Resume from checkpoint_path when the file exists (fresh start when it
  /// does not); an existing journal with a mismatched identity throws.
  bool resume = false;
  /// Attempts per shard before quarantine (>= 1).
  std::size_t max_attempts = 3;
  /// Base backoff between shard retries; attempt k sleeps ~2^k * this,
  /// scaled by a deterministic seeded jitter in [0.5, 1.5) so retrying
  /// shards do not stampede the journal in lockstep.
  double retry_backoff_ms = 100.0;
  /// Watchdog deadline: a shard whose attempt makes no commit progress for
  /// this many seconds is cancelled cooperatively (its attempt StopToken
  /// fires, which also cuts short injected fault delays) and funnels into
  /// the normal retry/quarantine path. 0 disables the watchdog. Must
  /// comfortably exceed the wall time of one checkpoint batch, since
  /// commits are the progress heartbeat.
  double shard_timeout_s = 0.0;
  /// Target relative standard error for adaptive stopping; 0 disables.
  double target_rse = 0.0;
  /// Max units to run in this invocation (across all shards, approximately —
  /// enforced at batch boundaries); 0 = unlimited. Models wall-clock limits
  /// deterministically, which is what the resume tests rely on.
  std::uint64_t unit_budget = 0;
  /// Workload identity (config text) folded into the journal fingerprint.
  std::string fingerprint;
  StopToken stop{};
  /// Invoked after every shard commit with a merged-progress snapshot.
  /// Called concurrently from shard threads (outside the campaign mutex):
  /// the callback must be thread-safe and cheap — it sits on the commit
  /// path of every shard.
  std::function<void(const CampaignProgress&)> progress;
  /// ThreadPool dispatch lane for the shard chunks (kLaneInteractive /
  /// kLaneNormal / kLaneBatch): the server maps client priority classes
  /// here so interactive campaigns overtake queued batch work.
  std::size_t pool_lane = kLaneNormal;

  void validate() const;
};

/// Final status of one shard.
struct ShardOutcome {
  std::uint32_t shard = 0;
  std::uint32_t attempts = 1;   ///< attempts consumed (1 = clean first run)
  std::uint64_t assigned = 0;
  std::uint64_t done = 0;
  bool quarantined = false;
  std::uint32_t timeouts = 0;   ///< attempts cancelled by the shard watchdog
  std::string error;            ///< what() of the last failure, if any
  /// Wall-clock seconds this shard spent in the current invocation (all
  /// attempts; excludes resumed prior runs). done / elapsed_s is the
  /// shard's units-per-second throughput.
  double elapsed_s = 0.0;
};

/// Structured result of a campaign run, alongside the merged accumulator.
struct CampaignReport {
  std::vector<ShardOutcome> shards;
  std::uint64_t units_requested = 0;
  std::uint64_t units_done = 0;
  bool truncated = false;   ///< stop token or unit budget fired early
  bool converged = false;   ///< target_rse reached before total_units
  bool resumed = false;     ///< state was restored from a journal
  double achieved_rse = 0.0;  ///< final estimator value (NaN-free; 0 if unset)
  double elapsed_s = 0.0;   ///< wall-clock seconds of this invocation's run()
  /// Non-empty when resume found a damaged or unusable journal and had to
  /// recover partially or start fresh (the run itself proceeded normally).
  std::string resume_warning;

  std::size_t quarantined() const;
  bool complete() const { return units_done == units_requested; }
  /// True when quarantined shards left part of the sweep uncomputed: the
  /// merged result is statistically valid but based on fewer units than
  /// requested. Consumers should surface this (see Estimate::degraded).
  bool degraded() const { return quarantined() > 0; }
};

class CampaignRunner {
 public:
  /// Runs one unit, drawing randomness from the rng bound at attempt start
  /// and accumulating into `acc`, the same accumulator object for every unit
  /// of a shard attempt.
  using UnitRunner = std::function<void(CampaignAccumulator& acc)>;
  /// Called at the start of every shard attempt with the shard id and the
  /// attempt's generator (already positioned — fresh substream or restored
  /// checkpoint state). Per-shard workload state lives in the closure.
  using WorkerFactory = std::function<UnitRunner(std::uint32_t shard, Rng& rng)>;
  /// Relative standard error of the merged partial estimate; drives
  /// adaptive stopping. May return infinity while too few units completed.
  using RseEstimator = std::function<double(const CampaignAccumulator& merged)>;

  CampaignRunner(CampaignConfig config, WorkerFactory factory, RseEstimator rse = {});
  ~CampaignRunner();  // out-of-line: ShardState is incomplete here

  /// Execute (shards in parallel when `pool` is given). Shard failures are
  /// contained; configuration errors and journal mismatches throw.
  std::pair<CampaignAccumulator, CampaignReport> run(ThreadPool* pool = nullptr);

 private:
  struct ShardState;

  void restore_from_journal() MLEC_REQUIRES(mutex_);
  void run_shard(std::uint32_t shard) MLEC_EXCLUDES(mutex_);
  /// Commit a batch: copy the shard's accumulator/rng into shared state,
  /// journal if persistent, and evaluate the adaptive-stopping rule.
  /// Excluded: takes the campaign mutex itself, and the progress callback
  /// fan-out at the end must run outside it.
  void commit(std::uint32_t shard, const CampaignAccumulator& acc, const Rng& rng,
              std::uint64_t done, std::uint32_t attempt) MLEC_EXCLUDES(mutex_);
  void write_journal_locked() MLEC_REQUIRES(mutex_);
  CampaignAccumulator merged_locked() const MLEC_REQUIRES(mutex_);
  bool should_stop();
  /// Deterministically jittered exponential sleep before a shard retry.
  /// The MLEC_EXCLUDES contract is the PR 5 fix made machine-checked:
  /// holding the campaign mutex across this (exponential) sleep would stall
  /// every other shard's commit for its whole duration.
  void backoff_before_retry(std::uint32_t shard, std::uint32_t retry_attempt) const
      MLEC_EXCLUDES(mutex_);

  CampaignConfig config_;
  WorkerFactory factory_;
  RseEstimator rse_;
  mutable Mutex mutex_;
  /// All per-shard state — partitioning, checkpoints, retry bookkeeping,
  /// and the watchdog heartbeat — guarded wholesale: shard threads copy
  /// what an attempt needs under the lock and run on the copies.
  std::vector<ShardState> states_ MLEC_GUARDED_BY(mutex_);
  std::atomic<bool> converged_{false};
  std::atomic<bool> truncated_{false};
  /// Units committed during this invocation (excludes resumed progress);
  /// drives the unit_budget check.
  std::atomic<std::uint64_t> invocation_units_{0};
  bool resumed_ MLEC_GUARDED_BY(mutex_) = false;
  std::string resume_warning_ MLEC_GUARDED_BY(mutex_);
};

/// Relative standard error of a Bernoulli proportion estimate
/// (sqrt((1-p)/(p n))); infinity until at least one success is observed.
double bernoulli_rse(std::uint64_t successes, std::uint64_t trials);

}  // namespace mlec
