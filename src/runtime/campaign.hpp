// Resilient block-based execution harness for long Monte-Carlo campaigns.
//
// A campaign cuts `total_units` work units (missions, trials) into blocks
// of B units (`checkpoint_every`, or fewer so that there are at least 16
// blocks). Block b always draws from Rng::for_substream(seed, b), and the
// result is the fold of completed blocks in index order, so it depends on
// the seed, the unit count, B and (when set) the RSE target — never on the
// worker count or thread timing.
// Workers claim block indices from one counter and keep one workload
// instance across their blocks. Over that sweep the runner layers:
//
//  * checkpoint/resume — every completed block is journaled (journal.hpp);
//    a killed run recomputes only its in-flight blocks and finishes
//    bit-identical to an uninterrupted run.
//  * cooperative cancellation — a StopToken (SIGINT/SIGTERM, --time-budget)
//    stops claiming at block boundaries and a unit budget caps the blocks
//    claimed; the report is flagged `truncated`.
//  * block fault isolation — a throwing block reruns its own substream on
//    a fresh workload instance after a deterministically jittered backoff,
//    so a fault that heals leaves the result bit-identical; after
//    `max_attempts` the block is quarantined and the report `degraded()`.
//  * worker watchdog — with `shard_timeout_s` set, a supervisor thread
//    cancels a worker attempt whose commit heartbeat stalls (per-attempt
//    StopToken, also the thread's fault-delay cancellation); the timeout
//    is a failed attempt.
//  * adaptive stopping — with `target_rse` and an RSE estimator, the answer
//    is the first block prefix that meets the target; blocks past it are
//    discarded and the report is flagged `converged`.
//  * a claim window — blocks finished beyond the prefix are held until it
//    reaches them, so a worker claims only blocks within
//    kCampaignWindowBlocksPerWorker per worker of the prefix and otherwise
//    waits for it to move.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/accumulator.hpp"
#include "runtime/journal.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_safety.hpp"

namespace mlec {

/// Snapshot handed to CampaignConfig::progress at every block commit —
/// the live feed behind `mlecctl watch` and the server's progress streams.
struct CampaignProgress {
  std::uint32_t shard = 0;         ///< worker that just committed
  std::uint64_t units_done = 0;    ///< in committed blocks, incl. resumed work
  std::uint64_t units_total = 0;
  /// Adaptive-stopping estimate on the block prefix; 0 when no RSE
  /// estimator is wired or it is still infinite (too few successes).
  double achieved_rse = 0.0;
};

/// Workers claim blocks at most this many per worker beyond the prefix.
/// Without a bound, a worker stalled on the prefix block for a few
/// milliseconds lets the others hold hundreds of short finished blocks, and
/// the campaign's memory follows the host's scheduling.
inline constexpr std::uint64_t kCampaignWindowBlocksPerWorker = 16;

struct CampaignConfig {
  std::uint64_t total_units = 0;
  std::uint64_t seed = 0;
  /// Cap on concurrent workers; 0 means the pool size (1 without a pool).
  /// Never changes the result.
  std::size_t shards = 0;
  /// Block size B: the unit of randomness, of commit and of cancellation
  /// latency, capped at ceil(total_units / 16) so a short campaign still
  /// has 16 blocks. Part of the campaign identity: resume requires a match.
  std::uint64_t checkpoint_every = 256;
  /// Journal path; empty disables persistence (in-memory campaign).
  std::string checkpoint_path;
  /// Resume from checkpoint_path when the file exists (fresh start when it
  /// does not); an existing journal with a mismatched identity throws.
  bool resume = false;
  /// Attempts per block before quarantine (>= 1).
  std::size_t max_attempts = 3;
  /// Base backoff between block retries; attempt k sleeps ~2^k * this,
  /// scaled by a deterministic seeded jitter in [0.5, 1.5) so retrying
  /// workers do not stampede the journal in lockstep.
  double retry_backoff_ms = 100.0;
  /// Watchdog deadline: a worker whose attempt makes no commit progress for
  /// this many seconds is cancelled cooperatively (its attempt StopToken
  /// fires, which also cuts short injected fault delays) and funnels into
  /// the normal retry/quarantine path. 0 disables the watchdog. Must
  /// comfortably exceed the wall time of one block, since commits are the
  /// progress heartbeat.
  double shard_timeout_s = 0.0;
  /// Target relative standard error for adaptive stopping; 0 disables.
  double target_rse = 0.0;
  /// Max units to claim in this invocation, rounded up to whole blocks;
  /// 0 = unlimited. Models wall-clock limits deterministically.
  std::uint64_t unit_budget = 0;
  /// Workload identity (config text) folded into the journal fingerprint.
  std::string fingerprint;
  StopToken stop{};
  /// Invoked after every block commit with a progress snapshot. Called
  /// concurrently from worker threads (outside the campaign mutex): the
  /// callback must be thread-safe and cheap — it sits on the commit path of
  /// every block.
  std::function<void(const CampaignProgress&)> progress;
  /// ThreadPool dispatch lane for the workers (kLaneInteractive /
  /// kLaneNormal / kLaneBatch): the server maps client priority classes
  /// here so interactive campaigns overtake queued batch work.
  std::size_t pool_lane = kLaneNormal;

  void validate() const;
};

/// What one worker did in this invocation.
struct ShardOutcome {
  std::uint32_t shard = 0;      ///< worker index
  std::uint32_t attempts = 0;   ///< workload instances built (1 = no failure, 0 = idle)
  std::uint64_t done = 0;       ///< units in the blocks this worker committed
  std::uint32_t timeouts = 0;   ///< attempts cancelled by the watchdog
  std::string error;            ///< what() of the last failure, if any
  double elapsed_s = 0.0;       ///< wall-clock seconds this worker ran
};

/// Structured result of a campaign run, alongside the merged accumulator.
struct CampaignReport {
  std::vector<ShardOutcome> shards;  ///< one row per worker
  std::uint64_t units_requested = 0;
  std::uint64_t units_done = 0;  ///< units in the folded blocks
  std::uint64_t quarantined = 0;  ///< blocks that failed every attempt
  bool truncated = false;   ///< stop token or unit budget fired early
  bool converged = false;   ///< target_rse reached before total_units
  bool resumed = false;     ///< state was restored from a journal
  double achieved_rse = 0.0;  ///< final estimator value (NaN-free; 0 if unset)
  double elapsed_s = 0.0;   ///< wall-clock seconds of this invocation's run()
  /// Non-empty when resume found a damaged or unusable journal and had to
  /// recover partially or start fresh (the run itself proceeded normally).
  std::string resume_warning;

  bool complete() const { return units_done == units_requested; }
  /// True when quarantined blocks left part of the sweep uncomputed: the
  /// merged result is statistically valid but based on fewer units than
  /// requested. Consumers should surface this (see Estimate::degraded).
  bool degraded() const { return quarantined > 0; }
};

class CampaignRunner {
 public:
  /// Runs one unit, drawing randomness from the rng bound at attempt start
  /// and accumulating into `acc`, the same object for every unit of a
  /// worker attempt.
  using UnitRunner = std::function<void(CampaignAccumulator& acc)>;
  /// Called at the start of every worker attempt with the worker index and
  /// the worker's generator, which the runner re-seats on each block's
  /// substream before the block's first unit: the factory must not draw
  /// from it. Per-worker workload state lives in the closure.
  using WorkerFactory = std::function<UnitRunner(std::uint32_t shard, Rng& rng)>;
  /// Relative standard error of the prefix estimate; drives adaptive
  /// stopping. May return infinity while too few units completed.
  using RseEstimator = std::function<double(const CampaignAccumulator& merged)>;

  CampaignRunner(CampaignConfig config, WorkerFactory factory, RseEstimator rse = {});
  ~CampaignRunner();  // out-of-line: WorkerState is incomplete here

  /// Execute (workers in parallel when `pool` is given). Block failures are
  /// contained; configuration errors and journal mismatches throw.
  std::pair<CampaignAccumulator, CampaignReport> run(ThreadPool* pool = nullptr);

 private:
  struct WorkerState;

  std::uint64_t block_size(std::uint64_t block) const;
  void restore_from_journal() MLEC_REQUIRES(mutex_);
  void run_worker(std::uint32_t worker) MLEC_EXCLUDES(mutex_);
  /// The next block to run; nullopt once all are claimed, the run has
  /// converged, or a stop or the unit budget ends claiming.
  std::optional<std::uint64_t> claim_locked() MLEC_REQUIRES(mutex_);
  /// Record a finished block (`acc`) or a quarantined one (nullptr),
  /// advance the prefix, journal, then fan out progress outside the mutex.
  void commit(std::uint32_t worker, std::uint64_t block, std::uint32_t attempts,
              const CampaignAccumulator* acc) MLEC_EXCLUDES(mutex_);
  /// Fold every recorded block contiguous with the prefix, testing the
  /// stopping rule after each one.
  void advance_prefix_locked() MLEC_REQUIRES(mutex_);
  void check_target_locked() MLEC_REQUIRES(mutex_);
  std::uint64_t units_done_locked() const MLEC_REQUIRES(mutex_);
  void write_journal_locked() MLEC_REQUIRES(mutex_);
  /// Deterministically jittered exponential sleep before a block retry.
  /// The MLEC_EXCLUDES contract is the PR 5 fix made machine-checked:
  /// holding the campaign mutex across this (exponential) sleep would stall
  /// every other worker's commit for its whole duration.
  void backoff_before_retry(std::uint64_t block, std::uint32_t retry_attempt) const
      MLEC_EXCLUDES(mutex_);

  CampaignConfig config_;
  std::uint64_t block_units_ = 0;  ///< B, fixed at construction
  WorkerFactory factory_;
  RseEstimator rse_;
  mutable Mutex mutex_;
  /// The fold of blocks 0..prefix_blocks_-1 in index order (quarantined
  /// blocks skipped); completed blocks beyond it and every quarantined
  /// block, by index — exactly what the journal holds.
  CampaignAccumulator prefix_ MLEC_GUARDED_BY(mutex_);
  std::uint64_t prefix_blocks_ MLEC_GUARDED_BY(mutex_) = 0;
  std::map<std::uint64_t, BlockRecord> blocks_ MLEC_GUARDED_BY(mutex_);
  /// Claim cursor and the units claimed in this invocation (unit_budget).
  std::uint64_t next_claim_ MLEC_GUARDED_BY(mutex_) = 0;
  std::uint64_t claimed_units_ MLEC_GUARDED_BY(mutex_) = 0;
  /// Signalled by every commit that moves the prefix, for workers waiting
  /// at the claim window (kCampaignWindowBlocksPerWorker).
  CondVar prefix_moved_;
  /// Per-worker report rows and watchdog heartbeat.
  std::vector<WorkerState> workers_ MLEC_GUARDED_BY(mutex_);
  /// Set once a prefix meets target_rse; workers abandon their blocks at
  /// the next unit.
  std::atomic<bool> converged_{false};
  std::atomic<bool> truncated_{false};
  bool resumed_ MLEC_GUARDED_BY(mutex_) = false;
  std::string resume_warning_ MLEC_GUARDED_BY(mutex_);
};

/// Relative standard error of a Bernoulli proportion estimate
/// (sqrt((1-p)/(p n))); infinity until at least one success is observed,
/// and (1 - Wilson lower bound) / 1.96 while every trial is a success.
double bernoulli_rse(std::uint64_t successes, std::uint64_t trials);

}  // namespace mlec
