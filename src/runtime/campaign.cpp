#include "runtime/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace mlec {

namespace {

/// Raised inside a worker attempt when its watchdog token fires; funnels
/// into the same retry/quarantine path as workload exceptions but is
/// counted separately (ShardOutcome::timeouts).
class WorkerTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A campaign of at least this many units has at least this many blocks, so
/// a short campaign of expensive missions (a few hundred paper-scale fleet
/// missions) still spreads over the workers. It depends on the unit count
/// alone, so answers stay host-independent.
constexpr std::uint64_t kMinBlocks = 16;

/// A worker that quarantines this many blocks in a row retires: its
/// failures are evidently not transient, and grinding through every
/// remaining block at max_attempts each (with backoff) would never end.
constexpr std::uint32_t kRetireAfterQuarantines = 2;

}  // namespace

void CampaignConfig::validate() const {
  MLEC_REQUIRE(total_units > 0, "campaign needs at least one unit of work");
  MLEC_REQUIRE(checkpoint_every > 0, "checkpoint interval must be positive");
  MLEC_REQUIRE(max_attempts >= 1, "at least one attempt per block required");
  MLEC_REQUIRE(retry_backoff_ms >= 0.0, "retry backoff must be non-negative");
  MLEC_REQUIRE(shard_timeout_s >= 0.0, "shard timeout must be non-negative");
  MLEC_REQUIRE(target_rse >= 0.0, "target RSE must be non-negative");
}

double bernoulli_rse(std::uint64_t successes, std::uint64_t trials) {
  if (successes == 0 || trials == 0) return std::numeric_limits<double>::infinity();
  const double p = static_cast<double>(successes) / static_cast<double>(trials);
  return std::sqrt((1.0 - p) / static_cast<double>(successes));
}

struct CampaignRunner::WorkerState {
  ShardOutcome outcome;
  // Watchdog view of the worker (all guarded by the campaign mutex): a
  // worker is watched only while `running`; `last_progress` is refreshed at
  // every block start and commit; `attempt_stop` is replaced at each attempt
  // start so cancelling one attempt cannot leak into its retry.
  bool running = false;
  std::chrono::steady_clock::time_point last_progress{};
  StopSource attempt_stop;
};

CampaignRunner::CampaignRunner(CampaignConfig config, WorkerFactory factory, RseEstimator rse)
    : config_(std::move(config)), factory_(std::move(factory)), rse_(std::move(rse)) {
  config_.validate();
  MLEC_REQUIRE(factory_ != nullptr, "campaign needs a worker factory");
  block_units_ = std::min(config_.checkpoint_every, block_count(config_.total_units, kMinBlocks));
}

CampaignRunner::~CampaignRunner() = default;

std::uint64_t CampaignRunner::block_size(std::uint64_t block) const {
  return std::min(block_units_, config_.total_units - block * block_units_);
}

std::optional<std::uint64_t> CampaignRunner::claim_locked() {
  if (converged_.load(std::memory_order_relaxed)) return std::nullopt;
  const std::uint64_t blocks = block_count(config_.total_units, block_units_);
  while (next_claim_ < blocks && blocks_.contains(next_claim_)) ++next_claim_;
  if (next_claim_ >= blocks) return std::nullopt;
  if (config_.stop.stop_requested() ||
      (config_.unit_budget > 0 && claimed_units_ >= config_.unit_budget)) {
    truncated_.store(true, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::uint64_t block = next_claim_++;
  claimed_units_ += block_size(block);
  return block;
}

void CampaignRunner::check_target_locked() {
  if (rse_ == nullptr || config_.target_rse <= 0.0 || rse_(prefix_) > config_.target_rse)
    return;
  converged_.store(true, std::memory_order_relaxed);
  // Blocks past the answer's prefix, completed or quarantined, do not count.
  const std::uint64_t answer = prefix_blocks_;
  std::erase_if(blocks_, [answer](const auto& entry) { return entry.first >= answer; });
}

void CampaignRunner::advance_prefix_locked() {
  while (!converged_.load(std::memory_order_relaxed)) {
    const auto it = blocks_.find(prefix_blocks_);
    if (it == blocks_.end()) return;
    if (!it->second.quarantined) {
      prefix_.merge(it->second.acc);
      blocks_.erase(it);
    }
    ++prefix_blocks_;
    check_target_locked();
  }
}

std::uint64_t CampaignRunner::units_done_locked() const {
  std::uint64_t units = std::min(config_.total_units, prefix_blocks_ * block_units_);
  for (const auto& [block, rec] : blocks_) {
    if (!rec.quarantined) units += block_size(block);
    if (rec.quarantined && block < prefix_blocks_) units -= block_size(block);
  }
  return units;
}

void CampaignRunner::write_journal_locked() {
  if (config_.checkpoint_path.empty()) return;
  CampaignJournal journal;
  journal.seed = config_.seed;
  journal.total_units = config_.total_units;
  journal.block_units = block_units_;
  journal.fingerprint = fingerprint_of(config_.fingerprint);
  journal.prefix_blocks = prefix_blocks_;
  journal.prefix = prefix_;
  for (const auto& [block, rec] : blocks_) journal.records.push_back(rec);
  journal.save_file(config_.checkpoint_path);
}

void CampaignRunner::restore_from_journal() {
  JournalLoadResult loaded = CampaignJournal::recover_file(config_.checkpoint_path);
  if (loaded.status == JournalLoadResult::Status::kMissing) return;
  if (!loaded.usable()) {
    // Corruption is an operational hazard, not a configuration error: fall
    // back to a fresh start (bit-identical to a never-checkpointed run) and
    // surface the damage through the report instead of aborting.
    resume_warning_ = loaded.warning + " — starting fresh";
    return;
  }
  // A *valid* journal for the wrong campaign is a user error: resuming it
  // would silently mix incompatible statistics, so these still throw.
  const CampaignJournal& journal = loaded.journal;
  MLEC_REQUIRE(journal.seed == config_.seed, "campaign journal seed mismatch");
  MLEC_REQUIRE(journal.total_units == config_.total_units,
               "campaign journal total-unit mismatch");
  MLEC_REQUIRE(journal.block_units == block_units_,
               "campaign journal block-size mismatch");
  MLEC_REQUIRE(journal.fingerprint == fingerprint_of(config_.fingerprint),
               "campaign journal belongs to a different workload configuration");
  prefix_ = journal.prefix;
  prefix_blocks_ = journal.prefix_blocks;
  for (const BlockRecord& rec : journal.records) blocks_.emplace(rec.block, rec);
  // Blocks whose records were dropped with a damaged tail are simply
  // recomputed from their substreams. A journal written at convergence
  // converges again here, on the same prefix.
  if (prefix_blocks_ > 0) check_target_locked();
  advance_prefix_locked();
  resumed_ = true;
  resume_warning_ = loaded.warning;
}

void CampaignRunner::commit(std::uint32_t worker, std::uint64_t block, std::uint32_t attempts,
                            const CampaignAccumulator* acc) {
  MLEC_FAULT_POINT("campaign.checkpoint.pre");
  CampaignProgress snapshot;
  {
    MutexLock lock(mutex_);
    WorkerState& ws = workers_[worker];
    ws.last_progress = std::chrono::steady_clock::now();  // watchdog heartbeat
    // Past the answer, or already recorded by an attempt whose commit threw
    // after recording it (a retry reproduces the same bits).
    if (converged_.load(std::memory_order_relaxed) || block < prefix_blocks_ ||
        blocks_.contains(block))
      return;
    if (acc != nullptr) ws.outcome.done += block_size(block);
    const std::uint64_t prefix_before = prefix_blocks_;
    if (acc != nullptr && block == prefix_blocks_) {
      prefix_.merge(*acc);  // in order: fold without parking a copy
      ++prefix_blocks_;
      check_target_locked();
    } else {
      blocks_.emplace(block, BlockRecord{block, attempts, acc == nullptr,
                                         acc != nullptr ? *acc : CampaignAccumulator{}});
    }
    advance_prefix_locked();
    if (prefix_blocks_ != prefix_before) prefix_moved_.notify_all();
    write_journal_locked();
    if (config_.progress != nullptr) {
      snapshot.shard = worker;
      snapshot.units_done = units_done_locked();
      snapshot.units_total = config_.total_units;
      if (rse_ != nullptr) {
        const double rse = rse_(prefix_);
        if (std::isfinite(rse)) snapshot.achieved_rse = rse;
      }
    }
  }
  // The callback runs outside the campaign mutex so a slow subscriber fan-
  // out cannot stall other workers' commits.
  if (config_.progress != nullptr) config_.progress(snapshot);
  MLEC_FAULT_POINT("campaign.checkpoint.post");
}

void CampaignRunner::backoff_before_retry(std::uint64_t block,
                                          std::uint32_t retry_attempt) const {
  if (config_.retry_backoff_ms <= 0.0) return;
  const double factor = std::pow(2.0, static_cast<double>(retry_attempt - 1));
  // Jitter is drawn from seeded SplitMix64 over (seed, block, attempt),
  // never wall clock or rand(): retries stay reproducible run-to-run while
  // still de-synchronizing across blocks.
  std::uint64_t jitter_state = config_.seed ^ (block * 0x9e3779b97f4a7c15ULL) ^ retry_attempt;
  const double jitter =
      0.5 + static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      config_.retry_backoff_ms * factor * jitter));
}

void CampaignRunner::run_worker(std::uint32_t worker) {
  const auto started = std::chrono::steady_clock::now();
  // Charges wall time on every exit path. Declared first so its destructor
  // runs after every inner MutexLock has released (locals destroy in
  // reverse order) — it can safely take the mutex itself.
  struct Timer {
    CampaignRunner& self;
    std::uint32_t worker;
    std::chrono::steady_clock::time_point start;
    ~Timer() {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      MutexLock lock(self.mutex_);
      self.workers_[worker].outcome.elapsed_s += elapsed;
    }
  } timer{*this, worker, started};
  // One generator and one accumulator serve every block this worker runs,
  // and one workload instance serves them until an attempt fails.
  Rng rng = Rng::for_substream(config_.seed, 0);
  CampaignAccumulator acc;
  UnitRunner unit;
  StopToken attempt_token;
  std::optional<std::uint64_t> block;
  std::uint32_t failures = 0;          // failed attempts of `block`
  std::uint32_t quarantined_in_row = 0;
  for (;;) {
    {
      MutexLock lock(mutex_);
      WorkerState& ws = workers_[worker];
      if (!block) {
        // A worker that has run a window ahead of a stalled one waits for
        // the prefix to move instead of parking ever more finished blocks.
        while (!converged_.load(std::memory_order_relaxed) &&
               next_claim_ >= prefix_blocks_ + kCampaignWindowBlocksPerWorker * workers_.size()) {
          ws.running = false;
          prefix_moved_.wait(mutex_);
        }
        block = claim_locked();
        failures = 0;
      }
      if (!block) {
        ws.running = false;
        return;
      }
      if (unit == nullptr) {
        ws.attempt_stop = StopSource{};  // fresh per attempt: no stale cancels
        attempt_token = ws.attempt_stop.token();
        ++ws.outcome.attempts;
      }
      ws.last_progress = std::chrono::steady_clock::now();
      ws.running = true;
    }
    // Injected fault delays on this thread poll the attempt token, so the
    // watchdog can cut a hung (delay-injected) worker loose mid-sleep.
    fault::ScopedCancellation cancel_scope(attempt_token);
    try {
      if (unit == nullptr) {
        unit = factory_(worker, rng);
        MLEC_REQUIRE(unit != nullptr, "campaign worker factory returned null");
      }
      MLEC_FAULT_POINT("shard.slow");
      if (attempt_token.stop_requested())
        throw WorkerTimeoutError("worker " + std::to_string(worker) +
                                 " made no progress within " +
                                 std::to_string(config_.shard_timeout_s) + "s");
      // Every attempt at a block runs its own substream from the start.
      rng = Rng::for_substream(config_.seed, *block);
      acc.zero();
      bool abandoned = false;
      for (std::uint64_t left = block_size(*block); left > 0; --left) {
        if (converged_.load(std::memory_order_relaxed)) {
          abandoned = true;  // a finished prefix already holds the answer
          break;
        }
        MLEC_FAULT_POINT("pool.task.throw");
        unit(acc);
      }
      if (!abandoned) commit(worker, *block, failures + 1, &acc);
      block.reset();
      quarantined_in_row = 0;
    } catch (const std::exception& e) {
      unit = nullptr;  // the retry builds a fresh workload instance
      ++failures;
      {
        MutexLock lock(mutex_);
        WorkerState& ws = workers_[worker];
        ws.running = false;
        ws.outcome.error = e.what();
        if (dynamic_cast<const WorkerTimeoutError*>(&e) != nullptr) ++ws.outcome.timeouts;
      }
      if (failures < config_.max_attempts) {
        backoff_before_retry(*block, failures);
        continue;
      }
      // Quarantined: the prefix steps over the block and the report is
      // degraded. Its partial statistics are discarded, so a mid-block
      // fault cannot bias what survives.
      commit(worker, *block, failures, nullptr);
      block.reset();
      if (++quarantined_in_row >= kRetireAfterQuarantines) return;
    }
  }
}

std::pair<CampaignAccumulator, CampaignReport> CampaignRunner::run(ThreadPool* pool) {
  const auto run_started = std::chrono::steady_clock::now();
  std::size_t workers = pool != nullptr ? pool->size() : 1;
  if (config_.shards > 0) workers = std::min(workers, config_.shards);
  workers = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      workers, 1, block_count(config_.total_units, block_units_)));

  {
    // No worker threads exist yet, but setup and journal restore still run
    // under the mutex: the state is guarded wholesale and the analysis
    // (rightly) has no notion of "before the races start".
    MutexLock lock(mutex_);
    workers_.clear();
    workers_.resize(workers);
    for (std::uint32_t w = 0; w < workers; ++w) workers_[w].outcome.shard = w;
    if (config_.resume && !config_.checkpoint_path.empty() &&
        std::filesystem::exists(config_.checkpoint_path))
      restore_from_journal();
    next_claim_ = prefix_blocks_;
  }

  // The watchdog polls each running worker's commit heartbeat and fires the
  // worker's per-attempt StopSource once it goes stale; the worker observes
  // the token at its next block start (or mid fault-delay) and converts it
  // into a retryable timeout.
  std::atomic<bool> watchdog_exit{false};
  std::thread watchdog;
  if (config_.shard_timeout_s > 0.0) {
    watchdog = std::thread([this, &watchdog_exit] {
      const auto timeout = std::chrono::duration<double>(config_.shard_timeout_s);
      const auto poll = std::chrono::duration<double>(
          std::max(config_.shard_timeout_s / 8.0, 0.001));
      while (!watchdog_exit.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(poll);
        const auto now = std::chrono::steady_clock::now();
        MutexLock lock(mutex_);
        for (auto& ws : workers_) {
          if (!ws.running || ws.attempt_stop.stop_requested()) continue;
          if (now - ws.last_progress > timeout) ws.attempt_stop.request_stop();
        }
      }
    });
  }

  if (pool != nullptr && workers > 1) {
    pool->parallel_chunks(
        0, workers, workers,
        [&](std::size_t worker, std::size_t, std::size_t) {
          run_worker(static_cast<std::uint32_t>(worker));
        },
        StopToken{}, config_.pool_lane);
  } else {
    run_worker(0);
  }

  if (watchdog.joinable()) {
    watchdog_exit.store(true, std::memory_order_relaxed);
    watchdog.join();
  }

  MutexLock lock(mutex_);
  write_journal_locked();

  CampaignReport report;
  report.units_requested = config_.total_units;
  report.resumed = resumed_;
  report.resume_warning = resume_warning_;
  report.shards.reserve(workers_.size());
  for (const auto& ws : workers_) report.shards.push_back(ws.outcome);
  report.units_done = units_done_locked();
  report.quarantined = static_cast<std::uint64_t>(std::count_if(
      blocks_.begin(), blocks_.end(), [](const auto& entry) { return entry.second.quarantined; }));
  report.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_started).count();
  report.converged = converged_.load();
  report.truncated = truncated_.load() && !report.converged && !report.complete();

  // The fold of completed blocks in index order: the prefix, then whatever
  // a truncated run left beyond a gap.
  CampaignAccumulator merged = prefix_;
  for (const auto& [block, rec] : blocks_)
    if (!rec.quarantined) merged.merge(rec.acc);
  if (rse_ != nullptr) {
    const double rse = rse_(merged);
    report.achieved_rse = std::isfinite(rse) ? rse : 0.0;
  }
  return {std::move(merged), std::move(report)};
}

}  // namespace mlec
