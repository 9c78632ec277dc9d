// Concurrency stress tests for the campaign runner's cancellation path.
//
// These tests exist to give ThreadSanitizer real interleavings to chew on:
// a multi-worker pool (explicit — CI runners and laptops may report one
// core), many small blocks committing frequently, and StopSource firing at
// staggered points including mid-flight, pre-start, and post-completion.
// The assertions are deliberately about *consistency under cancellation*:
// whatever the interleaving, the merged accumulator, the per-worker
// outcomes, and the report's units_done must agree exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "runtime/campaign.hpp"
#include "util/fault.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"

namespace mlec {
namespace {

// Each unit bumps a counter and folds a draw into a scalar so the merged
// accumulator has content whose totals must match the report exactly.
CampaignRunner::WorkerFactory counting_factory() {
  return [](std::uint32_t, Rng& rng) {
    return [&rng](CampaignAccumulator& acc) {
      acc.counter("units") += 1;
      acc.scalar("sum") += rng.uniform();
    };
  };
}

void expect_consistent(const CampaignAccumulator& merged, const CampaignReport& report) {
  std::uint64_t worker_total = 0;
  for (const auto& s : report.shards) {
    EXPECT_LE(s.attempts, 1u) << "worker " << s.shard << ": " << s.error;
    if (s.done > 0) {
      EXPECT_EQ(s.attempts, 1u) << "worker " << s.shard;
    }
    worker_total += s.done;
  }
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.units_done, worker_total);
  EXPECT_EQ(merged.counter("units"), report.units_done);
  EXPECT_LE(report.units_done, report.units_requested);
  // Every early exit must be flagged; a full run must not be.
  EXPECT_TRUE(report.complete() || report.truncated);
  if (report.complete()) EXPECT_FALSE(report.truncated);
}

TEST(CampaignStress, CancellationRacesShardCompletion) {
  // Sweep the cancellation point from "immediately" to "probably after the
  // campaign finished" so successive iterations hit different phases of the
  // worker loop. Two cancellers fire concurrently to also exercise idempotent
  // request_stop() on a shared StopState.
  constexpr int kIterations = 24;
  for (int iter = 0; iter < kIterations; ++iter) {
    ThreadPool pool(4);
    StopSource source;

    CampaignConfig cfg;
    cfg.total_units = 2048;
    cfg.seed = 0x5eedu + static_cast<std::uint64_t>(iter);
    cfg.checkpoint_every = 16;  // frequent commits = frequent lock traffic
    cfg.stop = source.token();

    CampaignRunner runner(cfg, counting_factory());

    std::atomic<bool> go{false};
    const auto delay = std::chrono::microseconds(iter * 150);
    auto cancel = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::this_thread::sleep_for(delay);
      source.request_stop();
    };
    std::thread canceller_a(cancel);
    std::thread canceller_b(cancel);

    go.store(true, std::memory_order_release);
    auto [merged, report] = runner.run(&pool);
    canceller_a.join();
    canceller_b.join();

    SCOPED_TRACE("iteration " + std::to_string(iter));
    expect_consistent(merged, report);
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(report.shards.size(), 4u);  // capped at the pool's 4 threads
  }
}

TEST(CampaignStress, PreFiredStopYieldsEmptyTruncatedReport) {
  ThreadPool pool(4);
  StopSource source;
  source.request_stop();

  CampaignConfig cfg;
  cfg.total_units = 1024;
  cfg.seed = 7;
  cfg.checkpoint_every = 16;
  cfg.stop = source.token();

  CampaignRunner runner(cfg, counting_factory());
  auto [merged, report] = runner.run(&pool);

  expect_consistent(merged, report);
  EXPECT_EQ(report.units_done, 0u);
  EXPECT_TRUE(report.truncated);
}

TEST(CampaignStress, StopAfterRunIsHarmlessAndRerunnable) {
  // A token that fires only after run() returned must leave a complete,
  // untruncated report, and the source must be reusable for a second
  // campaign that then observes the stop from the start.
  ThreadPool pool(4);
  StopSource source;

  CampaignConfig cfg;
  cfg.total_units = 512;
  cfg.seed = 11;
  cfg.checkpoint_every = 32;
  cfg.stop = source.token();

  {
    CampaignRunner runner(cfg, counting_factory());
    auto [merged, report] = runner.run(&pool);
    expect_consistent(merged, report);
    EXPECT_TRUE(report.complete());
  }

  source.request_stop();
  CampaignRunner again(cfg, counting_factory());
  auto [merged, report] = again.run(&pool);
  expect_consistent(merged, report);
  EXPECT_EQ(report.units_done, 0u);
  EXPECT_TRUE(report.truncated);
}

TEST(CampaignStress, FaultingShardBackoffDoesNotBlockPeerCommits) {
  // The first two units to run throw, with a non-trivial backoff; the other
  // workers must keep committing at full speed, which they can only do if
  // the retry sleep happens outside the campaign mutex. The wall-clock
  // bound is generous (sleeps total ~30ms; serialized commits behind a held
  // lock would add that to every peer's critical path under TSan's ~10x
  // slowdown, but the real assertion is the TSan/consistency one).
  ThreadPool pool(4);

  CampaignConfig cfg;
  cfg.total_units = 1024;
  cfg.seed = 13;
  cfg.checkpoint_every = 16;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 10.0;

  fault::configure("pool.task.throw=throw@first=2");
  CampaignRunner runner(cfg, counting_factory());
  auto [merged, report] = runner.run(&pool);
  fault::clear();

  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(merged.counter("units"), report.units_done);
  std::uint32_t retries = 0;
  for (const auto& s : report.shards)
    if (s.attempts > 0) retries += s.attempts - 1;
  EXPECT_EQ(retries, 2u);
}

}  // namespace
}  // namespace mlec
