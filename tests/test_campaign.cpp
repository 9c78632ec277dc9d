#include "runtime/campaign.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "runtime/journal.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace mlec {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// 6 racks x 2 enclosures x 8 disks, hot enough that 64 one-year missions
/// see failures, catastrophes, and the occasional loss. Rack and enclosure
/// counts respect the (2+1)/(3+1) clustered-placement divisibility rules.
FleetSimConfig small_fleet() {
  FleetSimConfig cfg;
  cfg.dc.racks = 6;
  cfg.dc.enclosures_per_rack = 2;
  cfg.dc.disks_per_enclosure = 8;
  cfg.dc.disk_capacity_tb = 20.0;
  cfg.code = {{2, 1}, {3, 1}};
  cfg.failures.afr = 0.5;
  return cfg;
}

/// A hot 4-disk (3+1) pool: about 6 catastrophes per 100 missions.
LocalPoolSimConfig hot_pool() {
  LocalPoolSimConfig cfg;
  cfg.code = {3, 1};
  cfg.pool_disks = 4;
  cfg.afr = 0.5;
  return cfg;
}

/// A slot's value as raw words: the counter, the scalar's bits, or the bits
/// of the RunningStats moments.
template <typename Summary>
std::array<std::uint64_t, 5> slot_bits(const Summary& s, const Slot<Summary>& slot) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (slot.kind == SlotKind::kCounter) return {s.*slot.counter};
  if (slot.kind == SlotKind::kScalar) return {bits(s.*slot.scalar)};
  const RunningStats::Raw raw = (s.*slot.stats).raw();
  return {raw.n, bits(raw.mean), bits(raw.m2), bits(raw.min), bits(raw.max)};
}

/// Every slot the summary's schema declares, perf counters included, equal
/// bit for bit.
template <typename Summary>
void expect_identical(const Summary& a, const Summary& b) {
  for (const auto& slot : MissionSchema<Summary>::slots)
    EXPECT_EQ(slot_bits(a, slot), slot_bits(b, slot)) << slot.name;
}

TEST(CampaignAccumulator, RoundTripsThroughStream) {
  CampaignAccumulator acc;
  acc.counter("events") = 42;
  acc.scalar("tb") = 3.25;
  acc.stats("latency").add(1.0);
  acc.stats("latency").add(2.5);
  std::stringstream ss;
  acc.save(ss);
  const auto back = CampaignAccumulator::load(ss);
  EXPECT_TRUE(acc == back);
  EXPECT_EQ(back.counter("events"), 42u);
  EXPECT_EQ(back.scalar("tb"), 3.25);
  EXPECT_EQ(back.stats("latency").count(), 2u);
}

TEST(CampaignAccumulator, ConstLookupOfMissingSlotIsZero) {
  const CampaignAccumulator acc;
  EXPECT_EQ(acc.counter("nope"), 0u);
  EXPECT_EQ(acc.scalar("nope"), 0.0);
  EXPECT_EQ(acc.stats("nope").count(), 0u);
}

TEST(CampaignAccumulator, MergeRejectsMismatchedLayout) {
  CampaignAccumulator a;
  a.counter("x") = 1;
  CampaignAccumulator b;
  b.counter("y") = 2;
  EXPECT_THROW(a.merge(b), PreconditionError);
}

TEST(CampaignJournal, RoundTripsThroughFile) {
  CampaignJournal journal;
  journal.seed = 7;
  journal.total_units = 100;
  journal.block_units = 10;
  journal.fingerprint = fingerprint_of("workload-v1");
  journal.prefix_blocks = 3;
  journal.prefix.counter("missions") = 30;
  BlockRecord quarantined;
  quarantined.block = 1;  // inside the prefix: the prefix stepped over it
  quarantined.attempts = 3;
  quarantined.quarantined = true;
  journal.records.push_back(quarantined);
  BlockRecord done;
  done.block = 5;
  done.attempts = 1;
  done.acc.counter("missions") = 10;
  journal.records.push_back(done);

  const auto path = temp_path("journal_roundtrip.bin");
  journal.save_file(path);
  const auto back = CampaignJournal::load_file(path);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.total_units, 100u);
  EXPECT_EQ(back.block_units, 10u);
  EXPECT_EQ(back.fingerprint, journal.fingerprint);
  EXPECT_EQ(back.prefix_blocks, 3u);
  EXPECT_TRUE(back.prefix == journal.prefix);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].block, 1u);
  EXPECT_EQ(back.records[0].attempts, 3u);
  EXPECT_TRUE(back.records[0].quarantined);
  EXPECT_EQ(back.records[1].block, 5u);
  EXPECT_FALSE(back.records[1].quarantined);
  EXPECT_TRUE(back.records[1].acc == done.acc);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RejectsGarbage) {
  const auto path = temp_path("journal_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a journal at all";
  }
  EXPECT_THROW(CampaignJournal::load_file(path), PreconditionError);
  std::remove(path.c_str());
}

/// A journal with two completed blocks beyond the prefix, written through
/// the real save path so the damage tests below operate on genuine v3
/// framing.
std::string write_sample_journal(const std::string& name) {
  CampaignJournal journal;
  journal.seed = 21;
  journal.total_units = 64;
  journal.block_units = 16;
  journal.fingerprint = fingerprint_of("damage-tests");
  journal.prefix_blocks = 1;
  journal.prefix.counter("missions") = 16;
  for (std::uint64_t block = 2; block < 4; ++block) {
    BlockRecord rec;
    rec.block = block;
    rec.attempts = 1;
    rec.acc.counter("missions") = 16;
    journal.records.push_back(rec);
  }
  const auto path = temp_path(name);
  journal.save_file(path);
  return path;
}

TEST(CampaignJournal, RecoverOnIntactFileIsOk) {
  const auto path = write_sample_journal("journal_intact.bin");
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kOk);
  EXPECT_TRUE(result.usable());
  EXPECT_TRUE(result.warning.empty());
  EXPECT_EQ(result.journal.records.size(), 2u);
  EXPECT_EQ(result.journal.prefix_blocks, 1u);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RecoverTruncatedTailKeepsTheValidPrefix) {
  const auto path = write_sample_journal("journal_truncated.bin");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);  // tear the last record
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kRecovered);
  EXPECT_TRUE(result.usable());
  ASSERT_EQ(result.journal.records.size(), 1u);
  EXPECT_EQ(result.journal.records[0].block, 2u);
  EXPECT_NE(result.warning.find("kept 1 of 2 block records"), std::string::npos);
  // The strict path must keep refusing the same bytes.
  EXPECT_THROW(CampaignJournal::load_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RecoverBitFlipDropsTheDamagedRecord) {
  const auto path = write_sample_journal("journal_flipped.bin");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size - 10);  // inside the last record's payload
    char b = 0;
    f.seekg(size - 10);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(size - 10);
    f.write(&b, 1);
  }
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kRecovered);
  EXPECT_EQ(result.journal.records.size(), 1u);
  EXPECT_THROW(CampaignJournal::load_file(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RecoverBadMagicIsUnusable) {
  const auto path = write_sample_journal("journal_bad_magic.bin");
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.write("XXXX", 4);
  }
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kUnusable);
  EXPECT_FALSE(result.usable());
  EXPECT_FALSE(result.warning.empty());
  std::remove(path.c_str());
}

/// A file with the journal magic, format `version` and stale bytes after.
std::string write_old_format_journal(const std::string& name, std::uint32_t version) {
  const auto path = temp_path(name);
  std::ofstream out(path, std::ios::binary);
  out.write("MLECCAMP", 8);
  out.write(reinterpret_cast<const char*>(&version), 4);
  const std::string stale(40, '\0');
  out.write(stale.data(), static_cast<std::streamsize>(stale.size()));
  return path;
}

TEST(CampaignJournal, RecoverV1JournalReportsMigration) {
  const auto path = write_old_format_journal("journal_v1.bin", 1);
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kUnusable);
  EXPECT_NE(result.warning.find("v1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RecoverV2JournalReportsMigration) {
  // v2 journals hold per-shard RNG states, which mean nothing to a
  // block-indexed campaign.
  const auto path = write_old_format_journal("journal_v2.bin", 2);
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kUnusable);
  EXPECT_NE(result.warning.find("v2"), std::string::npos);
  EXPECT_NE(result.warning.find("not migrated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RecoverRejectsRecordsThatBreakTheBlockOrder) {
  // A completed block inside the prefix would be counted twice; the tail
  // from that record on is dropped.
  CampaignJournal journal;
  journal.seed = 1;
  journal.total_units = 64;
  journal.block_units = 16;
  journal.prefix_blocks = 2;
  BlockRecord inside;
  inside.block = 1;
  journal.records.push_back(inside);
  std::stringstream bytes;
  journal.save(bytes);
  const auto result = CampaignJournal::recover(bytes);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kRecovered);
  EXPECT_TRUE(result.journal.records.empty());
  EXPECT_NE(result.warning.find("inside the prefix"), std::string::npos);
}

TEST(CampaignJournal, RecoverMissingFile) {
  const auto result = CampaignJournal::recover_file(temp_path("journal_never_written.bin"));
  EXPECT_EQ(result.status, JournalLoadResult::Status::kMissing);
  EXPECT_FALSE(result.usable());
}

TEST(Campaign, RunsToCompletionWithoutCheckpointing) {
  CampaignConfig cfg;
  cfg.total_units = 100;
  cfg.seed = 11;
  cfg.shards = 4;  // a cap: without a pool one worker runs every block
  cfg.checkpoint_every = 8;
  auto factory = [](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    return [&rng](CampaignAccumulator& acc) {
      ++acc.counter("units");
      if (rng.uniform() < 0.25) ++acc.counter("hits");
    };
  };
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_EQ(acc.counter("units"), 100u);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.truncated);
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.quarantined, 0u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].attempts, 1u);
  EXPECT_EQ(report.shards[0].done, 100u);
}

TEST(Campaign, UnitBudgetTruncatesAtBatchBoundaries) {
  // The budget caps the blocks claimed, so on any worker count the run
  // stops after exactly the first 32 units.
  CampaignConfig cfg;
  cfg.total_units = 64;
  cfg.seed = 5;
  cfg.checkpoint_every = 4;
  cfg.unit_budget = 30;  // rounds up to whole blocks
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator& acc) { ++acc.counter("units"); };
  };
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    CampaignRunner runner(cfg, factory);
    const auto [acc, report] = runner.run(&pool);
    EXPECT_TRUE(report.truncated);
    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.units_done, 32u);
    EXPECT_EQ(acc.counter("units"), 32u);
  }
}

TEST(Campaign, StopTokenTruncates) {
  StopSource source;
  source.request_stop();
  CampaignConfig cfg;
  cfg.total_units = 64;
  cfg.seed = 5;
  cfg.stop = source.token();
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator& acc) { ++acc.counter("units"); };
  };
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.units_done, 0u);
}

/// Every unit adds one uniform draw, so the result pins the streams.
CampaignRunner::WorkerFactory drawing_factory() {
  return [](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    return [&rng](CampaignAccumulator& acc) {
      ++acc.counter("units");
      acc.scalar("sum") += rng.uniform();
    };
  };
}

TEST(Campaign, HealedFaultIsBitIdenticalToCleanRun) {
  // Two injected throws against max_attempts = 3: each hit block reruns its
  // own substream from the start on a fresh workload, so the result equals
  // the fault-free run bit for bit, on one worker or four.
  CampaignConfig cfg;
  cfg.total_units = 64;
  cfg.seed = 9;
  cfg.checkpoint_every = 4;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 0.0;
  const auto [clean, clean_report] = CampaignRunner(cfg, drawing_factory()).run();
  ASSERT_TRUE(clean_report.complete());
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    fault::configure("pool.task.throw=throw@first=2");
    const auto [healed, report] = CampaignRunner(cfg, drawing_factory()).run(&pool);
    fault::clear();
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.quarantined, 0u);
    std::uint32_t attempts = 0;
    for (const auto& w : report.shards) attempts += w.attempts;
    EXPECT_GE(attempts, 3u);  // at least two rebuilt workloads
    EXPECT_TRUE(healed == clean);
  }
}

TEST(Campaign, PersistentlyFailingShardIsQuarantined) {
  // Three injected throws exhaust block 0's attempts: it is quarantined,
  // the prefix steps over it, and every other block survives the fold.
  CampaignConfig cfg;
  cfg.total_units = 64;
  cfg.seed = 9;
  cfg.checkpoint_every = 4;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 0.0;
  fault::configure("pool.task.throw=throw@first=3");
  CampaignRunner runner(cfg, drawing_factory());
  const auto [acc, report] = runner.run();
  fault::clear();
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_TRUE(report.degraded());
  EXPECT_FALSE(report.complete());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.units_done, 60u);
  EXPECT_EQ(acc.counter("units"), 60u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].attempts, 4u);  // three failures, then one clean
  EXPECT_NE(report.shards[0].error.find("pool.task.throw"), std::string::npos)
      << report.shards[0].error;
}

TEST(Campaign, WorkerRetiresAfterQuarantiningBlocksInARow) {
  // A workload that can never run quarantines two blocks, then its worker
  // retires instead of grinding through every remaining block.
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator&) { throw std::runtime_error("cursed workload"); };
  };
  CampaignConfig cfg;
  cfg.total_units = 4000;
  cfg.seed = 9;
  cfg.checkpoint_every = 4;
  cfg.max_attempts = 2;
  cfg.retry_backoff_ms = 0.0;
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_EQ(report.units_done, 0u);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.shards[0].attempts, 4u);
  EXPECT_EQ(report.shards[0].error, "cursed workload");
}

TEST(Campaign, WatchdogTimesOutHungShardAndRetrySucceeds) {
  // The worker's first attempt stalls ~80 ms per unit against a 40 ms
  // watchdog deadline; the watchdog flags the attempt, the worker raises a
  // timeout at the next block start, and the retry (which does not stall)
  // finishes the campaign cleanly.
  auto first_attempt_stalls = std::make_shared<std::atomic<bool>>(true);
  auto factory = [first_attempt_stalls](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    const bool stall = first_attempt_stalls->exchange(false);
    return [stall](CampaignAccumulator& acc) {
      if (stall) std::this_thread::sleep_for(std::chrono::milliseconds(80));
      ++acc.counter("units");
    };
  };
  CampaignConfig cfg;
  cfg.total_units = 16;
  cfg.seed = 17;
  cfg.checkpoint_every = 2;
  cfg.shard_timeout_s = 0.04;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 0.0;
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(acc.counter("units"), 16u);
  EXPECT_EQ(report.quarantined, 0u);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_GE(report.shards[0].attempts, 2u);
  EXPECT_GE(report.shards[0].timeouts, 1u);
}

TEST(Campaign, WorkersWaitWithinTheWindowOfAStalledPrefix) {
  // The first unit to run stalls for 100 ms. Its block is among the first
  // claimed, so the other workers may finish at most a window of blocks
  // past it (one unit each here) before they wait for the prefix; without
  // the window they would run the rest of the campaign meanwhile.
  constexpr std::size_t kWorkers = 4;
  auto done = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto ahead = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto stalled = std::make_shared<std::atomic<bool>>(false);
  auto factory = [=](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [=](CampaignAccumulator& acc) {
      if (!stalled->exchange(true)) {
        const std::uint64_t before = done->load();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ahead->store(done->load() - before);
      }
      ++acc.counter("units");
      done->fetch_add(1);
    };
  };
  CampaignConfig cfg;
  cfg.total_units = 20000;
  cfg.seed = 3;
  cfg.checkpoint_every = 1;
  ThreadPool pool(kWorkers);
  const auto [acc, report] = CampaignRunner(cfg, factory).run(&pool);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(acc.counter("units"), cfg.total_units);
  EXPECT_LE(ahead->load(), (kCampaignWindowBlocksPerWorker + 1) * kWorkers);
}

TEST(Campaign, ResumeFromDamagedJournalStartsFreshWithWarning) {
  // A resume pointed at an unusable journal must not abort: it starts fresh
  // and surfaces the damage in the report.
  const auto path = temp_path("journal_unusable_resume.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a journal";
  }
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator& acc) { ++acc.counter("units"); };
  };
  CampaignConfig cfg;
  cfg.total_units = 16;
  cfg.seed = 3;
  cfg.checkpoint_path = path;
  cfg.resume = true;
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(acc.counter("units"), 16u);
  EXPECT_FALSE(report.resumed);
  EXPECT_NE(report.resume_warning.find("starting fresh"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Campaign, AdaptiveStoppingConvergesEarly) {
  auto factory = [](std::uint32_t, Rng& rng) -> CampaignRunner::UnitRunner {
    return [&rng](CampaignAccumulator& acc) {
      ++acc.counter("trials");
      if (rng.uniform() < 0.5) ++acc.counter("successes");
    };
  };
  auto rse = [](const CampaignAccumulator& merged) {
    return bernoulli_rse(merged.counter("successes"), merged.counter("trials"));
  };
  CampaignConfig cfg;
  cfg.total_units = 1'000'000;
  cfg.seed = 13;
  cfg.checkpoint_every = 64;
  cfg.target_rse = 0.05;  // ~200 successes, ~400 trials: far below a million
  CampaignRunner runner(cfg, factory, rse);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.truncated);
  EXPECT_FALSE(report.complete());
  EXPECT_LT(report.units_done, 100'000u);
  EXPECT_GT(report.units_done, 0u);
  EXPECT_LE(report.achieved_rse, cfg.target_rse);
}

TEST(Campaign, ResumeRefusesMismatchedWorkload) {
  const auto path = temp_path("journal_mismatch.bin");
  std::remove(path.c_str());
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator& acc) { ++acc.counter("units"); };
  };
  CampaignConfig cfg;
  cfg.total_units = 16;
  cfg.seed = 3;
  cfg.checkpoint_path = path;
  cfg.fingerprint = "workload-A";
  CampaignRunner(cfg, factory).run();

  cfg.resume = true;
  cfg.fingerprint = "workload-B";
  CampaignRunner resumed(cfg, factory);
  EXPECT_THROW(resumed.run(), PreconditionError);
  std::remove(path.c_str());
}

// The campaign tests every mission engine must pass, written once over the
// engine's case below and instantiated per engine.

struct FleetCase {
  static FleetSimConfig config() { return small_fleet(); }
  static FleetSimConfig changed(FleetSimConfig cfg) {
    cfg.failures.afr = 0.51;
    return cfg;
  }
  static std::string fingerprint(const FleetSimConfig& cfg) {
    return fleet_campaign_fingerprint(cfg);
  }
  static auto run(const FleetSimConfig& cfg, const CampaignConfig& campaign,
                  ThreadPool* pool = nullptr) {
    return run_fleet_campaign(cfg, campaign, pool);
  }
  /// Lossy enough that the PDL estimate reaches kTargetRse in a few dozen
  /// blocks.
  static FleetSimConfig hot() {
    FleetSimConfig cfg = small_fleet();
    cfg.failures.afr = 2.0;
    return cfg;
  }
  static constexpr double kTargetRse = 0.3;
  static constexpr std::uint64_t kUnits = 64;
  static constexpr std::uint64_t kBatch = 4;
};

struct LocalPoolCase {
  static LocalPoolSimConfig config() { return hot_pool(); }
  static LocalPoolSimConfig changed(LocalPoolSimConfig cfg) {
    cfg.afr = 0.51;
    return cfg;
  }
  static std::string fingerprint(const LocalPoolSimConfig& cfg) {
    return local_pool_campaign_fingerprint(cfg);
  }
  static auto run(const LocalPoolSimConfig& cfg, const CampaignConfig& campaign,
                  ThreadPool* pool = nullptr) {
    return run_local_pool_campaign(cfg, campaign, pool);
  }
  static LocalPoolSimConfig hot() { return hot_pool(); }
  static constexpr double kTargetRse = 0.1;
  static constexpr std::uint64_t kUnits = 2048;
  static constexpr std::uint64_t kBatch = 64;
};

/// A summary whose every slot holds a distinct non-zero value.
template <typename Summary>
Summary filled_summary() {
  Summary s;
  double v = 1.0;
  for (const auto& slot : MissionSchema<Summary>::slots) {
    v += 1.0;
    if (slot.kind == SlotKind::kCounter) s.*slot.counter = static_cast<std::uint64_t>(v);
    if (slot.kind == SlotKind::kScalar) s.*slot.scalar = v + 0.25;
    if (slot.kind != SlotKind::kStats) continue;
    (s.*slot.stats).add(v);
    (s.*slot.stats).add(3.5 * v);
  }
  return s;
}

template <typename Summary>
void expect_schema_round_trip() {
  const Summary s = filled_summary<Summary>();
  CampaignAccumulator acc;
  SlotBinding<Summary>(acc).fold(s);
  expect_identical(summary_from<Summary>(acc), s);
  // ...and through the journal's accumulator serialization.
  std::stringstream journal;
  acc.save(journal);
  expect_identical(summary_from<Summary>(CampaignAccumulator::load(journal)), s);
}

TEST(FleetCampaign, MatchesAdapterRoundTrip) {
  expect_schema_round_trip<FleetSimResult>();
}
TEST(LocalPoolCampaign, MatchesAdapterRoundTrip) {
  expect_schema_round_trip<LocalPoolSummary>();
}

template <typename Case>
void expect_kill_and_resume_bit_identical(const std::string& name) {
  const auto path = temp_path(name + "_resume.bin");
  std::remove(path.c_str());
  const auto cfg = Case::config();
  const std::uint64_t missions = Case::kUnits;

  CampaignConfig uninterrupted;
  uninterrupted.total_units = missions;
  uninterrupted.seed = 2023;
  uninterrupted.checkpoint_every = Case::kBatch;
  const auto full = Case::run(cfg, uninterrupted);
  EXPECT_TRUE(full.report.complete());
  EXPECT_FALSE(full.report.truncated);
  EXPECT_GT(full.summary.events_processed, 0u);

  // "Kill" the campaign halfway through via a deterministic unit budget...
  CampaignConfig first_half = uninterrupted;
  first_half.checkpoint_path = path;
  first_half.unit_budget = missions / 2;
  const auto partial = Case::run(cfg, first_half);
  EXPECT_TRUE(partial.report.truncated);
  EXPECT_FALSE(partial.report.complete());
  EXPECT_EQ(partial.report.units_done, missions / 2);

  // ...then resume from the journal on four workers and finish.
  CampaignConfig second_half = uninterrupted;
  second_half.checkpoint_path = path;
  second_half.resume = true;
  ThreadPool pool(4);
  const auto resumed = Case::run(cfg, second_half, &pool);
  EXPECT_TRUE(resumed.report.resumed);
  EXPECT_TRUE(resumed.report.complete());
  EXPECT_FALSE(resumed.report.truncated);

  expect_identical(resumed.summary, full.summary);
  std::remove(path.c_str());
}

TEST(FleetCampaign, KillAndResumeIsBitIdenticalToUninterruptedRun) {
  expect_kill_and_resume_bit_identical<FleetCase>("fleet");
}
TEST(LocalPoolCampaign, KillAndResumeIsBitIdenticalToUninterruptedRun) {
  expect_kill_and_resume_bit_identical<LocalPoolCase>("localpool");
}

/// The same campaign on no pool, on one thread and on four (with and
/// without a worker cap) gives the same summary bit for bit: the block,
/// not the worker, owns the randomness.
template <typename Case>
void expect_worker_count_independent() {
  const auto cfg = Case::config();
  CampaignConfig campaign;
  campaign.total_units = Case::kUnits;
  campaign.seed = 31;
  campaign.checkpoint_every = Case::kBatch;
  const auto serial = Case::run(cfg, campaign);
  ASSERT_TRUE(serial.report.complete());
  for (std::size_t threads : {1, 4}) {
    for (std::size_t cap : {0, 3}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", cap " + std::to_string(cap));
      ThreadPool pool(threads);
      campaign.shards = cap;
      const auto parallel = Case::run(cfg, campaign, &pool);
      EXPECT_TRUE(parallel.report.complete());
      EXPECT_EQ(parallel.report.shards.size(), cap > 0 ? std::min(cap, threads) : threads);
      expect_identical(parallel.summary, serial.summary);
    }
  }
}

TEST(FleetCampaign, ResultIsIndependentOfTheWorkerCount) {
  expect_worker_count_independent<FleetCase>();
}
TEST(LocalPoolCampaign, ResultIsIndependentOfTheWorkerCount) {
  expect_worker_count_independent<LocalPoolCase>();
}

/// Adaptive stopping answers with the first block prefix that meets the
/// target: the same sample count and bits on one thread or four, and after
/// a kill and resume.
template <typename Case>
void expect_target_rse_stop_deterministic(const std::string& name) {
  const auto cfg = Case::hot();
  CampaignConfig campaign;
  campaign.total_units = 1'000'000;
  campaign.seed = 57;
  campaign.checkpoint_every = Case::kBatch;
  campaign.target_rse = Case::kTargetRse;
  ThreadPool one(1);
  const auto reference = Case::run(cfg, campaign, &one);
  ASSERT_TRUE(reference.report.converged);
  EXPECT_LE(reference.report.achieved_rse, Case::kTargetRse);
  const std::uint64_t stopped_at = reference.report.units_done;
  ASSERT_EQ(stopped_at % Case::kBatch, 0u);
  ASSERT_GE(stopped_at, 4 * Case::kBatch) << "too few blocks to interrupt";
  EXPECT_EQ(reference.summary.missions, stopped_at);

  ThreadPool four(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto parallel = Case::run(cfg, campaign, &four);
    EXPECT_TRUE(parallel.report.converged);
    EXPECT_EQ(parallel.report.units_done, stopped_at);
    expect_identical(parallel.summary, reference.summary);
  }

  // Kill halfway to the stopping point, then resume on four workers: the
  // resumed run stops at the same block with the same bits.
  const auto path = temp_path(name + "_rse_resume.bin");
  std::remove(path.c_str());
  CampaignConfig first = campaign;
  first.checkpoint_path = path;
  first.unit_budget = stopped_at / 2;
  const auto partial = Case::run(cfg, first, &one);
  EXPECT_TRUE(partial.report.truncated);
  EXPECT_FALSE(partial.report.converged);
  CampaignConfig second = campaign;
  second.checkpoint_path = path;
  second.resume = true;
  const auto resumed = Case::run(cfg, second, &four);
  EXPECT_TRUE(resumed.report.resumed);
  EXPECT_TRUE(resumed.report.converged);
  EXPECT_EQ(resumed.report.units_done, stopped_at);
  expect_identical(resumed.summary, reference.summary);
  std::remove(path.c_str());
}

TEST(FleetCampaign, TargetRseStopsAtTheSameBlockOnAnyWorkerCount) {
  expect_target_rse_stop_deterministic<FleetCase>("fleet");
}
TEST(LocalPoolCampaign, TargetRseStopsAtTheSameBlockOnAnyWorkerCount) {
  expect_target_rse_stop_deterministic<LocalPoolCase>("localpool");
}

#ifndef _WIN32
/// The crash-recovery acceptance sweep: kill the campaign (std::_Exit, no
/// flushing — a simulated power cut) at EVERY checkpoint boundary in turn,
/// resume from whatever journal survived, and require the final result
/// bit-identical to an uninterrupted run. Forked children never touch the
/// thread pool (single-threaded campaigns), so fork stays safe.
template <typename Case>
void expect_crash_at_every_checkpoint_resumes_bit_identical(const std::string& name) {
  const auto cfg = Case::config();
  CampaignConfig options;
  options.total_units = Case::kUnits / 2;
  options.seed = 404;
  options.checkpoint_every = Case::kBatch;
  const auto full = Case::run(cfg, options);
  ASSERT_TRUE(full.report.complete());

  int boundaries_hit = 0;
  for (int hit = 1; hit <= 64; ++hit) {
    const auto path = temp_path(name + "_crash_at_" + std::to_string(hit) + ".bin");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: crash on the hit-th completed checkpoint. _Exit codes: 42 is
      // the injected crash, 64 means the run outlived the schedule (no more
      // boundaries to kill), anything else is a real failure.
      fault::configure("campaign.checkpoint.post=crash@hit=" + std::to_string(hit));
      CampaignConfig child = options;
      child.checkpoint_path = path;
      try {
        (void)Case::run(cfg, child);
        std::_Exit(64);
      } catch (...) {
        std::_Exit(65);
      }
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    const int code = WEXITSTATUS(status);
    if (code == 64) break;  // past the last checkpoint: sweep complete
    ASSERT_EQ(code, 42) << "child failed for a reason other than the injected crash";
    ++boundaries_hit;

    CampaignConfig resume = options;
    resume.checkpoint_path = path;
    resume.resume = true;
    const auto resumed = Case::run(cfg, resume);
    EXPECT_TRUE(resumed.report.complete()) << "crash at checkpoint " << hit;
    expect_identical(resumed.summary, full.summary);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  // The sweep must have actually exercised crash points (at least 8
  // blocks, plus the final save).
  EXPECT_GE(boundaries_hit, 4);
}

TEST(FleetCampaign, CrashAtEveryCheckpointBoundaryResumesBitIdentical) {
  expect_crash_at_every_checkpoint_resumes_bit_identical<FleetCase>("fleet");
}
TEST(LocalPoolCampaign, CrashAtEveryCheckpointBoundaryResumesBitIdentical) {
  expect_crash_at_every_checkpoint_resumes_bit_identical<LocalPoolCase>("localpool");
}
#endif  // !_WIN32

template <typename Case>
void expect_fingerprint_tracks_physics() {
  const auto base = Case::config();
  EXPECT_NE(Case::fingerprint(base), Case::fingerprint(Case::changed(base)));
  EXPECT_EQ(Case::fingerprint(base), Case::fingerprint(Case::config()));
}

TEST(FleetCampaign, FingerprintTracksPhysicsChanges) {
  expect_fingerprint_tracks_physics<FleetCase>();
}
TEST(LocalPoolCampaign, FingerprintTracksPhysicsChanges) {
  expect_fingerprint_tracks_physics<LocalPoolCase>();
}

TEST(FleetCampaign, AdaptiveStoppingOnPdl) {
  auto cfg = small_fleet();
  cfg.failures.afr = 2.0;  // lossy enough that the PDL estimate converges fast
  CampaignConfig options;
  options.total_units = 100'000;
  options.seed = 77;
  options.checkpoint_every = 8;
  options.target_rse = 0.5;
  const auto out = run_fleet_campaign(cfg, options);
  EXPECT_TRUE(out.report.converged);
  EXPECT_FALSE(out.report.truncated);
  EXPECT_LT(out.report.units_done, 100'000u);
  EXPECT_GT(out.summary.data_loss_missions, 0u);
}

TEST(LocalPoolCampaign, BlockMatchesSimulateLocalPoolOnItsSubstream) {
  // Block b draws from Rng::for_substream(seed, b), so a campaign of 16
  // blocks runs exactly simulate_local_pool's missions on substreams
  // 0..15, folded in that order.
  const LocalPoolSimConfig cfg = hot_pool();
  const std::uint64_t block = 200;
  const std::uint64_t blocks = 16;
  const std::uint64_t seed = 42;
  CampaignConfig campaign;
  campaign.total_units = blocks * block;
  campaign.seed = seed;
  campaign.checkpoint_every = block;
  ThreadPool pool(3);
  const auto summary = run_local_pool_campaign(cfg, campaign, &pool).summary;

  std::uint64_t missions = 0, catastrophes = 0, events = 0, draws = 0;
  double pool_years = 0.0;
  RunningStats frac, unrebuilt;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    Rng rng = Rng::for_substream(seed, b);
    const auto direct = simulate_local_pool(cfg, block, rng);
    missions += direct.missions;
    catastrophes += direct.catastrophes;
    events += direct.events_processed;
    draws += direct.rng_draws;
    pool_years += direct.pool_years;
    // Per-catastrophe statistics are added in mission order within a block
    // and merged block by block.
    RunningStats block_frac, block_unrebuilt;
    for (const auto& s : direct.samples) {
      block_frac.add(s.lost_stripe_fraction);
      block_unrebuilt.add(s.unrebuilt_tb);
    }
    frac.merge(block_frac);
    unrebuilt.merge(block_unrebuilt);
  }
  ASSERT_GT(catastrophes, 0u);
  EXPECT_EQ(summary.missions, missions);
  EXPECT_EQ(summary.catastrophes, catastrophes);
  EXPECT_EQ(summary.events_processed, events);
  EXPECT_EQ(summary.rng_draws, draws);
  EXPECT_TRUE(summary.lost_stripe_fraction == frac);
  EXPECT_TRUE(summary.unrebuilt_tb == unrebuilt);
  // The campaign sums per-mission pool-years where the direct run multiplies
  // once, so these agree up to rounding.
  EXPECT_DOUBLE_EQ(summary.pool_years, pool_years);
}

/// Run half of a checkpointed campaign, restamp its journal as if an older
/// RNG schedule had written it (the identity's version prefix `current`
/// replaced by `old`), and expect the resume to refuse it.
template <typename Config, typename Run>
void expect_old_schedule_refused(const std::string& name, const Config& cfg,
                                 const std::string& identity, const std::string& current,
                                 const std::string& old, Run run) {
  SCOPED_TRACE(name);
  ASSERT_EQ(identity.rfind(current + ";", 0), 0u) << identity;
  const auto path = temp_path(name + "_" + old + "_journal.bin");
  std::remove(path.c_str());
  CampaignConfig campaign;
  campaign.total_units = 64;
  campaign.seed = 5;
  campaign.checkpoint_every = 4;
  campaign.checkpoint_path = path;
  campaign.unit_budget = 32;
  (void)run(cfg, campaign);

  CampaignJournal journal = CampaignJournal::load_file(path);
  ASSERT_EQ(journal.fingerprint, fingerprint_of(identity));
  journal.fingerprint = fingerprint_of(old + identity.substr(current.size()));
  journal.save_file(path);

  campaign.resume = true;
  campaign.unit_budget = 0;
  try {
    (void)run(cfg, campaign);
    ADD_FAILURE() << "resumed a " << old << " journal";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("different workload configuration"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Campaign, ResumeRefusesJournalsOfTheInverseCdfSampler) {
  // Journals written before exponential gaps came from the ziggurat hold
  // RNG states of another draw schedule; resuming one would silently mix
  // two streams.
  const auto fleet = small_fleet();
  expect_old_schedule_refused(
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v8", "fleet-v2",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });

  const LocalPoolSimConfig pool = hot_pool();
  expect_old_schedule_refused("localpool", pool, local_pool_campaign_fingerprint(pool),
                              "localpool-v5", "localpool-v1",
                              [](const LocalPoolSimConfig& c, const CampaignConfig& k) {
                                return run_local_pool_campaign(c, k);
                              });
}

TEST(Campaign, ResumeRefusesJournalsOfTheSteppedClusteredClock) {
  // Journals written while clustered rebuilds were stepped segment by
  // segment hold statistics that differ in their last bits, and stage-1
  // journals count detections and completions as events.
  const auto fleet = small_fleet();
  expect_old_schedule_refused(
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v8", "fleet-v3",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });

  const LocalPoolSimConfig pool = hot_pool();
  expect_old_schedule_refused("localpool", pool, local_pool_campaign_fingerprint(pool),
                              "localpool-v5", "localpool-v2",
                              [](const LocalPoolSimConfig& c, const CampaignConfig& k) {
                                return run_local_pool_campaign(c, k);
                              });
}

TEST(Campaign, ResumeRefusesJournalsOfTheFleetWideFailureStream) {
  // Fleet journals written while one failure stream fed the whole fleet
  // hold RNG states of another draw schedule (and an arena_allocations
  // slot); stage-1 journals count declustered detections and completions
  // as events.
  const auto fleet = small_fleet();
  expect_old_schedule_refused(
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v8", "fleet-v5",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });

  const LocalPoolSimConfig pool = hot_pool();
  expect_old_schedule_refused("localpool", pool, local_pool_campaign_fingerprint(pool),
                              "localpool-v5", "localpool-v4",
                              [](const LocalPoolSimConfig& c, const CampaignConfig& k) {
                                return run_local_pool_campaign(c, k);
                              });
}

TEST(Campaign, ResumeRefusesFleetJournalsWithADiskFailuresSlot) {
  // fleet-v6 journals carry a disk_failures counter the summary no longer
  // has; their draws are the same, but the slot layout is not.
  const auto fleet = small_fleet();
  expect_old_schedule_refused(
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v8", "fleet-v6",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });
}

TEST(Campaign, ResumeRefusesFleetJournalsWithADataLossEventsSlot) {
  // fleet-v7 journals carry a data_loss_events counter, written while a
  // mission could run on past its first loss; the slot layout differs.
  const auto fleet = small_fleet();
  expect_old_schedule_refused(
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v8", "fleet-v7",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });
}

/// fingerprint_of over a file's bytes.
std::uint64_t file_bytes_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return fingerprint_of(bytes.str());
}

TEST(Campaign, JournalBytesArePinned) {
  // A journal is the resume contract: slot names, their order and every
  // accumulated value of a finished campaign must reproduce byte for byte,
  // or journals written by an earlier build stop resuming.
  CampaignConfig campaign;
  campaign.total_units = 48;
  campaign.seed = 1717;
  campaign.checkpoint_every = 8;
  campaign.checkpoint_path = temp_path("pinned_fleet.bin");
  std::remove(campaign.checkpoint_path.c_str());
  FleetSimConfig fleet = small_fleet();
  fleet.failures.afr = 2.0;  // a few losses, so every fleet slot holds data
  ASSERT_TRUE(run_fleet_campaign(fleet, campaign).report.complete());
  EXPECT_EQ(file_bytes_hash(campaign.checkpoint_path), 0x75193f6f997b4515ULL);
  std::remove(campaign.checkpoint_path.c_str());

  LocalPoolSimConfig pool;
  pool.code = {3, 1};
  pool.pool_disks = 4;
  pool.afr = 0.5;
  campaign.total_units = 3000;
  campaign.checkpoint_every = 256;
  campaign.checkpoint_path = temp_path("pinned_localpool.bin");
  std::remove(campaign.checkpoint_path.c_str());
  ASSERT_TRUE(run_local_pool_campaign(pool, campaign).report.complete());
  EXPECT_EQ(file_bytes_hash(campaign.checkpoint_path), 0xe82beb2d01d0aecfULL);
  std::remove(campaign.checkpoint_path.c_str());
}

}  // namespace
}  // namespace mlec
