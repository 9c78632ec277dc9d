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
  journal.shards = 1;
  journal.fingerprint = fingerprint_of("workload-v1");
  ShardRecord rec;
  rec.shard = 0;  // v2 validates shard ids against the header's shard count
  rec.attempt = 2;
  rec.assigned = 50;
  rec.done = 30;
  rec.rng_state = {1, 2, 3, 4};
  rec.acc.counter("missions") = 30;
  journal.records.push_back(rec);

  const auto path = temp_path("journal_roundtrip.bin");
  journal.save_file(path);
  const auto back = CampaignJournal::load_file(path);
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.total_units, 100u);
  EXPECT_EQ(back.shards, 1u);
  EXPECT_EQ(back.fingerprint, journal.fingerprint);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].shard, 0u);
  EXPECT_EQ(back.records[0].rng_state, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_TRUE(back.records[0].acc == rec.acc);
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

/// A journal with two shard records, written through the real save path so
/// the damage tests below operate on genuine v2 framing.
std::string write_sample_journal(const std::string& name) {
  CampaignJournal journal;
  journal.seed = 21;
  journal.total_units = 64;
  journal.shards = 2;
  journal.fingerprint = fingerprint_of("damage-tests");
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    ShardRecord rec;
    rec.shard = shard;
    rec.attempt = 1;
    rec.assigned = 32;
    rec.done = 16;
    rec.rng_state = {shard + 1ull, 2, 3, 4};
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
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records_dropped, 0u);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RecoverTruncatedTailKeepsTheValidPrefix) {
  const auto path = write_sample_journal("journal_truncated.bin");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);  // tear the last record
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kRecovered);
  EXPECT_TRUE(result.usable());
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].shard, 0u);
  EXPECT_EQ(result.records_dropped, 1u);
  EXPECT_NE(result.warning.find("dropped"), std::string::npos);
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
  EXPECT_EQ(result.records.size(), 1u);
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

TEST(CampaignJournal, RecoverV1JournalReportsMigration) {
  const auto path = temp_path("journal_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("MLECCAMP", 8);
    const std::uint32_t v1 = 1;
    out.write(reinterpret_cast<const char*>(&v1), 4);
    const std::string stale(40, '\0');
    out.write(stale.data(), static_cast<std::streamsize>(stale.size()));
  }
  const auto result = CampaignJournal::recover_file(path);
  EXPECT_EQ(result.status, JournalLoadResult::Status::kUnusable);
  EXPECT_NE(result.warning.find("v1"), std::string::npos);
  std::remove(path.c_str());
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
  cfg.shards = 4;
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
  EXPECT_EQ(report.quarantined(), 0u);
  ASSERT_EQ(report.shards.size(), 4u);
  for (const auto& s : report.shards) {
    EXPECT_EQ(s.attempts, 1u);
    EXPECT_EQ(s.done, s.assigned);
  }
}

TEST(Campaign, UnitBudgetTruncatesAtBatchBoundaries) {
  CampaignConfig cfg;
  cfg.total_units = 64;
  cfg.seed = 5;
  cfg.shards = 4;
  cfg.checkpoint_every = 4;
  cfg.unit_budget = 32;
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator& acc) { ++acc.counter("units"); };
  };
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.truncated);
  EXPECT_FALSE(report.complete());
  EXPECT_GE(report.units_done, 32u);
  EXPECT_LT(report.units_done, 64u);
  EXPECT_EQ(acc.counter("units"), report.units_done);
}

TEST(Campaign, StopTokenTruncates) {
  StopSource source;
  source.request_stop();
  CampaignConfig cfg;
  cfg.total_units = 64;
  cfg.seed = 5;
  cfg.shards = 2;
  cfg.stop = source.token();
  auto factory = [](std::uint32_t, Rng&) -> CampaignRunner::UnitRunner {
    return [](CampaignAccumulator& acc) { ++acc.counter("units"); };
  };
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.units_done, 0u);
}

TEST(Campaign, FailingShardIsRetriedOnFreshSubstream) {
  // Shard 1's first attempt dies mid-stream; the retry must succeed and the
  // campaign must report the extra attempt without quarantining.
  auto first_attempt_poisoned = std::make_shared<std::atomic<bool>>(true);
  auto factory = [first_attempt_poisoned](std::uint32_t shard,
                                          Rng&) -> CampaignRunner::UnitRunner {
    const bool poison = shard == 1 && first_attempt_poisoned->exchange(false);
    auto count = std::make_shared<std::uint64_t>(0);
    return [poison, count](CampaignAccumulator& acc) {
      if (poison && ++*count == 3) throw std::runtime_error("disk on fire");
      ++acc.counter("units");
    };
  };
  CampaignConfig cfg;
  cfg.total_units = 40;
  cfg.seed = 9;
  cfg.shards = 4;
  cfg.checkpoint_every = 2;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 0.0;
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(acc.counter("units"), 40u);
  EXPECT_EQ(report.quarantined(), 0u);
  EXPECT_EQ(report.shards[1].attempts, 2u);
  EXPECT_EQ(report.shards[1].error, "disk on fire");
  EXPECT_EQ(report.shards[0].attempts, 1u);
}

TEST(Campaign, PersistentlyFailingShardIsQuarantined) {
  auto factory = [](std::uint32_t shard, Rng&) -> CampaignRunner::UnitRunner {
    return [shard](CampaignAccumulator& acc) {
      if (shard == 2) throw std::runtime_error("cursed shard");
      ++acc.counter("units");
    };
  };
  CampaignConfig cfg;
  cfg.total_units = 40;
  cfg.seed = 9;
  cfg.shards = 4;
  cfg.max_attempts = 2;
  cfg.retry_backoff_ms = 0.0;
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_TRUE(report.shards[2].quarantined);
  EXPECT_EQ(report.shards[2].attempts, 2u);
  EXPECT_EQ(report.shards[2].error, "cursed shard");
  EXPECT_EQ(report.shards[2].done, 0u);
  // The other three shards completed and their units survived the merge.
  EXPECT_EQ(acc.counter("units"), 30u);
  EXPECT_FALSE(report.complete());
}

TEST(Campaign, WatchdogTimesOutHungShardAndRetrySucceeds) {
  // Shard 0's first attempt stalls ~80 ms per unit against a 40 ms watchdog
  // deadline; the watchdog flags the attempt, the shard raises a timeout at
  // the next batch boundary, and the retry (which does not stall) finishes
  // the campaign cleanly.
  auto first_attempt_stalls = std::make_shared<std::atomic<bool>>(true);
  auto factory = [first_attempt_stalls](std::uint32_t shard,
                                        Rng&) -> CampaignRunner::UnitRunner {
    const bool stall = shard == 0 && first_attempt_stalls->exchange(false);
    return [stall](CampaignAccumulator& acc) {
      if (stall) std::this_thread::sleep_for(std::chrono::milliseconds(80));
      ++acc.counter("units");
    };
  };
  CampaignConfig cfg;
  cfg.total_units = 16;
  cfg.seed = 17;
  cfg.shards = 2;
  cfg.checkpoint_every = 2;
  cfg.shard_timeout_s = 0.04;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 0.0;
  CampaignRunner runner(cfg, factory);
  const auto [acc, report] = runner.run();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(acc.counter("units"), 16u);
  EXPECT_EQ(report.quarantined(), 0u);
  EXPECT_GE(report.shards[0].attempts, 2u);
  EXPECT_GE(report.shards[0].timeouts, 1u);
  EXPECT_EQ(report.shards[1].timeouts, 0u);
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
  cfg.shards = 2;
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
  cfg.shards = 4;
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
  cfg.shards = 2;
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
  static auto run(const FleetSimConfig& cfg, const CampaignConfig& campaign) {
    return run_fleet_campaign(cfg, campaign);
  }
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
  static auto run(const LocalPoolSimConfig& cfg, const CampaignConfig& campaign) {
    return run_local_pool_campaign(cfg, campaign);
  }
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
  uninterrupted.shards = 4;
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
  EXPECT_GE(partial.report.units_done, missions / 2);
  EXPECT_LT(partial.report.units_done, missions);

  // ...then resume from the journal and finish.
  CampaignConfig second_half = uninterrupted;
  second_half.checkpoint_path = path;
  second_half.resume = true;
  const auto resumed = Case::run(cfg, second_half);
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
  options.shards = 2;
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
  // The sweep must have actually exercised crash points (2 shards of at
  // least 4 batches each, plus the final saves).
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
  options.shards = 2;
  options.checkpoint_every = 8;
  options.target_rse = 0.5;
  const auto out = run_fleet_campaign(cfg, options);
  EXPECT_TRUE(out.report.converged);
  EXPECT_FALSE(out.report.truncated);
  EXPECT_LT(out.report.units_done, 100'000u);
  EXPECT_GT(out.summary.data_loss_missions, 0u);
}

TEST(LocalPoolCampaign, OneShardMatchesSimulateLocalPoolOnSubstreamZero) {
  // Shard 0, attempt 0 draws from Rng::for_substream(seed, 0), so a 1-shard
  // campaign runs exactly simulate_local_pool's missions on that stream.
  const LocalPoolSimConfig cfg = hot_pool();
  const std::uint64_t missions = 3000;
  const std::uint64_t seed = 42;
  CampaignConfig one_shard;
  one_shard.total_units = missions;
  one_shard.seed = seed;
  one_shard.shards = 1;
  const auto campaign = run_local_pool_campaign(cfg, one_shard).summary;
  Rng rng = Rng::for_substream(seed, 0);
  const auto direct = simulate_local_pool(cfg, missions, rng);
  ASSERT_GT(direct.catastrophes, 0u);

  EXPECT_EQ(campaign.missions, direct.missions);
  EXPECT_EQ(campaign.catastrophes, direct.catastrophes);
  EXPECT_EQ(campaign.events_processed, direct.events_processed);
  EXPECT_EQ(campaign.rng_draws, direct.rng_draws);
  // Per-catastrophe statistics are added in the same order on both paths.
  RunningStats frac, unrebuilt;
  for (const auto& s : direct.samples) {
    frac.add(s.lost_stripe_fraction);
    unrebuilt.add(s.unrebuilt_tb);
  }
  EXPECT_TRUE(campaign.lost_stripe_fraction == frac);
  EXPECT_TRUE(campaign.unrebuilt_tb == unrebuilt);
  // The campaign sums per-mission pool-years where the direct run multiplies
  // once, so these agree up to rounding.
  EXPECT_DOUBLE_EQ(campaign.pool_years, direct.pool_years);
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
  const auto path = temp_path(name + "_old_schedule.bin");
  std::remove(path.c_str());
  CampaignConfig campaign;
  campaign.total_units = 64;
  campaign.seed = 5;
  campaign.shards = 2;
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
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v4", "fleet-v2",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });

  const LocalPoolSimConfig pool = hot_pool();
  expect_old_schedule_refused("localpool", pool, local_pool_campaign_fingerprint(pool),
                              "localpool-v3", "localpool-v1",
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
      "fleet", fleet, fleet_campaign_fingerprint(fleet), "fleet-v4", "fleet-v3",
      [](const FleetSimConfig& c, const CampaignConfig& k) { return run_fleet_campaign(c, k); });

  const LocalPoolSimConfig pool = hot_pool();
  expect_old_schedule_refused("localpool", pool, local_pool_campaign_fingerprint(pool),
                              "localpool-v3", "localpool-v2",
                              [](const LocalPoolSimConfig& c, const CampaignConfig& k) {
                                return run_local_pool_campaign(c, k);
                              });
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
  campaign.shards = 2;
  campaign.checkpoint_every = 8;
  campaign.checkpoint_path = temp_path("pinned_fleet.bin");
  std::remove(campaign.checkpoint_path.c_str());
  FleetSimConfig fleet = small_fleet();
  fleet.failures.afr = 2.0;  // a few losses, so every fleet slot holds data
  ASSERT_TRUE(run_fleet_campaign(fleet, campaign).report.complete());
  EXPECT_EQ(file_bytes_hash(campaign.checkpoint_path), 0x87be17b41085364bULL);
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
  EXPECT_EQ(file_bytes_hash(campaign.checkpoint_path), 0x7732998521773a2bULL);
  std::remove(campaign.checkpoint_path.c_str());
}

}  // namespace
}  // namespace mlec
