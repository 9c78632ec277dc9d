#include "analysis/chaos.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "analysis/crosscheck.hpp"
#include "core/estimator.hpp"
#include "sim/repair_executor.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"

namespace mlec {

namespace {

/// Disarms whatever schedule a case configured, even when it fails by
/// throwing: a leaked schedule would poison every later case.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { fault::configure(spec); }
  ~ScopedFaults() { fault::clear(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

std::string diff_estimates(const Estimate& a, const Estimate& b) {
  const auto field = [](const char* name, double x, double y) {
    std::ostringstream os;
    os.precision(17);
    os << name << " differs: " << x << " vs " << y;
    return os.str();
  };
  if (a.samples != b.samples)
    return "samples differ: " + std::to_string(a.samples) + " vs " + std::to_string(b.samples);
  if (!same_bits(a.pdl, b.pdl)) return field("pdl", a.pdl, b.pdl);
  if (!same_bits(a.pdl_lo, b.pdl_lo)) return field("pdl_lo", a.pdl_lo, b.pdl_lo);
  if (!same_bits(a.pdl_hi, b.pdl_hi)) return field("pdl_hi", a.pdl_hi, b.pdl_hi);
  if (!same_bits(a.exposure_hours, b.exposure_hours))
    return field("exposure_hours", a.exposure_hours, b.exposure_hours);
  if (!same_bits(a.cat_rate_per_year, b.cat_rate_per_year))
    return field("cat_rate_per_year", a.cat_rate_per_year, b.cat_rate_per_year);
  if (!same_bits(a.cross_rack_tb, b.cross_rack_tb))
    return field("cross_rack_tb", a.cross_rack_tb, b.cross_rack_tb);
  return {};
}

namespace {

/// Shared fixture: the sim estimator, deterministic campaign knobs, and the
/// un-faulted baseline every crash/corruption case compares against.
struct ChaosContext {
  const Scenario& scenario;
  const ChaosOptions& options;
  const Estimator* sim = nullptr;
  EstimateOptions base;  ///< single-threaded, no checkpoint
  Estimate baseline;
  std::string workdir;

  std::string journal_base(const std::string& case_name) const {
    return workdir + "/" + case_name + ".journal";
  }
  /// The file the sim estimator actually writes under a base path.
  std::string journal_file(const std::string& case_name) const {
    return journal_base(case_name) + ".sim";
  }
};

ChaosCaseResult make_result(const std::string& name, const std::string& faults) {
  ChaosCaseResult r;
  r.name = name;
  r.faults = faults;
  return r;
}

// ---------------------------------------------------------------------------
// crash-* : fork, kill the child at a journal/checkpoint fault point, resume.

#ifndef _WIN32
ChaosCaseResult run_crash_case(const ChaosContext& ctx, const std::string& point) {
  const std::string name = "crash-" + point;
  const std::string schedule = point + "=crash@hit=2";
  ChaosCaseResult result = make_result(name, schedule);
  const std::string base_path = ctx.journal_base(name);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: arm the crash, run the campaign, and either die at the fault
    // point (exit 42, the expected path) or report what happened instead.
    try {
      fault::configure(schedule);
      EstimateOptions eo = ctx.base;
      eo.checkpoint_path = base_path;
      ctx.sim->estimate(ctx.scenario, eo);
      std::_Exit(64);  // ran to completion: the fault never fired
    } catch (...) {
      std::_Exit(65);  // the crash action must not surface as an exception
    }
  }
  MLEC_REQUIRE(pid > 0, "chaos: fork failed");
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 42) {
    result.detail = "child did not die at the fault point (status " +
                    std::to_string(status) + ")";
    return result;
  }

  // Parent: resume from whatever the crash left behind; the estimate must
  // be bit-identical to the uninterrupted baseline.
  EstimateOptions eo = ctx.base;
  eo.checkpoint_path = base_path;
  eo.resume = true;
  try {
    const Estimate resumed = ctx.sim->estimate(ctx.scenario, eo);
    const std::string diff = diff_estimates(resumed, ctx.baseline);
    if (!diff.empty()) {
      result.detail = "resumed estimate not bit-identical: " + diff;
      return result;
    }
    result.passed = true;
    result.detail = "killed at hit 2, resumed bit-identical";
  } catch (const std::exception& e) {
    result.detail = std::string("resume threw: ") + e.what();
  }
  return result;
}
#endif

// ---------------------------------------------------------------------------
// corrupt-* : damage a journal left by a partial run, resume, compare.

enum class Damage { kTruncateTail, kFlipByte, kBadMagic };

ChaosCaseResult run_corruption_case(const ChaosContext& ctx, const std::string& name,
                                    Damage damage) {
  ChaosCaseResult result = make_result(name, "");
  const std::string base_path = ctx.journal_base(name);
  const std::string file = ctx.journal_file(name);

  // Leave a journal mid-sweep: a unit budget truncates the run after ~3/4
  // of the missions, so the journal holds real partial progress.
  EstimateOptions partial = ctx.base;
  partial.checkpoint_path = base_path;
  partial.unit_budget = std::max<std::uint64_t>(1, ctx.scenario.missions * 3 / 4);
  ctx.sim->estimate(ctx.scenario, partial);

  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      result.detail = "partial run left no journal at " + file;
      return result;
    }
    std::ostringstream os;
    os << in.rdbuf();
    bytes = std::move(os).str();
  }
  switch (damage) {
    case Damage::kTruncateTail:
      bytes.resize(bytes.size() - std::min<std::size_t>(bytes.size(), 7));
      break;
    case Damage::kFlipByte:
      bytes[bytes.size() * 3 / 5] ^= 0x40;
      break;
    case Damage::kBadMagic:
      std::memcpy(bytes.data(), "XXXX", 4);
      break;
  }
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EstimateOptions eo = ctx.base;
  eo.checkpoint_path = base_path;
  eo.resume = true;
  try {
    const Estimate resumed = ctx.sim->estimate(ctx.scenario, eo);
    const std::string diff = diff_estimates(resumed, ctx.baseline);
    if (!diff.empty()) {
      result.detail = "estimate after corruption not bit-identical: " + diff;
      return result;
    }
    if (resumed.campaign.resume_warning.empty()) {
      result.detail = "damage went unreported (no resume warning)";
      return result;
    }
    result.passed = true;
    result.detail = "recovered: " + resumed.campaign.resume_warning;
  } catch (const std::exception& e) {
    result.detail = std::string("resume threw instead of recovering: ") + e.what();
  }
  return result;
}

// ---------------------------------------------------------------------------
// hang / throw / degrade / fail-fast / fallback / repair cases.

ChaosCaseResult run_hung_shard_case(const ChaosContext& ctx) {
  // One 2-second injected stall against a 0.2s watchdog: the attempt must
  // be cut loose and the retry (which the @hit=1 trigger spares) completes.
  const std::string schedule = "shard.slow=delay:2000@hit=1";
  ChaosCaseResult result = make_result("hang-watchdog-retry", schedule);
  ScopedFaults faults(schedule);
  EstimateOptions eo = ctx.base;
  eo.shard_timeout_s = 0.2;
  try {
    const Estimate e = ctx.sim->estimate(ctx.scenario, eo);
    std::uint32_t timeouts = 0;
    for (const auto& s : e.campaign.shards) timeouts += s.timeouts;
    const std::string diff = diff_estimates(e, ctx.baseline);
    if (timeouts == 0) {
      result.detail = "watchdog never fired";
    } else if (e.degraded || !e.campaign.complete()) {
      result.detail = "run did not complete after the timed-out retry";
    } else if (!diff.empty()) {
      result.detail = "healed run not bit-identical to the baseline: " + diff;
    } else {
      result.passed = true;
      result.detail = "watchdog cancelled " + std::to_string(timeouts) +
                      " attempt(s); retry completed the sweep bit-identical";
    }
  } catch (const std::exception& e) {
    result.detail = std::string("threw: ") + e.what();
  }
  return result;
}

ChaosCaseResult run_task_throw_retry_case(const ChaosContext& ctx) {
  const std::string schedule = "pool.task.throw=throw@hit=1";
  ChaosCaseResult result = make_result("throw-task-retry", schedule);
  ScopedFaults faults(schedule);
  try {
    const Estimate e = ctx.sim->estimate(ctx.scenario, ctx.base);
    const bool retried = !e.campaign.shards.empty() && e.campaign.shards[0].attempts > 1;
    const std::string diff = diff_estimates(e, ctx.baseline);
    if (!retried) {
      result.detail = "block 0 never retried";
    } else if (e.degraded || !e.campaign.complete()) {
      result.detail = "run did not complete after the retry";
    } else if (!diff.empty()) {
      result.detail = "healed run not bit-identical to the baseline: " + diff;
    } else {
      result.passed = true;
      result.detail = "block 0 retried once; the sweep completed bit-identical";
    }
  } catch (const std::exception& e) {
    result.detail = std::string("threw: ") + e.what();
  }
  return result;
}

ChaosCaseResult run_degraded_case(const ChaosContext& ctx) {
  // Three injected throws against max_attempts=3 exhaust block 0; later
  // blocks' hits are spared. The estimate must come back explicitly degraded
  // with a widened interval, not abort and not silently complete.
  const std::string schedule = "pool.task.throw=throw@first=3";
  ChaosCaseResult result = make_result("throw-quarantine-degrade", schedule);
  ScopedFaults faults(schedule);
  try {
    const Estimate e = ctx.sim->estimate(ctx.scenario, ctx.base);
    if (e.campaign.quarantined == 0) {
      result.detail = "no block was quarantined";
    } else if (!e.degraded || e.degrade_note.empty()) {
      result.detail = "quarantine was not surfaced as a degraded estimate";
    } else if (e.pdl_lo > e.pdl || e.pdl_hi < e.pdl) {
      result.detail = "widened interval does not bracket the point estimate";
    } else {
      result.passed = true;
      result.detail = e.degrade_note;
    }
  } catch (const std::exception& e) {
    result.detail = std::string("threw instead of degrading: ") + e.what();
  }
  return result;
}

ChaosCaseResult run_fail_fast_case(const ChaosContext& ctx) {
  const std::string schedule = "pool.task.throw=throw@first=3";
  ChaosCaseResult result = make_result("throw-quarantine-fail-fast", schedule);
  ScopedFaults faults(schedule);
  EstimateOptions eo = ctx.base;
  eo.degrade = DegradePolicy::kFailFast;
  try {
    ctx.sim->estimate(ctx.scenario, eo);
    result.detail = "fail-fast returned an estimate instead of throwing";
  } catch (const DegradedError& e) {
    result.passed = true;
    result.detail = std::string("raised DegradedError: ") + e.what();
  } catch (const std::exception& e) {
    result.detail = std::string("wrong exception type: ") + e.what();
  }
  return result;
}

ChaosCaseResult run_method_fallback_case(const ChaosContext& ctx) {
  // `--method=all` semantics: a method killed at its entry point is
  // reported as failed while the surviving methods still produce numbers.
  const std::string schedule =
      "estimator.sim.pre=throw;estimator.split.pre=throw;estimator.markov.pre=throw";
  ChaosCaseResult result = make_result("fallback-methods", schedule);
  ScopedFaults faults(schedule);
  CrosscheckOptions cc;
  cc.estimate = ctx.base;
  try {
    const CrosscheckReport report = run_crosscheck(ctx.scenario, cc);
    std::size_t failed = 0;
    bool dp_ran = false;
    for (const auto& row : report.rows) {
      if (row.failed) ++failed;
      if (row.method == "dp" && row.ran()) dp_ran = true;
    }
    if (!dp_ran) {
      result.detail = "dp did not survive the other methods' failures";
    } else if (failed == 0) {
      result.detail = "no method failed — the injected throws never fired";
    } else {
      result.passed = true;
      result.detail = std::to_string(failed) + " methods failed, dp still answered";
    }
  } catch (const std::exception& e) {
    result.detail = std::string("run_crosscheck threw: ") + e.what();
  }
  return result;
}

ChaosCaseResult run_estimator_dp_case(const ChaosContext& ctx) {
  const std::string schedule = "estimator.dp.pre=throw";
  ChaosCaseResult result = make_result("fallback-dp", schedule);
  ScopedFaults faults(schedule);
  CrosscheckOptions cc;
  cc.methods = {"dp", "markov"};
  cc.estimate = ctx.base;
  try {
    const CrosscheckReport report = run_crosscheck(ctx.scenario, cc);
    const bool dp_failed = report.rows.at(0).failed;
    const bool markov_ran = report.rows.at(1).ran();
    if (dp_failed && markov_ran) {
      result.passed = true;
      result.detail = "dp failed as injected, markov answered";
    } else {
      result.detail = "expected dp to fail and markov to run";
    }
  } catch (const std::exception& e) {
    result.detail = std::string("run_crosscheck threw: ") + e.what();
  }
  return result;
}

/// Runs LAST: materializing stripes uses the global thread pool, which must
/// not exist while the crash cases fork.
ChaosCaseResult run_repair_case() {
  const std::string schedule = "repair.execute.pre=throw";
  ChaosCaseResult result = make_result("repair-throw-then-verify", schedule);
  DataCenterConfig dc;
  dc.racks = 6;
  dc.enclosures_per_rack = 2;
  dc.disks_per_enclosure = 6;
  dc.disk_capacity_tb = 1.28e-6;
  const MlecCode code{{2, 1}, {2, 1}};
  try {
    const Topology topo(dc);
    const StripeMap map(topo, code, MlecScheme::kCC, 4, /*seed=*/7);
    MaterializedSystem system(map, 32, /*seed=*/9);
    system.fail_disks({map.stripes().front().locals.front().disks[0]});
    bool threw = false;
    {
      ScopedFaults faults(schedule);
      try {
        system.execute(RepairMethod::kRepairMinimum);
      } catch (const fault::FaultInjectedError&) {
        threw = true;
      }
    }
    if (!threw) {
      result.detail = "injected throw never fired";
      return result;
    }
    const auto exec = system.execute(RepairMethod::kRepairMinimum);
    if (!exec.verified) {
      result.detail = "repair after the injected failure did not verify byte-exact";
      return result;
    }
    result.passed = true;
    result.detail = "injected failure thrown, subsequent repair verified byte-exact";
  } catch (const std::exception& e) {
    result.detail = std::string("threw: ") + e.what();
  }
  return result;
}

bool selected(const ChaosOptions& options, const std::string& name) {
  if (options.only.empty()) return true;
  for (const auto& needle : options.only)
    if (name.find(needle) != std::string::npos) return true;
  return false;
}

}  // namespace

bool ChaosReport::all_passed() const { return failures() == 0; }

std::size_t ChaosReport::failures() const {
  std::size_t n = 0;
  for (const auto& c : cases) n += c.passed ? 0 : 1;
  return n;
}

std::string ChaosReport::table() const {
  Table t({"case", "faults", "result", "detail"});
  for (const auto& c : cases)
    t.add_row({c.name, c.faults.empty() ? "-" : c.faults, c.passed ? "pass" : "FAIL",
               c.detail});
  std::ostringstream os;
  os << t.to_ascii("chaos sweep (" + std::to_string(cases.size()) + " cases)");
  if (all_passed())
    os << "all " << cases.size() << " cases passed\n";
  else
    os << failures() << " of " << cases.size() << " cases FAILED\n";
  return os.str();
}

ChaosReport run_chaos(const Scenario& scenario, const ChaosOptions& options) {
  scenario.validate();
  MLEC_REQUIRE(!fault::enabled(),
               "chaos: a fault schedule is already armed; clear MLEC_FAULTS first");

  ChaosContext ctx{scenario, options};
  ctx.sim = find_estimator("sim");
  MLEC_REQUIRE(ctx.sim != nullptr, "chaos: sim estimator not registered");
  MLEC_REQUIRE(ctx.sim->applicability(scenario).empty(),
               "chaos needs a sim-applicable scenario: " + ctx.sim->applicability(scenario));

  namespace fs = std::filesystem;
  ctx.workdir = options.workdir;
  if (ctx.workdir.empty()) {
#ifndef _WIN32
    const std::string unique = std::to_string(::getpid());
#else
    const std::string unique = "default";
#endif
    ctx.workdir = (fs::temp_directory_path() / ("mlec-chaos-" + unique)).string();
  }
  fs::create_directories(ctx.workdir);

  // Deterministic campaign shape: single-threaded (pool=nullptr) so fault
  // hits land on the same block every run, with enough checkpoint
  // boundaries for the @hit=2 crash triggers to have something to hit.
  ctx.base.pool = nullptr;
  ctx.base.checkpoint_every = std::max<std::uint64_t>(1, scenario.missions / 8);

  ctx.baseline = ctx.sim->estimate(scenario, ctx.base);

  ChaosReport report;
  const auto add = [&](ChaosCaseResult result) { report.cases.push_back(std::move(result)); };

  // Fork-based crash cases first — see the header comment on ordering.
#ifndef _WIN32
  for (const char* point : {"journal.save.pre", "journal.rename.pre", "journal.rename.post",
                            "campaign.checkpoint.pre", "campaign.checkpoint.post"})
    if (selected(options, std::string("crash-") + point)) add(run_crash_case(ctx, point));
#endif
  for (const ChaosExtraCase& extra : options.fork_phase)
    if (selected(options, extra.name)) add(extra.run(scenario, options, ctx.workdir));

  if (selected(options, "corrupt-truncated-tail"))
    add(run_corruption_case(ctx, "corrupt-truncated-tail", Damage::kTruncateTail));
  if (selected(options, "corrupt-flipped-byte"))
    add(run_corruption_case(ctx, "corrupt-flipped-byte", Damage::kFlipByte));
  if (selected(options, "corrupt-bad-magic"))
    add(run_corruption_case(ctx, "corrupt-bad-magic", Damage::kBadMagic));

  if (selected(options, "hang-watchdog-retry")) add(run_hung_shard_case(ctx));
  if (selected(options, "throw-task-retry")) add(run_task_throw_retry_case(ctx));
  if (selected(options, "throw-quarantine-degrade")) add(run_degraded_case(ctx));
  if (selected(options, "throw-quarantine-fail-fast")) add(run_fail_fast_case(ctx));
  if (selected(options, "fallback-methods")) add(run_method_fallback_case(ctx));
  if (selected(options, "fallback-dp")) add(run_estimator_dp_case(ctx));

  // From here on cases may spawn threads; every fork is behind us.
  for (const ChaosExtraCase& extra : options.late_phase)
    if (selected(options, extra.name)) add(extra.run(scenario, options, ctx.workdir));

  // Last: touches the global thread pool (fork-safety, see above).
  if (selected(options, "repair-throw-then-verify")) add(run_repair_case());

  // Coverage check: the full sweep must mention every fault point the
  // library registers, so a new MLEC_FAULT_POINT cannot dodge chaos simply
  // by being forgotten here.
  if (options.only.empty()) {
    ChaosCaseResult coverage = make_result("coverage-known-points", "");
    std::string missing;
    for (const auto& point : fault::known_points()) {
      bool mentioned = false;
      for (const auto& c : report.cases)
        if (c.faults.find(point.name) != std::string::npos) mentioned = true;
      if (!mentioned) missing += std::string(missing.empty() ? "" : ", ") + point.name;
    }
    coverage.passed = missing.empty();
    coverage.detail = missing.empty()
                          ? "all " + std::to_string(fault::known_points().size()) +
                                " registered fault points exercised"
                          : "uncovered fault points: " + missing;
    report.cases.push_back(std::move(coverage));
  }
  return report;
}

}  // namespace mlec
