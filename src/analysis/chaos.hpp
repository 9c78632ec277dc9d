// Chaos harness: sweep every registered fault point and prove the system
// survives it.
//
// Each case arms one MLEC_FAULTS schedule and asserts the robustness
// contract the ISSUE of record demands: every injected crash, hang, or
// corruption must end in either a bit-identical resumed estimate or an
// explicitly degraded partial estimate — never an abort, a deadlock, or a
// silently wrong number. The case families:
//
//   crash-*        fork a child, inject `crash` (std::_Exit mid-write) at a
//                  journal or checkpoint fault point, then resume in the
//                  parent and require the estimate bit-identical to the
//                  un-faulted baseline.
//   corrupt-*      truncate / bit-flip / de-magic a checkpoint journal left
//                  by a partial run, then resume and require bit-identity
//                  (damaged blocks recompute their deterministic substreams).
//   hang/throw-*   delay- and throw-injected blocks must retry (watchdog
//                  timeout or exception), then either complete bit-identical
//                  to the un-faulted baseline (the retry replays the
//                  block's substream) or quarantine into an explicitly
//                  degraded estimate.
//   fallback-*     a throwing estimator must not take down `--method=all`;
//                  DegradePolicy::kFailFast must raise DegradedError.
//   repair-*       the byte-exact repair executor survives an injected
//                  throw and still verifies afterwards.
//
// Case order is load-bearing: the fork-based crash cases run FIRST, before
// anything touches the global thread pool, so the child never forks a
// multi-threaded process (the repair cases, which materialize stripes on
// the pool, run last). Campaign cases run single-threaded so fault-point
// hit ordering — and therefore which block a trigger lands on — is
// deterministic.
//
// Driven by `mlecctl chaos` and tests/test_chaos.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/scenario.hpp"

namespace mlec {

struct ChaosOptions;

struct ChaosCaseResult {
  std::string name;
  std::string faults;  ///< MLEC_FAULTS schedule the case armed ("" = none)
  bool passed = false;
  std::string detail;  ///< what held, or how it failed
};

/// A case supplied by a layer above this library (the server registers its
/// daemon crash/survival cases this way — analysis cannot link it). The
/// case owns its own fault schedule via fault::configure/clear and must
/// leave nothing armed; its `faults` string feeds the coverage check.
struct ChaosExtraCase {
  std::string name;  ///< drives `only` selection
  std::function<ChaosCaseResult(const Scenario& scenario, const ChaosOptions& options,
                                const std::string& workdir)>
      run;
};

struct ChaosOptions {
  /// Directory for the journals the cases crash, corrupt, and resume.
  /// Empty uses a process-unique directory under the system temp dir.
  std::string workdir;
  /// Run only the cases whose name contains one of these substrings;
  /// empty runs the full sweep (including the fault-point coverage check).
  std::vector<std::string> only;
  /// Extra cases run alongside the early fork-based crash cases: they may
  /// fork but must not spawn threads (fork safety — see file comment).
  std::vector<ChaosExtraCase> fork_phase;
  /// Extra cases run after every fork in the sweep: free to spawn threads
  /// (TCP listeners, service runners).
  std::vector<ChaosExtraCase> late_phase;
};

struct ChaosReport {
  std::vector<ChaosCaseResult> cases;

  bool all_passed() const;
  std::size_t failures() const;
  std::string table() const;
};

/// Run the chaos sweep against `scenario` (its missions/seed control the
/// campaign size; keep missions modest — every case runs a campaign).
/// Never leaves a fault schedule armed, even on failure paths.
ChaosReport run_chaos(const Scenario& scenario, const ChaosOptions& options = {});

/// Bit-exact comparison of everything an Estimate derives from the sweep's
/// accumulated statistics (samples, pdl, interval, repair metadata): ""
/// on equality, else a description of the first mismatch. The contract
/// every crash/resume case asserts — exported so the server's extra cases
/// (and its tests) assert the same one.
std::string diff_estimates(const Estimate& a, const Estimate& b);

}  // namespace mlec
