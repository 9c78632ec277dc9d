// Deterministic fault injection for robustness testing.
//
// The estimator service must survive its own failures — a crash mid-
// checkpoint, a hung worker, a throwing task — and the only way to *prove*
// that is to inject those failures on demand, deterministically, in real
// builds. This registry provides named fault points compiled into every
// build (Release included) that cost one relaxed atomic load when no
// schedule is armed:
//
//   MLEC_FAULT_POINT("journal.rename.pre");
//
// Schedules are configured through the MLEC_FAULTS environment variable,
// the `--faults=` CLI flag, or fault::configure() directly:
//
//   MLEC_FAULTS="<point>=<action>[@<trigger>][;<point>=<action>...]"
//
//   action   throw        throw fault::FaultInjectedError at the point
//            crash        std::_Exit(42) — a hard kill with no flushing or
//                         cleanup, simulating SIGKILL / power loss
//            delay:<ms>   sleep <ms> milliseconds, cooperatively: the sleep
//                         polls the thread's registered cancellation token
//                         (fault::ScopedCancellation) so a watchdog can cut
//                         it short
//   trigger  hit=<n>      fire on the n-th hit of this point only (1-based)
//            first=<n>    fire on hits 1..n
//            every=<n>    fire on every n-th hit
//            p=<prob>[,seed=<s>]
//                         seeded Bernoulli per hit — deterministic for a
//                         given (point, seed, hit index)
//            (none)       fire on every hit
//
// Examples:
//   MLEC_FAULTS="journal.rename.pre=crash@hit=2"
//   MLEC_FAULTS="pool.task.throw=throw@first=3;shard.slow=delay:2000@first=3"
//   MLEC_FAULTS="campaign.checkpoint.post=throw@p=0.01,seed=7"
//
// Hit counters are global (process-wide) and per-point; with a single-
// threaded campaign the hit order — and therefore which block/attempt a
// trigger lands on — is fully deterministic. known_points() enumerates
// every point wired into the library so the chaos harness can sweep them
// all (see analysis/chaos.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stop_token.hpp"

namespace mlec::fault {

/// Thrown by the `throw` action (and by nothing else): chaos assertions can
/// distinguish an injected failure from a real one.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Action {
  kThrow,  ///< throw FaultInjectedError
  kCrash,  ///< std::_Exit(42): no flushing, no atexit — a simulated SIGKILL
  kDelay,  ///< sleep delay_ms (cooperatively cancellable)
};

enum class Trigger {
  kAlways,  ///< every hit
  kHit,     ///< the n-th hit only
  kFirst,   ///< hits 1..n
  kEvery,   ///< every n-th hit
  kProb,    ///< seeded Bernoulli(probability) per hit
};

/// One armed schedule entry (point -> action + trigger).
struct FaultSpec {
  std::string point;
  Action action = Action::kThrow;
  double delay_ms = 0.0;     ///< kDelay only
  Trigger trigger = Trigger::kAlways;
  std::uint64_t n = 1;       ///< hit= / first= / every= operand
  double probability = 0.0;  ///< p= operand
  std::uint64_t seed = 0;    ///< seed= operand (kProb)

  /// Round-trip back to the MLEC_FAULTS syntax (for reports and logs).
  std::string to_string() const;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while any schedule is armed. One relaxed load: the entire cost of a
/// fault point in a production run.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Record a hit on `point` and execute any armed action. Called by
/// MLEC_FAULT_POINT only when enabled(). Thread-safe.
void hit(const char* point);

/// Parse and arm a schedule (see file comment for the syntax). Replaces any
/// previous schedule and resets hit counters. An empty spec disarms.
/// Throws PreconditionError on malformed syntax.
void configure(const std::string& spec);

/// Disarm every fault and reset hit counters.
void clear() noexcept;

/// Total hits recorded on `point` since the last configure()/clear().
/// Counts hits only while a schedule is armed (the disabled fast path does
/// not count).
std::uint64_t hit_count(const std::string& point);

/// The armed schedule, in configuration order.
std::vector<FaultSpec> active();

/// One fault point the library wires in, with the layer it lives in.
struct PointInfo {
  const char* name;
  const char* where;
};

/// Every fault point compiled into the library. The chaos harness asserts
/// it sweeps each of these; keep this list in sync with MLEC_FAULT_POINT
/// call sites.
const std::vector<PointInfo>& known_points();

/// Register this thread's cancellation token for the scope: an armed
/// `delay` action on this thread sleeps in slices, polling the token, and
/// returns early once it fires — the hook that lets the campaign watchdog
/// cut a hung (delay-injected) worker loose. Nests; restores the previous token
/// on destruction.
class ScopedCancellation {
 public:
  explicit ScopedCancellation(StopToken token);
  ~ScopedCancellation();
  ScopedCancellation(const ScopedCancellation&) = delete;
  ScopedCancellation& operator=(const ScopedCancellation&) = delete;

 private:
  StopToken previous_;
};

}  // namespace mlec::fault

/// A named fault point. Zero-cost when no schedule is armed (one relaxed
/// atomic load); under an armed schedule, evaluates the point's trigger and
/// may throw, crash, or delay. Compiled into all builds.
#define MLEC_FAULT_POINT(name)                              \
  do {                                                      \
    if (::mlec::fault::enabled()) ::mlec::fault::hit(name); \
  } while (0)
