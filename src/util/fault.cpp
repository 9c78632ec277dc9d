#include "util/fault.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"

namespace mlec::fault {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

struct Registry {
  Mutex mutex;
  std::vector<FaultSpec> specs MLEC_GUARDED_BY(mutex);
  // Per-point counters. The returned reference from counter() is only used
  // within the same critical section that obtained it.
  std::vector<std::pair<std::string, std::uint64_t>> hits MLEC_GUARDED_BY(mutex);

  std::uint64_t& counter(const std::string& point) MLEC_REQUIRES(mutex) {
    for (auto& [name, count] : hits)
      if (name == point) return count;
    return hits.emplace_back(point, 0).second;
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local StopToken tls_cancel;

/// Deterministic per-hit Bernoulli draw: hashes (point seed, hit index)
/// through SplitMix64 so the decision depends only on the schedule and the
/// hit sequence, never on wall clock or thread identity.
bool prob_fires(const FaultSpec& spec, std::uint64_t hit_index) {
  std::uint64_t state = spec.seed ^ (hit_index * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t draw = splitmix64(state);
  // Map the top 53 bits to [0, 1), the same construction Rng::uniform uses.
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return u < spec.probability;
}

bool trigger_fires(const FaultSpec& spec, std::uint64_t hit_index) {
  switch (spec.trigger) {
    case Trigger::kAlways: return true;
    case Trigger::kHit: return hit_index == spec.n;
    case Trigger::kFirst: return hit_index <= spec.n;
    case Trigger::kEvery: return spec.n > 0 && hit_index % spec.n == 0;
    case Trigger::kProb: return prob_fires(spec, hit_index);
  }
  return false;
}

/// Sleep `ms`, polling the thread's registered cancellation token so a
/// watchdog can cut the delay short. Returns early once the token fires.
void cancellable_delay(double ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::duration_cast<clock::duration>(
                                           std::chrono::duration<double, std::milli>(ms));
  const StopToken cancel = tls_cancel;  // copy: stable for the whole sleep
  while (clock::now() < deadline) {
    if (cancel.stop_requested()) return;
    const clock::duration remaining = deadline - clock::now();
    const auto slice =
        std::min<clock::duration>(remaining, std::chrono::milliseconds(5));
    if (slice > clock::duration::zero()) std::this_thread::sleep_for(slice);
  }
}

[[noreturn]] void crash(const char* point) {
  // A deliberate hard kill: no stream flushing, no atexit handlers, no
  // stack unwinding — the closest portable stand-in for SIGKILL/power loss.
  // The message bypasses stdio buffering via stderr being unbuffered enough
  // for a single fprintf; losing it is acceptable (a real crash loses it too).
  std::fprintf(stderr, "mlec: injected crash at fault point '%s'\n", point);
  std::_Exit(42);
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  MLEC_REQUIRE(!text.empty() && text.find_first_not_of("0123456789") == std::string::npos,
               "MLEC_FAULTS: " + what + " needs a non-negative integer, got '" + text + "'");
  return std::stoull(text);
}

void parse_trigger(const std::string& text, FaultSpec& spec) {
  if (const auto eq = text.find('='); eq != std::string::npos) {
    const std::string key = text.substr(0, eq);
    const std::string value = text.substr(eq + 1);
    if (key == "hit") {
      spec.trigger = Trigger::kHit;
      spec.n = parse_u64(value, "hit");
      MLEC_REQUIRE(spec.n >= 1, "MLEC_FAULTS: hit= is 1-based");
      return;
    }
    if (key == "first") {
      spec.trigger = Trigger::kFirst;
      spec.n = parse_u64(value, "first");
      return;
    }
    if (key == "every") {
      spec.trigger = Trigger::kEvery;
      spec.n = parse_u64(value, "every");
      MLEC_REQUIRE(spec.n >= 1, "MLEC_FAULTS: every= must be >= 1");
      return;
    }
    if (key == "p") {
      // p=<prob>[,seed=<s>]
      spec.trigger = Trigger::kProb;
      std::string prob = value;
      if (const auto comma = value.find(','); comma != std::string::npos) {
        prob = value.substr(0, comma);
        const std::string rest = trim(value.substr(comma + 1));
        MLEC_REQUIRE(rest.rfind("seed=", 0) == 0,
                     "MLEC_FAULTS: expected seed=<n> after p=<prob>, got '" + rest + "'");
        spec.seed = parse_u64(rest.substr(5), "seed");
      }
      try {
        spec.probability = std::stod(prob);
      } catch (const std::exception&) {
        throw PreconditionError("MLEC_FAULTS: p= needs a probability, got '" + prob + "'");
      }
      MLEC_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
                   "MLEC_FAULTS: p= must be in [0, 1]");
      return;
    }
  }
  throw PreconditionError("MLEC_FAULTS: unknown trigger '" + text +
                          "' (expected hit=N, first=N, every=N, or p=P[,seed=S])");
}

FaultSpec parse_entry(const std::string& entry) {
  const auto eq = entry.find('=');
  MLEC_REQUIRE(eq != std::string::npos && eq > 0,
               "MLEC_FAULTS: entry '" + entry + "' is not <point>=<action>[@<trigger>]");
  FaultSpec spec;
  spec.point = trim(entry.substr(0, eq));
  std::string rhs = trim(entry.substr(eq + 1));
  std::string trigger_text;
  if (const auto at = rhs.find('@'); at != std::string::npos) {
    trigger_text = trim(rhs.substr(at + 1));
    rhs = trim(rhs.substr(0, at));
  }
  if (rhs == "throw") {
    spec.action = Action::kThrow;
  } else if (rhs == "crash") {
    spec.action = Action::kCrash;
  } else if (rhs.rfind("delay:", 0) == 0) {
    spec.action = Action::kDelay;
    try {
      spec.delay_ms = std::stod(rhs.substr(6));
    } catch (const std::exception&) {
      throw PreconditionError("MLEC_FAULTS: delay needs milliseconds, got '" + rhs + "'");
    }
    MLEC_REQUIRE(spec.delay_ms >= 0.0, "MLEC_FAULTS: delay must be non-negative");
  } else {
    throw PreconditionError("MLEC_FAULTS: unknown action '" + rhs +
                            "' (expected throw, crash, or delay:<ms>)");
  }
  if (!trigger_text.empty()) parse_trigger(trigger_text, spec);
  return spec;
}

/// Arm the schedule parsed from MLEC_FAULTS at process start, so faults
/// reach code that runs before main() touches the registry explicitly.
const bool g_env_armed = [] {
  // Static-init getenv: runs before main() and before any thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("MLEC_FAULTS"); env != nullptr && *env != '\0')
    configure(env);
  return true;
}();

}  // namespace

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  os << point << '=';
  switch (action) {
    case Action::kThrow: os << "throw"; break;
    case Action::kCrash: os << "crash"; break;
    case Action::kDelay: os << "delay:" << delay_ms; break;
  }
  switch (trigger) {
    case Trigger::kAlways: break;
    case Trigger::kHit: os << "@hit=" << n; break;
    case Trigger::kFirst: os << "@first=" << n; break;
    case Trigger::kEvery: os << "@every=" << n; break;
    case Trigger::kProb: os << "@p=" << probability << ",seed=" << seed; break;
  }
  return os.str();
}

void hit(const char* point) {
  FaultSpec fired;
  bool fire = false;
  {
    auto& reg = registry();
    MutexLock lock(reg.mutex);
    if (reg.specs.empty()) return;  // disarmed between the fast check and here
    const std::uint64_t index = ++reg.counter(point);
    for (const auto& spec : reg.specs) {
      if (spec.point != point) continue;
      if (trigger_fires(spec, index)) {
        fired = spec;
        fire = true;
        break;
      }
    }
  }
  if (!fire) return;
  // Act outside the registry lock: delays must not serialize other points,
  // and throw/crash must not leave the mutex held.
  switch (fired.action) {
    case Action::kThrow:
      throw FaultInjectedError(std::string("injected fault at '") + point + "'");
    case Action::kCrash: crash(point);
    case Action::kDelay: cancellable_delay(fired.delay_ms); return;
  }
}

void configure(const std::string& spec) {
  std::vector<FaultSpec> parsed;
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ';')) {
    entry = trim(entry);
    if (entry.empty()) continue;
    parsed.push_back(parse_entry(entry));
  }
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  reg.specs = std::move(parsed);
  reg.hits.clear();
  detail::g_enabled.store(!reg.specs.empty(), std::memory_order_relaxed);
}

void clear() noexcept {
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  reg.specs.clear();
  reg.hits.clear();
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t hit_count(const std::string& point) {
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  for (const auto& [name, count] : reg.hits)
    if (name == point) return count;
  return 0;
}

std::vector<FaultSpec> active() {
  auto& reg = registry();
  MutexLock lock(reg.mutex);
  return reg.specs;
}

const std::vector<PointInfo>& known_points() {
  static const std::vector<PointInfo> points{
      {"journal.save.pre", "runtime/journal: before the tmp file is written"},
      {"journal.rename.pre", "runtime/journal: tmp written + fsynced, before rename"},
      {"journal.rename.post", "runtime/journal: after rename, before directory fsync"},
      {"campaign.checkpoint.pre", "runtime/campaign: batch done, before the commit lock"},
      {"campaign.checkpoint.post", "runtime/campaign: checkpoint committed and journaled"},
      {"pool.task.throw", "runtime/campaign: inside a block's per-unit work loop"},
      {"shard.slow", "runtime/campaign: at a shard batch boundary (delay target)"},
      {"estimator.sim.pre", "core/estimators: sim method entry"},
      {"estimator.split.pre", "core/estimators: split method entry"},
      {"estimator.dp.pre", "core/estimators: dp method entry"},
      {"estimator.markov.pre", "core/estimators: markov method entry"},
      {"repair.execute.pre", "sim/repair_executor: before a byte-exact repair pass"},
      {"server.accept.pre", "server/server: before each accept() on the listener"},
      {"server.request.parse", "server/server: before parsing a request line"},
      {"server.store.save.post", "server/store: durable state rewrite just landed"},
  };
  return points;
}

ScopedCancellation::ScopedCancellation(StopToken token) : previous_(tls_cancel) {
  tls_cancel = std::move(token);
}

ScopedCancellation::~ScopedCancellation() { tls_cancel = previous_; }

}  // namespace mlec::fault
