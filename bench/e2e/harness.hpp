// Shared plumbing of the end-to-end benchmark: timing and summaries, the
// in-memory span recorder behind the traced run, and the per-run record a
// workload fills (set-up and pass times, per-request checks, named detail
// samples, per-layer probe values).
//
// Every span is recorded here, around calls the benchmark makes into the
// library; nothing inside src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "server/json.hpp"
#include "util/thread_safety.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;
using mlec::json::Value;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> values, double q);

/// Chrome trace-event recorder. Spans and instants stay in memory and are
/// written as one JSON document by write(); a disabled tracer records
/// nothing and costs one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// The workload span: the parent of spans opened without one.
  void set_root(std::uint64_t id) { root_.store(id, std::memory_order_relaxed); }
  std::uint64_t root() const { return root_.load(std::memory_order_relaxed); }

  /// A finished span. `lane` < 0 files it under the calling thread.
  void complete(const std::string& name, const char* category, Clock::time_point start,
                Clock::time_point end, std::uint64_t id, std::uint64_t parent, Value args,
                int lane = -1) MLEC_EXCLUDES(mutex_);
  void instant(const std::string& name, const char* category, Clock::time_point at,
               std::uint64_t parent, Value args) MLEC_EXCLUDES(mutex_);

  /// Write {"traceEvents": [...]}; throws when the file cannot be written.
  void write(const std::string& path) const MLEC_EXCLUDES(mutex_);

 private:
  struct Event {
    std::string name;
    const char* category;
    char phase;  // 'X' complete span, 'i' instant
    double ts_us;
    double dur_us;
    int lane;
    std::string args;  // serialized JSON object
  };
  int lane_locked() MLEC_REQUIRES(mutex_);

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> root_{0};
  mutable mlec::Mutex mutex_;
  std::vector<Event> events_ MLEC_GUARDED_BY(mutex_);
  std::map<std::thread::id, int> lanes_ MLEC_GUARDED_BY(mutex_);
};

/// Scoped span: records [construction, destruction) when the tracer is on.
class Span {
 public:
  Span(Tracer& tracer, std::string name, const char* category, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  void arg(const std::string& key, Value value);

 private:
  Tracer& tracer_;
  std::string name_;
  const char* category_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
  Value args_;
};

/// One per-layer metric of the traced run: what it measures lives in
/// probes.cpp; `moves` and `on` name the end-to-end metric and workloads
/// it is predicted to move (README.md, "Per-layer metrics").
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};
/// Every per-layer metric, in report order (defined in probes.cpp).
const std::vector<LayerMetric>& layer_metrics();
/// Throw unless BENCHMARK.json's `per_layer` list names exactly the metrics
/// of layer_metrics(), with the same units.
void check_layer_metrics(const std::string& benchmark_json_path);

/// sysfs-reported size of the first level-3 cache; 0 when unreadable.
std::uint64_t l3_cache_bytes();

/// Command-line settings of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string repo_root = ".";
  std::string work_dir;   ///< scratch space for the probes' journals and stores
  std::string out;        ///< detailed result file (optional)
  std::string trace_out;  ///< Chrome trace file (traced runs)
  std::string baseline;   ///< untraced result file, for the overhead table
  std::string commit = "unknown";
};

/// What one workload run measured and checked.
class Run {
 public:
  explicit Run(Options options);

  const Options& options() const { return options_; }
  Tracer& tracer() { return tracer_; }
  std::size_t nproc() const { return nproc_; }
  std::uint64_t seed() const { return options_.seed; }

  /// Start another pass? Call once before each pass. At least two passes,
  /// then another only while the run's elapsed time plus its longest pass
  /// so far stays within --seconds (less the layer probes' time when
  /// traced), so a run never overshoots its budget by a whole pass.
  bool more_passes() MLEC_EXCLUDES(mutex_);
  /// Set up again? At least three set-ups, then more while they have taken
  /// under two seconds in total (at most 30), so a set-up of a few hundred
  /// milliseconds or less still gets a steady median.
  bool more_setups() MLEC_EXCLUDES(mutex_);
  void add_setup(double seconds) MLEC_EXCLUDES(mutex_);
  void add_pass(double seconds) MLEC_EXCLUDES(mutex_);
  /// One sample of a workload-specific quantity (e.g. sim_tta_s); `better`
  /// is "lower" or "higher".
  void add_detail(const std::string& name, const char* unit, const char* better, double value)
      MLEC_EXCLUDES(mutex_);
  /// Count one attempted request; a non-empty `error` marks it failed.
  void request(const std::string& label, const std::string& error) MLEC_EXCLUDES(mutex_);
  /// One per-layer probe value (traced runs); `name` must be listed in
  /// layer_metrics().
  void add_layer(const std::string& name, double value) MLEC_EXCLUDES(mutex_);
  void note(const std::string& key, Value value) MLEC_EXCLUDES(mutex_);
  /// Mark the end of the workload, before any layer probe runs, so that
  /// peak_rss_mb is the workload's and not the probes' (which allocate
  /// buffers of their own).
  void end_workload() MLEC_EXCLUDES(mutex_);

  /// Final stdout line plus the detailed result file and trace; returns the
  /// process exit code (0 only when every request checked out).
  int finish() MLEC_EXCLUDES(mutex_);

 private:
  struct Series {
    std::string unit;
    std::string better;
    std::vector<double> values;
  };

  Value host_fingerprint() const;
  /// End-to-end metrics of this run: answer_s, setup_s, peak_rss_mb.
  Value end_to_end_locked() const MLEC_REQUIRES(mutex_);
  void print_report_locked(const Value& end_to_end) const MLEC_REQUIRES(mutex_);

  const Options options_;
  Tracer tracer_;
  const std::size_t nproc_;
  const Clock::time_point start_ = Clock::now();
  mutable mlec::Mutex mutex_;
  Clock::time_point pass_started_ MLEC_GUARDED_BY(mutex_){};
  double longest_pass_s_ MLEC_GUARDED_BY(mutex_) = 0.0;
  std::size_t passes_started_ MLEC_GUARDED_BY(mutex_) = 0;
  std::vector<double> setup_s_ MLEC_GUARDED_BY(mutex_);
  std::vector<double> pass_s_ MLEC_GUARDED_BY(mutex_);
  std::map<std::string, Series> details_ MLEC_GUARDED_BY(mutex_);
  std::map<std::string, double> layers_ MLEC_GUARDED_BY(mutex_);
  std::uint64_t attempted_ MLEC_GUARDED_BY(mutex_) = 0;
  std::uint64_t failed_ MLEC_GUARDED_BY(mutex_) = 0;
  std::vector<std::string> failures_ MLEC_GUARDED_BY(mutex_);
  Value notes_ MLEC_GUARDED_BY(mutex_) = Value::object();
  double peak_rss_mb_ MLEC_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace e2e
