#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ec/backend.hpp"
#include "ec/stream.hpp"

#ifndef MLEC_E2E_BUILD_TYPE
#define MLEC_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace json = mlec::json;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::lane_locked() {
  const auto [it, inserted] =
      lanes_.emplace(std::this_thread::get_id(), static_cast<int>(lanes_.size()));
  return it->second;
}

void Tracer::complete(const std::string& name, const char* category, Clock::time_point start,
                      Clock::time_point end, std::uint64_t id, std::uint64_t parent, Value args,
                      int lane) {
  if (!enabled_) return;
  args.set("id", static_cast<double>(id));
  if (parent != 0) args.set("parent", static_cast<double>(parent));
  Event e{name,
          category,
          'X',
          std::chrono::duration<double, std::micro>(start - origin_).count(),
          std::chrono::duration<double, std::micro>(end - start).count(),
          lane,
          json::dump(args)};
  mlec::MutexLock lock(mutex_);
  if (e.lane < 0) e.lane = lane_locked();
  events_.push_back(std::move(e));
}

void Tracer::instant(const std::string& name, const char* category, Clock::time_point at,
                     std::uint64_t parent, Value args) {
  if (!enabled_) return;
  if (parent != 0) args.set("parent", static_cast<double>(parent));
  Event e{name,
          category,
          'i',
          std::chrono::duration<double, std::micro>(at - origin_).count(),
          0.0,
          0,
          json::dump(args)};
  mlec::MutexLock lock(mutex_);
  e.lane = lane_locked();
  events_.push_back(std::move(e));
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  mlec::MutexLock lock(mutex_);
  char buf[160];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << (i ? ",\n" : "") << "{\"name\":" << json::dump(Value(e.name)) << ",\"cat\":\""
        << e.category << "\",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.lane;
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", e.ts_us);
    out << buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof buf, ",\"dur\":%.3f", e.dur_us);
      out << buf;
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"args\":" << e.args << '}';
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

Span::Span(Tracer& tracer, std::string name, const char* category, std::uint64_t parent)
    : tracer_(tracer), category_(category), parent_(parent ? parent : tracer.root()) {
  if (!tracer_.enabled()) return;
  name_ = std::move(name);
  id_ = tracer_.next_id();
  args_ = Value::object();
  start_ = Clock::now();
}

Span::~Span() {
  if (!tracer_.enabled()) return;
  tracer_.complete(name_, category_, start_, Clock::now(), id_, parent_, std::move(args_));
}

void Span::arg(const std::string& key, Value value) {
  if (tracer_.enabled()) args_.set(key, std::move(value));
}

// ---------------------------------------------------------------------------
// Host

std::uint64_t l3_cache_bytes() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/sys/devices/system/cpu/cpu0/cache", ec)) {
    std::ifstream level(entry.path() / "level");
    int lvl = 0;
    if (!(level >> lvl) || lvl != 3) continue;
    std::ifstream size(entry.path() / "size");
    std::uint64_t value = 0;
    char suffix = 0;
    if (!(size >> value)) continue;
    size >> suffix;
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    return value;
  }
  return 0;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Value metric(double value, const std::string& unit) {
  Value v = Value::object();
  v.set("value", value);
  v.set("unit", unit);
  return v;
}

/// Median with min, max and sample count.
Value summary_metric(const std::vector<double>& values, const std::string& unit) {
  Value v = metric(quantile(values, 0.5), unit);
  v.set("min", values.empty() ? 0.0 : *std::min_element(values.begin(), values.end()));
  v.set("max", values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()));
  v.set("n", static_cast<double>(values.size()));
  return v;
}

const LayerMetric* find_layer(const std::string& name) {
  for (const LayerMetric& m : layer_metrics())
    if (name == m.name) return &m;
  return nullptr;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string fmt(double v) {
  char buf[64];
  const bool wide = std::fabs(v) >= 1e6 || (v != 0 && std::fabs(v) < 1e-3);
  std::snprintf(buf, sizeof buf, wide ? "%.4g" : "%.4f", v);
  return buf;
}

}  // namespace

void check_layer_metrics(const std::string& benchmark_json_path) {
  const Value bench = json::parse(read_file(benchmark_json_path));
  const Value* listed = bench.get("per_layer");
  if (listed == nullptr) throw std::runtime_error(benchmark_json_path + " has no per_layer list");
  std::map<std::string, std::string> unit_of;
  for (const Value& m : listed->as_array()) unit_of[m.str_or("name", "")] = m.str_or("unit", "");
  std::string diff;
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = unit_of.find(m.name);
    if (it == unit_of.end()) {
      diff += std::string(" ") + m.name + " is not listed;";
    } else {
      if (it->second != m.unit) diff += std::string(" ") + m.name + " has unit " + it->second + ";";
      unit_of.erase(it);
    }
  }
  for (const auto& [name, unit] : unit_of) diff += " " + name + " is not measured;";
  if (!diff.empty())
    throw std::runtime_error(benchmark_json_path + " per_layer differs from the probes:" + diff);
}

// ---------------------------------------------------------------------------
// Run

Run::Run(Options options)
    : options_(std::move(options)),
      tracer_(options_.trace),
      nproc_(std::max(1u, std::thread::hardware_concurrency())) {}

bool Run::more_passes() {
  // A traced run leaves room for the layer probes after its passes; they
  // took 6-8 s on the reference host, mostly probe_ec's arena.
  constexpr double kProbeSeconds = 8.0;
  const double budget = options_.seconds - (options_.trace ? kProbeSeconds : 0.0);
  mlec::MutexLock lock(mutex_);
  const auto now = Clock::now();
  if (passes_started_ > 0)
    longest_pass_s_ = std::max(longest_pass_s_, seconds_between(pass_started_, now));
  const bool more =
      passes_started_ < 2 || seconds_between(start_, now) + longest_pass_s_ <= budget;
  if (more) {
    ++passes_started_;
    pass_started_ = now;
  }
  return more;
}

bool Run::more_setups() {
  mlec::MutexLock lock(mutex_);
  double total = 0.0;
  for (const double s : setup_s_) total += s;
  return setup_s_.size() < 3 || (total < 2.0 && setup_s_.size() < 30);
}

void Run::add_setup(double seconds) {
  mlec::MutexLock lock(mutex_);
  setup_s_.push_back(seconds);
}

void Run::add_pass(double seconds) {
  mlec::MutexLock lock(mutex_);
  pass_s_.push_back(seconds);
}

void Run::add_detail(const std::string& name, const char* unit, const char* better,
                     double value) {
  mlec::MutexLock lock(mutex_);
  Series& s = details_[name];
  s.unit = unit;
  s.better = better;
  s.values.push_back(value);
}

void Run::request(const std::string& label, const std::string& error) {
  mlec::MutexLock lock(mutex_);
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(label + ": " + error);
}

void Run::add_layer(const std::string& name, double value) {
  if (find_layer(name) == nullptr) throw std::logic_error("unlisted per-layer metric " + name);
  mlec::MutexLock lock(mutex_);
  layers_[name] = value;
}

void Run::note(const std::string& key, Value value) {
  mlec::MutexLock lock(mutex_);
  notes_.set(key, std::move(value));
}

void Run::end_workload() {
  mlec::MutexLock lock(mutex_);
  peak_rss_mb_ = peak_rss_mb();
}

Value Run::host_fingerprint() const {
  Value host = Value::object();
  host.set("cpu_model", cpu_model());
  host.set("nproc", static_cast<double>(nproc_));
  host.set("l3_bytes", static_cast<double>(l3_cache_bytes()));
  host.set("numa_nodes", static_cast<double>(mlec::ec::numa_node_count()));
  host.set("ec_backend", mlec::ec::to_string(mlec::ec::active_backend()));
  host.set("compiler", compiler());
  host.set("build_type", MLEC_E2E_BUILD_TYPE);
  host.set("git_commit", options_.commit);
  host.set("seed", json::u64_to_string(options_.seed));
  return host;
}

Value Run::end_to_end_locked() const {
  Value m = Value::object();
  m.set("answer_s", summary_metric(pass_s_, "s"));
  m.set("setup_s", summary_metric(setup_s_, "s"));
  m.set("peak_rss_mb", metric(peak_rss_mb_ > 0.0 ? peak_rss_mb_ : peak_rss_mb(), "MB"));
  return m;
}

void Run::print_report_locked(const Value& end_to_end) const {
  const Value host = host_fingerprint();
  std::printf("== bench_e2e %s  seed %llu  %s  passes %zu  %.1f s\n", options_.workload.c_str(),
              static_cast<unsigned long long>(options_.seed),
              options_.trace ? "traced" : "untraced", pass_s_.size(), seconds_since(start_));
  std::printf("host: %s, %zu cpus, L3 %.0f MiB, %zu NUMA node(s), ec %s, %s %s, commit %s\n",
              host.str_or("cpu_model", "?").c_str(), nproc_,
              host.num_or("l3_bytes", 0) / (1 << 20),
              static_cast<std::size_t>(host.num_or("numa_nodes", 1)),
              host.str_or("ec_backend", "?").c_str(), host.str_or("compiler", "?").c_str(),
              MLEC_E2E_BUILD_TYPE, options_.commit.c_str());
  std::printf("%-28s %12s %12s %12s %5s  %s\n", "metric", "median", "min", "max", "n", "unit");
  auto row = [](const std::string& name, const Value& v) {
    std::printf("%-28s %12s %12s %12s %5.0f  %s\n", name.c_str(), fmt(v.num_or("value", 0)).c_str(),
                fmt(v.num_or("min", v.num_or("value", 0))).c_str(),
                fmt(v.num_or("max", v.num_or("value", 0))).c_str(), v.num_or("n", 1),
                v.str_or("unit", "").c_str());
  };
  for (const auto& [name, v] : end_to_end.as_object()) row(name, v);
  for (const auto& [name, series] : details_) row(name, summary_metric(series.values, series.unit));
  std::printf("%-28s %12s  (%llu failed of %llu attempted)\n", "error_share",
              fmt(attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0)
                  .c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& f : failures_) std::printf("FAILED %s\n", f.c_str());

  if (!options_.trace) return;
  std::printf("\n%-30s %12s %-7s  %-22s %s\n", "per-layer metric", "value", "unit", "moves", "on");
  for (const LayerMetric& m : layer_metrics()) {
    const auto it = layers_.find(m.name);
    std::printf("%-30s %12s %-7s  %-22s %s\n", m.name,
                it == layers_.end() ? "missing" : fmt(it->second).c_str(), m.unit, m.moves, m.on);
  }
  if (options_.baseline.empty()) return;
  json::ParseLimits limits;
  limits.max_bytes = std::size_t{64} << 20;
  limits.max_nodes = std::size_t{1} << 22;
  const Value baseline = json::parse(read_file(options_.baseline), limits);
  const Value* untraced = baseline.get("metrics");
  std::printf("\ntracing overhead (traced minus untraced %s)\n", options_.baseline.c_str());
  std::printf("%-28s %12s %12s %12s %9s\n", "metric", "untraced", "traced", "diff", "diff %");
  for (const auto& [name, v] : end_to_end.as_object()) {
    const Value* base = untraced ? untraced->get(name) : nullptr;
    if (base == nullptr) continue;
    const double a = base->num_or("value", 0);
    const double b = v.num_or("value", 0);
    std::printf("%-28s %12s %12s %12s %8.2f%%\n", name.c_str(), fmt(a).c_str(), fmt(b).c_str(),
                fmt(b - a).c_str(), a != 0 ? 100.0 * (b - a) / a : 0.0);
  }
}

int Run::finish() {
  mlec::MutexLock lock(mutex_);
  if (options_.trace) {
    for (const LayerMetric& m : layer_metrics()) {
      if (layers_.count(m.name) != 0) continue;
      ++failed_;
      failures_.push_back(std::string("per-layer metric ") + m.name + " was not measured");
    }
  }
  if (pass_s_.empty() || setup_s_.empty()) {
    ++failed_;
    failures_.push_back("no pass or set-up was measured");
  }
  const bool correct = failed_ == 0 && attempted_ > 0;
  const Value end_to_end = end_to_end_locked();
  print_report_locked(end_to_end);

  Value details = Value::object();
  for (const auto& [name, series] : details_) {
    Value detail = summary_metric(series.values, series.unit);
    detail.set("better", series.better);
    details.set(name, std::move(detail));
  }
  Value layers = Value::object();
  for (const auto& [name, value] : layers_) layers.set(name, metric(value, find_layer(name)->unit));

  if (!options_.out.empty()) {
    Value result = Value::object();
    result.set("workload", options_.workload);
    result.set("seed", json::u64_to_string(options_.seed));
    result.set("seconds", options_.seconds);
    result.set("run_s", seconds_since(start_));
    result.set("trace", options_.trace);
    result.set("host", host_fingerprint());
    result.set("correct", correct);
    result.set("attempted", static_cast<double>(attempted_));
    result.set("failed", static_cast<double>(failed_));
    result.set("error_share", attempted_ ? static_cast<double>(failed_) / attempted_ : 1.0);
    result.set("metrics", end_to_end);
    result.set("details", details);
    if (options_.trace) result.set("per_layer", layers);
    Value failures = Value::array();
    for (const std::string& f : failures_) failures.push_back(f);
    result.set("failures", failures);
    result.set("notes", notes_);
    std::ofstream out(options_.out);
    out << json::dump(result) << '\n';
    if (!out) throw std::runtime_error("cannot write result file " + options_.out);
  }
  if (options_.trace && !options_.trace_out.empty()) tracer_.write(options_.trace_out);

  // The last stdout line: exactly the end-to-end metrics untraced, exactly
  // the per-layer metrics traced.
  Value last = Value::object();
  last.set("correct", correct);
  last.set("attempted", static_cast<double>(attempted_));
  last.set("failed", static_cast<double>(failed_));
  last.set("metrics", options_.trace ? layers : [&] {
    Value m = Value::object();
    for (const auto& [name, v] : end_to_end.as_object())
      m.set(name, metric(v.num_or("value", 0), v.str_or("unit", "")));
    return m;
  }());
  std::printf("%s\n", json::dump(last).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace e2e
