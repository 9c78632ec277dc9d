// bench_e2e: the end-to-end time-to-answer benchmark (README.md).
//
//   bench_e2e --workload paper_scale|toy_campaign|mlecd_mix|ec_rebuild
//             --seed N --seconds S --trace 0|1
//             [--repo-root DIR] [--work-dir DIR] [--out FILE]
//             [--trace-out FILE] [--baseline FILE] [--commit SHA]
//
// One process runs one workload: repeated set-ups, a warm-up, then passes
// over a request list generated from --seed until --seconds have passed
// (at least two). Untraced, the last stdout line is the JSON object
// {"correct","attempted","failed","metrics"} with every end-to-end metric;
// traced, it carries every per-layer metric instead. The exit code is 0
// only when every answer checked out.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;

const std::map<std::string, std::function<void(e2e::Run&)>>& workloads() {
  static const std::map<std::string, std::function<void(e2e::Run&)>> table = {
      {"paper_scale", e2e::run_paper_scale},
      {"toy_campaign", e2e::run_toy_campaign},
      {"mlecd_mix", e2e::run_mlecd_mix},
      {"ec_rebuild", e2e::run_ec_rebuild},
  };
  return table;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--repo-root DIR] [--work-dir DIR] [--out FILE]\n"
               "                 [--trace-out FILE] [--baseline FILE] [--commit SHA]\n"
               "workloads: paper_scale toy_campaign mlecd_mix ec_rebuild\n",
               why.c_str());
  std::exit(2);
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options opt;
  opt.work_dir = "build-e2e/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--repo-root") opt.repo_root = value();
      else if (arg == "--work-dir") opt.work_dir = value();
      else if (arg == "--out") opt.out = value();
      else if (arg == "--trace-out") opt.trace_out = value();
      else if (arg == "--baseline") opt.baseline = value();
      else if (arg == "--commit") opt.commit = value();
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (workloads().count(opt.workload) == 0) usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  // A private scratch dir per process, removed at exit.
  opt.work_dir =
      (fs::path(opt.work_dir) / (opt.workload + "-" + std::to_string(::getpid()))).string();
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options opt = parse(argc, argv);
  try {
    e2e::check_layer_metrics((fs::path(opt.repo_root) / "BENCHMARK.json").string());
    fs::create_directories(opt.work_dir);
    e2e::Run run(opt);
    {
      e2e::Span span(run.tracer(), opt.workload, "workload");
      run.tracer().set_root(span.id());
      workloads().at(opt.workload)(run);
      run.end_workload();
      if (opt.trace) e2e::run_probes(run);
    }
    fs::remove_all(opt.work_dir);
    return run.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", opt.workload.c_str(), e.what());
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    return 3;
  }
}
