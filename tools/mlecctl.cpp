// mlecctl — command-line front end for the MLEC analysis library.
//
//   mlecctl <command> [--config FILE] [overrides...]
//
// Commands:
//   analyze      full deployment report (Table 2, traffic, dp durability)
//   estimate     PDL/nines via the estimation strategies, cross-validated
//   durability   dp nines for every scheme x repair method (Figure 10 view)
//   burst X Y    PDL of Y simultaneous failures over X racks (Figure 5 cell)
//   traffic      catastrophic-repair traffic per method (Figure 8 view)
//   repair       repair bandwidth and times (Table 2 / Figures 6, 9)
//   tradeoff     ~30%-overhead durability/throughput sweep (Figure 12 view)
//   chaos        fault-injection sweep: crash/corrupt/hang every registered
//                fault point and verify recovery (see analysis/chaos.hpp)
//   advise       apply the paper's §6.1 takeaways to a site profile
//   scenario     print an annotated scenario-file template
//   ec           show the erasure-coding data-plane backends (SIMD dispatch)
//
// Daemon commands (src/server/, newline-delimited JSON over TCP):
//   serve        run mlecd: accept submissions, dedup isomorphic scenarios,
//                memoize finished estimates, fair-share-schedule campaigns
//   submit       send the --config scenario to a running mlecd
//   status       job table, counters (cache hits), per-client fair-share spend
//   watch JOB    stream a job's progress events until it finishes
//   cancel JOB   cancel a queued or running job
//   shutdown     ask the daemon to exit cleanly
//
// --config FILE loads a scenario file (a deployment-only file is a valid
// scenario). Overrides (apply after --config): --code "(10+2)/(17+3)",
// --scheme C/D, --repair R_MIN, --afr 0.01, --detection-min 30, --racks N,
// --disks-per-enclosure N, --enclosures-per-rack N, --disk-tb N.
// Site profile flags for advise: --bursts, --devops, --nines N,
// --throughput-critical.
// Estimation flags for estimate: --method sim|split|dp|markov|all (default
// all; comma lists accepted), --json, --tolerance-nines X, --missions N,
// --split-missions N, --strict (unknown config keys are errors). The fleet
// Monte Carlo is `estimate --method=sim --missions N`.
// Campaign flags for estimate: --checkpoint FILE (each method journals to
// FILE.<method>, e.g. FILE.sim), --resume, --time-budget SECONDS,
// --target-rse X, --unit-budget N, --seed N, --checkpoint-every N (largest
// block of missions, the unit of randomness), --shard-timeout SECONDS
// (watchdog; 0 disables), --perf (print per-worker throughput and sim-core
// counters). Campaign workers follow MLEC_THREADS (else the hardware); the
// answer does not depend on them.
// Robustness flags: --faults "SPEC" arms a deterministic fault-injection
// schedule (same syntax as MLEC_FAULTS, see util/fault.hpp); --fail-fast
// makes quarantined blocks an error instead of a degraded partial estimate;
// chaos accepts --workdir DIR and --only SUBSTR (repeatable) to scope the
// sweep.
// Daemon flags: --host H --port P address mlecd (serve binds, the client
// commands connect; --port 0 binds an ephemeral port). serve also takes
// --state-dir DIR (durable ledger + campaign journals; empty = in-memory),
// --workers N (estimation pool size; 0 honors MLEC_THREADS, else hardware),
// --runners N (concurrent campaigns), --checkpoint-every (campaign
// default). submit takes --client NAME, --priority
// interactive|normal|batch, --method M, --wait (block for the estimate),
// and --json for the raw response.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/burst_pdl.hpp"
#include "analysis/chaos.hpp"
#include "analysis/crosscheck.hpp"
#include "analysis/repair_time.hpp"
#include "analysis/tradeoff.hpp"
#include "analysis/traffic.hpp"
#include "core/advisor.hpp"
#include "core/estimator.hpp"
#include "core/report.hpp"
#include "core/spec_io.hpp"
#include "ec/backend.hpp"
#include "placement/notation.hpp"
#include "server/chaos_cases.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "util/fault.hpp"
#include "util/ini.hpp"
#include "util/stop_token.hpp"
#include "util/table.hpp"

namespace {

using namespace mlec;

constexpr const char* kUsage =
    "usage: mlecctl <analyze|estimate|durability|burst|traffic|repair|tradeoff|\n"
    "                chaos|advise|scenario|ec|\n"
    "                serve|submit|status|watch|cancel|shutdown>\n"
    "               [--config FILE] [--strict] [--code \"(kn+pn)/(kl+pl)\"] [--scheme C/D]\n"
    "               [--repair R_MIN] [--afr F] [--detection-min M] [--racks N]\n"
    "               [--enclosures-per-rack N] [--disks-per-enclosure N] [--disk-tb N]\n"
    "               [--bursts] [--devops] [--nines N] [--throughput-critical]\n"
    "               [--method sim|split|dp|markov|all] [--json] [--tolerance-nines X]\n"
    "               [--missions N] [--split-missions N] [-h|--help]\n"
    "               [--checkpoint FILE] [--resume]\n"
    "               [--time-budget SECONDS] [--target-rse X] [--unit-budget N] [--seed N]\n"
    "               [--checkpoint-every N] [--shard-timeout SECONDS] [--faults \"SPEC\"]\n"
    "               [--fail-fast] [--workdir DIR] [--only SUBSTR] [--perf]\n"
    "               [--host H] [--port P] [--state-dir DIR] [--workers N] [--runners N]\n"
    "               [--client NAME] [--priority interactive|normal|batch] [--wait]\n";

/// A usage error: the message and the usage on stderr, exit status 2.
[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::cerr << "mlecctl: " << message << "\n\n";
  std::cerr << kUsage;
  std::exit(2);
}

/// --help / -h: the usage on stdout, exit status 0.
[[noreturn]] void help() {
  std::cout << kUsage;
  std::exit(0);
}

struct Options {
  Scenario scenario;
  DeploymentProfile profile;
  std::vector<std::string> positional;
  // estimate controls
  std::vector<std::string> methods;  ///< empty = all registered
  bool json = false;
  double tolerance_nines = 1.0;
  bool strict = false;
  // estimate campaign controls
  std::string checkpoint_path;
  bool resume = false;
  double time_budget_s = 0.0;
  double target_rse = 0.0;
  std::uint64_t unit_budget = 0;
  std::uint64_t checkpoint_every = 256;
  double shard_timeout_s = 0.0;  ///< watchdog deadline; 0 disables
  bool fail_fast = false;        ///< quarantined blocks error out vs degrade
  std::string faults;            ///< MLEC_FAULTS-syntax schedule from --faults
  // chaos controls
  std::string chaos_workdir;
  std::vector<std::string> chaos_only;
  bool perf = false;  ///< print per-worker throughput + sim-core counters
  // daemon controls (serve binds host:port, the client commands connect)
  std::string host = "127.0.0.1";
  int port = 7033;
  std::string state_dir;      ///< serve: durable ledger dir; empty = in-memory
  std::size_t workers = 0;    ///< serve: pool size; 0 = MLEC_THREADS/hardware
  std::size_t runners = 2;    ///< serve: concurrent campaign runner threads
  std::string client_name = "anonymous";  ///< submit: fair-share account
  std::string priority = "normal";        ///< submit: priority class
  bool wait = false;                      ///< submit: block for the estimate

  const SystemSpec& spec() const { return scenario.system; }
  SystemSpec& spec() { return scenario.system; }
};

std::vector<std::string> parse_method_list(const std::string& value) {
  std::vector<std::string> methods;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty() && item != "all") methods.push_back(item);
  return methods;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  opt.profile.required_nines = 25.0;
  // --strict must be known before --config is loaded, and --config must be
  // loaded before any other flag so overrides win regardless of argument
  // order (`--missions N --config f` must not be clobbered by the file).
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) opt.strict = true;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) help();
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string path;
    if (arg == "--config" && i + 1 < argc) path = argv[i + 1];
    else if (arg.rfind("--config=", 0) == 0) path = arg.substr(9);
    else continue;
    std::ifstream in(path);
    if (!in) usage(("cannot open config file " + path).c_str());
    SpecParsePolicy policy;
    policy.strict = opt.strict;
    opt.scenario = load_scenario(IniFile::parse(in), policy);
  }
  // Both "--flag value" and "--flag=value" are accepted.
  std::string inline_value;
  bool has_inline_value = false;
  auto need_value = [&](int& i) -> std::string {
    if (has_inline_value) {
      has_inline_value = false;
      return inline_value;
    }
    if (i + 1 >= argc) usage("missing value after flag");
    return argv[++i];
  };
  std::string arg;
  auto need_uint64 = [&](int& i) { return parse_uint64(need_value(i), arg); };
  for (int i = 2; i < argc; ++i) {
    arg = argv[i];
    has_inline_value = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline_value = true;
        arg.erase(eq);
      }
    }
    try {
      if (arg == "--config") {
        need_value(i);  // loaded in the pre-scan
      } else if (arg == "--strict") {
        // consumed in the pre-scan
      } else if (arg == "--code") {
        opt.spec().code = parse_mlec_code(need_value(i));
      } else if (arg == "--scheme") {
        opt.spec().scheme = parse_mlec_scheme(need_value(i));
      } else if (arg == "--repair") {
        opt.spec().repair = parse_repair_method(need_value(i));
      } else if (arg == "--afr") {
        opt.spec().afr = std::stod(need_value(i));
      } else if (arg == "--detection-min") {
        opt.spec().detection_hours = std::stod(need_value(i)) / 60.0;
      } else if (arg == "--racks") {
        opt.spec().dc.racks = need_uint64(i);
      } else if (arg == "--enclosures-per-rack") {
        opt.spec().dc.enclosures_per_rack = need_uint64(i);
      } else if (arg == "--disks-per-enclosure") {
        opt.spec().dc.disks_per_enclosure = need_uint64(i);
      } else if (arg == "--disk-tb") {
        opt.spec().dc.disk_capacity_tb = std::stod(need_value(i));
      } else if (arg == "--bursts") {
        opt.profile.frequent_failure_bursts = true;
      } else if (arg == "--devops") {
        opt.profile.has_devops_team = true;
      } else if (arg == "--throughput-critical") {
        opt.profile.throughput_critical = true;
      } else if (arg == "--nines") {
        opt.profile.required_nines = std::stod(need_value(i));
      } else if (arg == "--method") {
        opt.methods = parse_method_list(need_value(i));
      } else if (arg == "--json") {
        opt.json = true;
      } else if (arg == "--tolerance-nines") {
        opt.tolerance_nines = std::stod(need_value(i));
      } else if (arg == "--missions") {
        opt.scenario.missions = need_uint64(i);
      } else if (arg == "--split-missions") {
        opt.scenario.split_missions = need_uint64(i);
      } else if (arg == "--checkpoint") {
        opt.checkpoint_path = need_value(i);
      } else if (arg == "--resume") {
        opt.resume = true;
      } else if (arg == "--time-budget") {
        opt.time_budget_s = std::stod(need_value(i));
      } else if (arg == "--target-rse") {
        opt.target_rse = std::stod(need_value(i));
      } else if (arg == "--unit-budget") {
        opt.unit_budget = need_uint64(i);
      } else if (arg == "--checkpoint-every") {
        opt.checkpoint_every = need_uint64(i);
      } else if (arg == "--shard-timeout") {
        opt.shard_timeout_s = std::stod(need_value(i));
      } else if (arg == "--faults") {
        opt.faults = need_value(i);
      } else if (arg == "--fail-fast") {
        opt.fail_fast = true;
      } else if (arg == "--workdir") {
        opt.chaos_workdir = need_value(i);
      } else if (arg == "--only") {
        opt.chaos_only.push_back(need_value(i));
      } else if (arg == "--seed") {
        opt.scenario.seed = need_uint64(i);
      } else if (arg == "--perf") {
        opt.perf = true;
      } else if (arg == "--host") {
        opt.host = need_value(i);
      } else if (arg == "--port") {
        const std::uint64_t port = need_uint64(i);
        if (port > 65535) usage("--port: expected a port number in 0..65535");
        opt.port = static_cast<int>(port);
      } else if (arg == "--state-dir") {
        opt.state_dir = need_value(i);
      } else if (arg == "--workers") {
        opt.workers = need_uint64(i);
      } else if (arg == "--runners") {
        opt.runners = need_uint64(i);
      } else if (arg == "--client") {
        opt.client_name = need_value(i);
      } else if (arg == "--priority") {
        opt.priority = need_value(i);
      } else if (arg == "--wait") {
        opt.wait = true;
      } else if (!arg.empty() && arg[0] == '-') {
        usage(("unknown flag " + arg).c_str());
      } else {
        opt.positional.push_back(arg);
      }
      if (has_inline_value) usage(("flag " + arg + " does not take a value").c_str());
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }
  return opt;
}

int cmd_analyze(const Options& opt) {
  std::cout << deployment_report(opt.scenario);
  return 0;
}

/// Per-worker throughput plus the sim-core counters for one campaign-backed
/// run (`--perf`).
void print_perf(const std::string& title, const CampaignReport& rep, std::uint64_t trials,
                std::uint64_t events, std::uint64_t rng_draws) {
  Table t({"worker", "trials", "elapsed_s", "trials/s"});
  for (const auto& s : rep.shards)
    t.add_row({std::to_string(s.shard), std::to_string(s.done), Table::num(s.elapsed_s, 3),
               s.elapsed_s > 0.0
                   ? Table::num(static_cast<double>(s.done) / s.elapsed_s, 0)
                   : "-"});
  std::cout << t.to_ascii(title);
  std::cout << "  total: " << trials << " trials in " << Table::num(rep.elapsed_s, 3) << " s";
  if (rep.elapsed_s > 0.0)
    std::cout << " (" << Table::num(static_cast<double>(trials) / rep.elapsed_s, 0)
              << " trials/s)";
  std::cout << ", " << events << " events, " << rng_draws << " RNG draws\n";
}

int cmd_estimate(const Options& opt) {
  StopSource stop_source;
  stop_source.watch_signals();  // SIGINT/SIGTERM end campaigns at a block boundary
  if (opt.time_budget_s > 0.0) stop_source.set_deadline_after(opt.time_budget_s);

  CrosscheckOptions cc;
  cc.methods = opt.methods;
  cc.nines_tolerance = opt.tolerance_nines;
  cc.estimate.pool = &global_pool();
  cc.estimate.stop = stop_source.token();
  cc.estimate.checkpoint_path = opt.checkpoint_path;
  cc.estimate.resume = opt.resume;
  cc.estimate.target_rse = opt.target_rse;
  cc.estimate.unit_budget = opt.unit_budget;
  cc.estimate.checkpoint_every = opt.checkpoint_every;
  cc.estimate.shard_timeout_s = opt.shard_timeout_s;
  cc.estimate.degrade = opt.fail_fast ? DegradePolicy::kFailFast : DegradePolicy::kDegrade;
  cc.fail_fast = opt.fail_fast;

  const CrosscheckReport report = run_crosscheck(opt.scenario, cc);
  if (opt.json)
    std::cout << report.json() << '\n';
  else
    std::cout << report.table();
  if (opt.perf) {
    for (const auto& row : report.rows) {
      if (!row.ran() || row.estimate.campaign.shards.empty()) continue;
      print_perf("perf, method " + row.method, row.estimate.campaign, row.estimate.samples,
                 row.estimate.events_processed, row.estimate.rng_draws);
    }
  }
  if (report.methods_run() == 0) {
    std::cerr << "mlecctl: no estimate: every requested method was skipped or failed (";
    const char* sep = "";
    for (const auto& row : report.rows) {
      std::cerr << sep << row.method << (row.applicable ? " failed" : " skipped");
      sep = ", ";
    }
    std::cerr << ")\n";
    return 5;
  }
  if (!report.agreed()) {
    std::cerr << "mlecctl: estimation methods diverge beyond " << opt.tolerance_nines
              << " nines\n";
    return 3;
  }
  return 0;
}

int cmd_durability(const Options& opt) {
  Table t({"scheme", "R_ALL", "R_FCO", "R_HYB", "R_MIN"});
  const Estimator& dp = *find_estimator("dp");
  for (auto scheme : kAllMlecSchemes) {
    std::vector<std::string> row{to_string(scheme)};
    for (auto method : kAllRepairMethods) {
      Scenario cell = opt.scenario;
      cell.system.scheme = scheme;
      cell.system.repair = method;
      try {
        row.push_back(Table::num(dp.estimate(cell).nines, 1));
      } catch (const PreconditionError&) {
        row.push_back("n/a");  // placement constraints unmet, or outside dp's domain
      }
    }
    t.add_row(std::move(row));
  }
  std::cout << t.to_ascii("durability (nines over the mission), " + opt.spec().code.notation());
  return 0;
}

int cmd_burst(const Options& opt) {
  if (opt.positional.size() != 2) usage("burst needs: mlecctl burst <racks> <failures>");
  const std::size_t racks = parse_uint64(opt.positional[0], "burst <racks>");
  const std::size_t failures = parse_uint64(opt.positional[1], "burst <failures>");
  BurstPdlConfig cfg = opt.scenario.burst_config();
  cfg.trials_per_cell = 4000;
  const BurstPdlEngine engine(cfg);
  const double pdl = engine.mlec_cell(opt.spec().code, opt.spec().scheme, racks, failures);
  std::cout << "PDL(" << failures << " failures over " << racks << " racks, "
            << to_string(opt.spec().scheme) << " " << opt.spec().code.notation()
            << ") = " << Table::num(pdl, 4) << '\n';
  return 0;
}

int cmd_traffic(const Options& opt) {
  Table t({"method", "cross_rack_TB", "local_TB"});
  for (auto method : kAllRepairMethods) {
    const auto traffic =
        catastrophic_injection_traffic(opt.spec().dc, opt.spec().code, opt.spec().scheme, method);
    t.add_row({to_string(method), Table::num(traffic.cross_rack_tb(), 2),
               Table::num(traffic.local_tb(), 2)});
  }
  std::cout << t.to_ascii("catastrophic local pool repair traffic, " +
                          to_string(opt.spec().scheme) + " " + opt.spec().code.notation());
  return 0;
}

int cmd_repair(const Options& opt) {
  const RepairTimeModel model(opt.spec().dc, opt.spec().bandwidth, opt.spec().code);
  const auto row = model.table2_row(opt.spec().scheme);
  Table t({"quantity", "value"});
  t.add_row({"single-disk repair bandwidth (MB/s)", Table::num(row.single_disk_mbps, 0)});
  t.add_row({"single-disk repair time (h)",
             Table::num(model.single_disk_repair_hours(opt.spec().scheme), 1)});
  t.add_row({"pool size (TB)", Table::num(row.pool_size_tb)});
  t.add_row({"pool repair bandwidth (MB/s)", Table::num(row.pool_mbps, 0)});
  t.add_row({"pool repair time, R_ALL (h)",
             Table::num(model.catastrophic_repair_hours(opt.spec().scheme), 1)});
  const auto mt = model.method_repair_time(opt.spec().scheme, opt.spec().repair);
  t.add_row({"catastrophe repair w/ " + to_string(opt.spec().repair) + " (h, net+local)",
             Table::num(mt.network_hours, 1) + " + " + Table::num(mt.local_hours, 1)});
  std::cout << t.to_ascii("repair profile, " + to_string(opt.spec().scheme) + " " +
                          opt.spec().code.notation());
  return 0;
}

int cmd_tradeoff(const Options& opt) {
  const auto points = mlec_tradeoff(opt.scenario.durability_env(), opt.spec().scheme,
                                    opt.spec().repair, OverheadBand{},
                                    /*measure_encoding=*/true);
  Table t({"config", "overhead_%", "nines", "encode_GBps"});
  for (const auto& pt : points)
    t.add_row({pt.label, Table::num(100 * pt.overhead, 1), Table::num(pt.nines, 1),
               Table::num(pt.encode_gbps, 2)});
  std::cout << t.to_ascii("~30% overhead sweep, " + to_string(opt.spec().scheme) + " with " +
                          to_string(opt.spec().repair));
  return 0;
}

int cmd_chaos(const Options& opt) {
  ChaosOptions chaos;
  chaos.workdir = opt.chaos_workdir;
  chaos.only = opt.chaos_only;
  // The daemon's cases plug into the sweep here: analysis cannot link the
  // server, but the coverage check still demands its fault points fire.
  chaos.fork_phase = server::fork_chaos_cases();
  chaos.late_phase = server::late_chaos_cases();
  // A full sweep runs a campaign per case; keep the per-case cost modest
  // unless the scenario explicitly asked for more.
  Scenario scenario = opt.scenario;
  if (scenario.missions > 512) scenario.missions = 512;
  const ChaosReport report = run_chaos(scenario, chaos);
  std::cout << report.table();
  if (!report.all_passed()) {
    std::cerr << "mlecctl: " << report.failures() << " chaos case(s) failed\n";
    return 4;
  }
  return 0;
}

int cmd_serve(const Options& opt) {
  ThreadPool pool(opt.workers);  // 0 honors MLEC_THREADS, else hardware
  // Read-only getenv during single-threaded CLI startup.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* source = opt.workers > 0              ? "--workers"
                       : std::getenv("MLEC_THREADS") ? "MLEC_THREADS"
                                                      : "hardware";
  server::ServiceConfig config;
  config.state_dir = opt.state_dir;
  config.pool = &pool;
  config.runners = opt.runners;
  config.checkpoint_every = opt.checkpoint_every;

  server::EstimationService service(config);
  server::Server daemon(service, server::ServerConfig{opt.host, opt.port});
  service.start();
  daemon.start();
  std::cout << "mlecd: " << pool.size() << " pool workers (" << source << "), "
            << opt.runners << " campaign runners\n"
            << "mlecd: state "
            << (opt.state_dir.empty() ? std::string("in-memory (no resume)")
                                      : "dir " + opt.state_dir)
            << "\nmlecd: listening on " << opt.host << ":" << daemon.port()
            << std::endl;
  daemon.wait_shutdown();
  std::cout << "mlecd: shutdown requested, checkpointing campaigns" << std::endl;
  daemon.stop();
  service.stop();
  return 0;
}

/// Render a wire Estimate for humans; the JSON path prints raw responses.
void print_wire_estimate(const json::Value& value) {
  const Estimate est = server::estimate_from_json(value);
  Table t({"quantity", "value"});
  t.add_row({"PDL", Table::num(est.pdl, 4)});
  t.add_row({"PDL 95% CI", Table::num(est.pdl_lo, 4) + " .. " + Table::num(est.pdl_hi, 4)});
  t.add_row({"durability (nines)", Table::num(est.nines, 2)});
  t.add_row({"samples", std::to_string(est.samples)});
  if (est.degraded) t.add_row({"degraded", est.degrade_note});
  std::cout << t.to_ascii("estimate, method " + est.method);
}

/// One-shot request helper shared by the client subcommands: send, check
/// ok, return the response (exits via the caller on ok:false).
json::Value server_roundtrip(const Options& opt, const json::Value& req, int& rc) {
  server::Client client(opt.host, opt.port);
  const json::Value resp = client.request(req);
  rc = resp.bool_or("ok", false) ? 0 : 1;
  return resp;
}

int cmd_submit(const Options& opt) {
  if (opt.methods.size() > 1) usage("submit takes a single --method");
  json::Value req = json::Value::object();
  req.set("op", "submit");
  // The daemon canonicalizes again; sending the parsed scenario keeps the
  // usual override flags (--code, --seed, ...) working for submissions.
  req.set("scenario_ini", format_scenario(opt.scenario));
  req.set("method", opt.methods.empty() ? std::string("dp") : opt.methods[0]);
  req.set("client", opt.client_name);
  req.set("priority", opt.priority);
  if (opt.target_rse > 0.0) req.set("rse_target", opt.target_rse);
  if (opt.wait) req.set("wait", true);

  int rc = 0;
  const json::Value resp = server_roundtrip(opt, req, rc);
  if (opt.json) {
    std::cout << json::dump(resp) << '\n';
    return rc;
  }
  if (rc != 0) {
    std::cerr << "mlecctl: " << resp.str_or("error", "submit failed") << '\n';
    return rc;
  }
  std::cout << "job " << resp.str_or("job", "-") << ", fingerprint "
            << resp.str_or("fingerprint", "-");
  if (resp.bool_or("cached", false)) std::cout << " (memo cache hit)";
  if (resp.bool_or("joined", false)) std::cout << " (joined identical in-flight job)";
  std::cout << '\n';
  if (const json::Value* est = resp.get("estimate"))
    print_wire_estimate(*est);
  else if (opt.wait)
    std::cout << "final state: " << resp.str_or("state", "?") << '\n';
  return 0;
}

int cmd_status(const Options& opt) {
  json::Value req = json::Value::object();
  req.set("op", "status");
  int rc = 0;
  const json::Value resp = server_roundtrip(opt, req, rc);
  if (opt.json) {
    std::cout << json::dump(resp) << '\n';
    return rc;
  }
  if (rc != 0) {
    std::cerr << "mlecctl: " << resp.str_or("error", "status failed") << '\n';
    return rc;
  }
  Table jobs({"job", "client", "method", "priority", "state", "progress", "rse"});
  if (const json::Value* list = resp.get("jobs")) {
    for (const json::Value& j : list->as_array()) {
      const std::string total = j.str_or("units_total", "0");
      jobs.add_row({j.str_or("id", "-"), j.str_or("client", "-"), j.str_or("method", "-"),
                    j.str_or("priority", "-"), j.str_or("state", "-"),
                    total == "0" ? "-" : j.str_or("units_done", "0") + "/" + total,
                    Table::num(j.num_or("rse", 0.0), 4)});
    }
  }
  std::cout << jobs.to_ascii("mlecd jobs, " + opt.host + ":" + std::to_string(opt.port));
  Table accounting({"counter", "value"});
  if (const json::Value* counters = resp.get("counters"))
    for (const auto& [key, value] : counters->as_object())
      accounting.add_row({key, value.as_string()});
  if (const json::Value* spent = resp.get("spent_by_client"))
    for (const auto& [client, tokens] : spent->as_object())
      accounting.add_row({"spent[" + client + "]", tokens.as_string()});
  std::cout << accounting.to_ascii("counters and fair-share spend");
  return 0;
}

int cmd_watch(const Options& opt) {
  if (opt.positional.size() != 1) usage("watch needs: mlecctl watch <job-id>");
  json::Value req = json::Value::object();
  req.set("op", "watch");
  req.set("job", opt.positional[0]);
  server::Client client(opt.host, opt.port);
  int rc = 0;
  client.stream(req, [&](const json::Value& event) {
    if (opt.json) {
      std::cout << json::dump(event) << std::endl;
    } else if (event.get("error") != nullptr) {
      std::cerr << "mlecctl: " << event.str_or("error", "watch failed") << '\n';
      rc = 1;
      return false;
    } else {
      const std::string kind = event.str_or("event", "?");
      std::cout << event.str_or("job", "-") << ": " << kind;
      if (kind == "progress")
        std::cout << ", " << event.str_or("units_done", "0") << "/"
                  << event.str_or("units_total", "0") << " units, rse "
                  << Table::num(event.num_or("rse", 0.0), 4);
      std::cout << std::endl;
      if (kind == "done" || kind == "cancelled" || kind == "failed" || kind == "interrupted") {
        if (const json::Value* est = event.get("estimate")) print_wire_estimate(*est);
        rc = kind == "done" ? 0 : 1;
        return false;
      }
    }
    return true;
  });
  return rc;
}

int cmd_cancel(const Options& opt) {
  if (opt.positional.size() != 1) usage("cancel needs: mlecctl cancel <job-id>");
  json::Value req = json::Value::object();
  req.set("op", "cancel");
  req.set("job", opt.positional[0]);
  int rc = 0;
  const json::Value resp = server_roundtrip(opt, req, rc);
  if (opt.json) {
    std::cout << json::dump(resp) << '\n';
    return rc;
  }
  if (rc != 0) {
    std::cerr << "mlecctl: " << resp.str_or("error", "cancel failed") << '\n';
    return rc;
  }
  const bool cancelled = resp.bool_or("cancelled", false);
  std::cout << opt.positional[0] << (cancelled ? ": cancelled" : ": already terminal or unknown")
            << '\n';
  return cancelled ? 0 : 1;
}

int cmd_shutdown(const Options& opt) {
  json::Value req = json::Value::object();
  req.set("op", "shutdown");
  int rc = 0;
  server_roundtrip(opt, req, rc);
  if (rc == 0) std::cout << "mlecd at " << opt.host << ":" << opt.port << " shutting down\n";
  return rc;
}

int cmd_advise(const Options& opt) {
  const auto rec = advise(opt.profile);
  std::cout << "recommendation: " << rec.summary() << '\n';
  for (const auto& line : rec.rationale) std::cout << "  - " << line << '\n';
  return 0;
}

int cmd_ec() {
  // active_backend() resolves MLEC_EC_BACKEND on first use and throws on an
  // unknown or unsupported value; report that and exit non-zero rather than
  // printing a matrix that claims some other backend is in charge.
  // Read-only getenv during single-threaded CLI startup.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* forced = std::getenv("MLEC_EC_BACKEND");
  ec::Backend active;
  try {
    active = ec::active_backend();
  } catch (const std::exception& e) {
    std::cerr << "mlecctl: " << e.what() << '\n';
    return 1;
  }
  const ec::Backend detected = ec::detect_backend();
  std::cout << "erasure-coding data plane (src/ec/):\n"
            << "  active backend:   " << ec::to_string(active) << '\n'
            << "  detected best:    " << ec::to_string(detected) << '\n'
            << "  forced via env:   " << (forced && *forced ? forced : "(unset)") << '\n'
            << '\n'
            << "  backend   built  host   usable  state\n";
  for (const auto b : ec::kAllBackends) {
    const bool built = ec::backend_built(b);
    const bool host = ec::backend_host_supported(b);
    std::string state;
    if (b == active) state = "active";
    if (b == detected) state += state.empty() ? "detected-best" : ", detected-best";
    std::cout << "  " << std::left << std::setw(10) << ec::to_string(b) << std::setw(7)
              << (built ? "yes" : "no") << std::setw(7) << (host ? "yes" : "no") << std::setw(8)
              << (ec::backend_supported(b) ? "yes" : "no") << state << '\n';
  }
  std::cout << "\n  force via env:    MLEC_EC_BACKEND=scalar|avx2|avx512|gfni|auto\n"
            << "  (unknown or unsupported values fail instead of falling back)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") help();
  if (command == "ec") return cmd_ec();
  try {
    const Options opt = parse_options(argc, argv);
    // Arm the fault-injection schedule before any command runs; the chaos
    // harness manages its own schedules and refuses to start with one armed.
    if (!opt.faults.empty()) fault::configure(opt.faults);
    if (command == "analyze") return cmd_analyze(opt);
    if (command == "estimate") return cmd_estimate(opt);
    if (command == "durability") return cmd_durability(opt);
    if (command == "burst") return cmd_burst(opt);
    if (command == "traffic") return cmd_traffic(opt);
    if (command == "repair") return cmd_repair(opt);
    if (command == "tradeoff") return cmd_tradeoff(opt);
    if (command == "chaos") return cmd_chaos(opt);
    if (command == "serve") return cmd_serve(opt);
    if (command == "submit") return cmd_submit(opt);
    if (command == "status") return cmd_status(opt);
    if (command == "watch") return cmd_watch(opt);
    if (command == "cancel") return cmd_cancel(opt);
    if (command == "shutdown") return cmd_shutdown(opt);
    if (command == "advise") return cmd_advise(opt);
    if (command == "scenario") {
      std::cout << example_scenario();
      return 0;
    }
    usage(("unknown command " + command).c_str());
  } catch (const std::exception& e) {
    std::cerr << "mlecctl: " << e.what() << '\n';
    return 1;
  }
}
