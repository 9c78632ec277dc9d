// Per-layer probes of the traced run. Each probe times public calls of one
// layer on fixed-size inputs drawn from the run's seed, so every workload's
// traced run reports the same metric set. The `moves` / `on` columns are
// the predictions a layer change is judged against (README.md).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "analysis/fleet_sim.hpp"
#include "core/spec_io.hpp"
#include "ec/decode.hpp"
#include "ec/stream.hpp"
#include "runtime/campaign.hpp"
#include "runtime/journal.hpp"
#include "server/client.hpp"
#include "server/store.hpp"
#include "sim/local_pool_sim.hpp"
#include "workloads.hpp"

namespace e2e {

namespace fs = std::filesystem;
using mlec::ThreadPool;

const std::vector<LayerMetric>& layer_metrics() {
  // `moves` names the end-to-end metric (with the workload's detail view in
  // parentheses); "none" marks a durable path no untraced workload runs.
  static const std::vector<LayerMetric> table = {
      {"core.load_scenario_us", "us", "setup_s; answer_s (mlecd_miss_p50_ms)", "all; mlecd_mix"},
      {"core.canonicalize_us", "us", "answer_s (mlecd_hit_p50_ms)", "mlecd_mix"},
      {"analysis.fleet_context_ms", "ms", "answer_s (sim_tta_s)", "paper_scale; not mlecd_mix"},
      {"analysis.mission_us", "us", "answer_s (sim_tta_s)", "paper_scale; not mlecd_mix"},
      {"analysis.events_per_mission", "count", "answer_s (sim_tta_s)",
       "paper_scale; not mlecd_mix"},
      {"analysis.rng_draws_per_mission", "count", "answer_s (sim_tta_s)",
       "paper_scale; not mlecd_mix"},
      {"sim.pool_mission_us", "us", "answer_s (split_tta_s)", "paper_scale, toy_campaign"},
      {"runtime.commits", "count", "answer_s (split_tta_s)", "toy_campaign; not paper_scale"},
      {"runtime.commit_us", "us", "answer_s (split_tta_s)", "toy_campaign; not paper_scale"},
      {"runtime.journal_commit_ms", "ms", "none", "durable campaigns (probe only)"},
      {"runtime.fsync_ms", "ms", "none", "durable campaigns and mlecd state (probe only)"},
      {"runtime.rse_overshoot", "ratio", "answer_s (sim_tta_s, split_tta_s)", "paper_scale"},
      {"runtime.shard_busy_share", "share", "answer_s (sim_tta_s)", "paper_scale"},
      {"runtime.idle_shard_share", "share", "answer_s (sim_tta_s)", "paper_scale"},
      {"util.pool_dispatch_us", "us", "answer_s (rebuild_gbps; split_tta_s)",
       "ec_rebuild; toy_campaign"},
      {"server.ping_rtt_us", "us", "answer_s (mlecd_hit_p50_ms)", "mlecd_mix"},
      {"server.submit_hit_us", "us", "answer_s (mlecd_hit_p50_ms)", "mlecd_mix"},
      {"server.queue_wait_ms", "ms", "answer_s (mlecd_miss_p90_ms)", "mlecd_mix"},
      {"server.store_save_ms", "ms", "none", "durable mlecd state (probe only)"},
      {"server.state_bytes", "B", "none", "durable mlecd state (probe only)"},
      {"server.hit_share", "share", "answer_s (mlecd_req_per_s)", "mlecd_mix"},
      {"server.join_share", "share", "answer_s (mlecd_req_per_s)", "mlecd_mix"},
      {"server.miss_count", "count", "answer_s (mlecd_req_per_s)", "mlecd_mix"},
      {"ec.plan_build_us", "us", "answer_s (rebuild_gbps)", "ec_rebuild; not paper_scale"},
      {"gf.plan_lookup_us", "us", "answer_s (rebuild_gbps)", "ec_rebuild; not paper_scale"},
      {"ec.decode_gbps_1t", "GB/s", "answer_s (rebuild_gbps)", "ec_rebuild; not paper_scale"},
      {"ec.decode_parallel_gbps.t1", "GB/s", "answer_s (rebuild_gbps)",
       "ec_rebuild; not paper_scale"},
      {"ec.decode_parallel_gbps.t2", "GB/s", "answer_s (rebuild_gbps)",
       "ec_rebuild; not paper_scale"},
      {"ec.decode_parallel_gbps.t4", "GB/s", "answer_s (rebuild_gbps)",
       "ec_rebuild; not paper_scale"},
      {"mem.ceiling_gbps", "GB/s", "answer_s (rebuild_gbps)", "ec_rebuild; not paper_scale"},
      {"ec.fraction_of_ceiling", "share", "answer_s (rebuild_gbps)", "ec_rebuild; not paper_scale"},
  };
  return table;
}

namespace {

double micros(Clock::time_point start) { return seconds_since(start) * 1e6; }

/// A fresh, empty directory under the run's work dir.
fs::path fresh_dir(const Run& run, const std::string& stem) {
  const fs::path dir = fs::path(run.options().work_dir) / stem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Median per-call microseconds of `reps` timed calls.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    us.push_back(micros(start));
  }
  return quantile(us, 0.5);
}

std::string paper_sim_ini() { return paper_scale_ini("(9+1)/(18+2)", 0.3); }

void probe_core(Run& run) {
  Span span(run.tracer(), "probe core", "probe");
  const std::string ini = paper_sim_ini();
  mlec::Scenario scenario;
  run.add_layer("core.load_scenario_us", median_us(200, [&] { scenario = load_checked(ini); }));
  run.add_layer("core.canonicalize_us", median_us(200, [&] {
                  mlec::format_scenario(scenario);
                  mlec::scenario_fingerprint(scenario);
                }));
}

void probe_analysis(Run& run) {
  Span span(run.tracer(), "probe analysis", "probe");
  const mlec::FleetSimConfig config = load_checked(paper_sim_ini()).fleet_config();
  run.add_layer("analysis.fleet_context_ms",
                median_us(5, [&] { mlec::make_fleet_context(config); }) / 1e3);
  mlec::FleetMissionEngine engine(mlec::make_fleet_context(config));
  mlec::Rng rng = mlec::Rng::for_substream(run.seed(), 0x200);
  mlec::FleetSimResult result;
  constexpr int kMissions = 40;
  run.add_layer("analysis.mission_us", median_us(3, [&] {
                  for (int i = 0; i < kMissions; ++i) engine.run_mission(rng, result);
                }) / kMissions);
  const double missions = static_cast<double>(result.missions);
  run.add_layer("analysis.events_per_mission",
                static_cast<double>(result.events_processed) / missions);
  run.add_layer("analysis.rng_draws_per_mission", static_cast<double>(result.rng_draws) / missions);
}

void probe_sim(Run& run) {
  Span span(run.tracer(), "probe sim", "probe");
  const mlec::LocalPoolSimConfig config =
      load_checked(paper_scale_ini("(10+2)/(17+3)", 0.3)).local_pool_config();
  mlec::Rng rng = mlec::Rng::for_substream(run.seed(), 0x201);
  constexpr int kMissions = 30000;
  run.add_layer("sim.pool_mission_us", median_us(3, [&] {
                  mlec::simulate_local_pool(config, kMissions, rng);
                }) / kMissions);
}

/// A campaign of no-op units committing after every unit, on the calling
/// thread: what the runner itself costs per commit, including the merged
/// adaptive-stopping check over 8 shards (its target is never reached).
double commit_cost_us(std::uint64_t units, const std::string& journal, std::uint64_t seed) {
  mlec::CampaignConfig config;
  config.total_units = units;
  config.seed = seed;
  config.shards = 8;
  config.checkpoint_every = 1;
  config.checkpoint_path = journal;
  config.target_rse = 1e-9;
  mlec::CampaignRunner runner(
      config,
      [](std::uint32_t, mlec::Rng& rng) {
        return [&rng](mlec::CampaignAccumulator& acc) {
          ++acc.counter("units");
          acc.counter("hits") += rng.uniform_below(8) == 0 ? 1 : 0;
        };
      },
      [](const mlec::CampaignAccumulator& merged) {
        return mlec::bernoulli_rse(merged.counter("hits"), merged.counter("units"));
      });
  const auto start = Clock::now();
  runner.run();
  return micros(start) / static_cast<double>(units);
}

void probe_runtime(Run& run) {
  Span span(run.tracer(), "probe runtime", "probe");
  const fs::path dir = fresh_dir(run, "probe-runtime");
  run.add_layer("runtime.commit_us", commit_cost_us(20000, "", run.seed()));
  const std::string journal = (dir / "campaign").string();
  run.add_layer("runtime.journal_commit_ms", commit_cost_us(200, journal, run.seed()) / 1e3);
  const std::string bytes(fs::file_size(journal), 'j');
  const std::string target = (dir / "bytes").string();
  run.add_layer("runtime.fsync_ms",
                median_us(50, [&] { mlec::save_bytes_durable(target, bytes); }) / 1e3);
  fs::remove_all(dir);

  // Campaign structure of a real adaptive-stopping run: crosscheck_mlec's
  // sim to RSE 0.05, in memory.
  constexpr double kTarget = 0.05;
  mlec::Scenario scenario = load_checked(crosscheck_ini(run, "mlec"));
  scenario.missions = 100'000'000;
  scenario.seed = run.seed();
  ThreadPool pool(run.nproc());
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> first_at_target{0};
  mlec::EstimateOptions options;
  options.pool = &pool;
  options.target_rse = kTarget;
  options.progress = [&](const mlec::CampaignProgress& p) {
    commits.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t none = 0;
    if (p.achieved_rse > 0.0 && p.achieved_rse <= kTarget)
      first_at_target.compare_exchange_strong(none, p.units_done);
  };
  const mlec::Estimate e = mlec::find_estimator("sim")->estimate(scenario, options);
  run.request("probe sim crosscheck_mlec", estimate_error(e, true, -1.0));
  double busy = 0.0;
  double idle = 0.0;
  for (const mlec::ShardOutcome& shard : e.campaign.shards) {
    busy += shard.elapsed_s;
    idle += shard.done == 0 ? 1.0 : 0.0;
  }
  const double shards = static_cast<double>(std::max<std::size_t>(1, e.campaign.shards.size()));
  run.add_layer("runtime.commits", static_cast<double>(commits.load()));
  const std::uint64_t at_target = first_at_target.load();
  run.add_layer("runtime.rse_overshoot",
                at_target ? static_cast<double>(e.samples) / static_cast<double>(at_target) : 0.0);
  run.add_layer("runtime.shard_busy_share",
                busy / (static_cast<double>(pool.size()) * std::max(e.campaign.elapsed_s, 1e-9)));
  run.add_layer("runtime.idle_shard_share", idle / shards);
}

void probe_util(Run& run) {
  Span span(run.tracer(), "probe util", "probe");
  ThreadPool pool(run.nproc());
  constexpr int kDispatches = 400;
  run.add_layer("util.pool_dispatch_us", median_us(5, [&] {
                  for (int i = 0; i < kDispatches; ++i)
                    pool.parallel_for(0, pool.size(), [](std::size_t) {});
                }) / kDispatches);
}

void probe_server(Run& run) {
  Span span(run.tracer(), "probe server", "probe");
  constexpr std::size_t kKeys = 40;
  constexpr std::size_t kRequests = 400;
  const std::vector<Value> keys = mlecd_population(run, kKeys);
  const std::vector<std::size_t> seq = zipf_sequence(run, kKeys, kRequests);
  mlec::server::Store ledger("");
  {
    Daemon daemon("", run.nproc());
    {
      mlec::server::Client client("127.0.0.1", daemon.port());
      Value ping = Value::object();
      ping.set("op", "ping");
      run.add_layer("server.ping_rtt_us", median_us(200, [&] { client.request(ping); }));
    }

    // A small closed loop of the mlecd_mix shape; the service's own
    // counters classify the submissions.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> errors{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < std::min<std::size_t>(run.nproc(), 4); ++c) {
      threads.emplace_back([&] {
        try {
          mlec::server::Client client("127.0.0.1", daemon.port());
          for (std::size_t i = next.fetch_add(1); i < seq.size(); i = next.fetch_add(1))
            if (!client.request(keys[seq[i]]).bool_or("ok", false)) errors.fetch_add(1);
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    run.request("probe mlecd traffic",
                errors.load() ? std::to_string(errors.load()) + " requests failed" : "");
    auto counters = daemon.service().status().counters;
    const double submissions =
        static_cast<double>(std::max<std::uint64_t>(1, counters["submissions"]));
    run.add_layer("server.hit_share", static_cast<double>(counters["cache_hits"]) / submissions);
    run.add_layer("server.join_share", static_cast<double>(counters["joined"]) / submissions);
    run.add_layer("server.miss_count", static_cast<double>(counters["completed"]));

    // In-process submit of a key that is already answered (no socket).
    const Value& hit = keys[seq.front()];
    mlec::server::SubmitRequest request;
    request.scenario_ini = hit.str_or("scenario_ini", "");
    request.method = hit.str_or("method", "dp");
    request.seed = mlec::json::u64_from_string(hit.str_or("seed", "1"));
    run.add_layer("server.submit_hit_us",
                  median_us(200, [&] { daemon.service().submit(request); }));

    // Submit -> first event, on keys outside the population's seeds. The
    // service may call a sink copy after unsubscribe() returns, so the
    // sink owns what it writes.
    std::vector<double> waits;
    for (int i = 0; i < 5; ++i) {
      request.method = "split";
      request.seed = 1'000'000'000ULL + static_cast<std::uint64_t>(i);
      struct FirstEvent {
        std::atomic<bool> seen{false};
        std::atomic<double> ms{0.0};
      };
      auto first = std::make_shared<FirstEvent>();
      const auto start = Clock::now();
      const auto outcome = daemon.service().submit(request);
      const std::uint64_t token =
          daemon.service().subscribe(outcome.job_id, [first, start](const Value&) {
            if (!first->seen.exchange(true)) first->ms.store(seconds_since(start) * 1e3);
          });
      const auto job = daemon.service().wait(outcome.job_id);
      if (token != 0) daemon.service().unsubscribe(token);
      for (int spin = 0; spin < 1000 && !first->seen.load(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      run.request("probe queue wait", job.state != "done" ? "job ended " + job.state
                                      : !first->seen.load() ? "no event delivered"
                                                            : "");
      waits.push_back(first->ms.load());
    }
    run.add_layer("server.queue_wait_ms", quantile(waits, 0.5));
    daemon.service().stop();
    ledger = daemon.service().store();
  }

  // Store::save, durable, at the mlecd_mix ledger size (one job per key),
  // built by repeating the probe's own jobs and answers.
  const fs::path dir = fresh_dir(run, "probe-store");
  mlec::server::Store store(dir.string());
  const std::vector<mlec::server::StoredJob>& jobs = ledger.jobs;
  const auto& memo = ledger.memo;
  for (std::size_t i = 0; !jobs.empty() && !memo.empty() && store.jobs.size() < kMlecdKeys; ++i) {
    mlec::server::StoredJob copy = jobs[i % jobs.size()];
    copy.id = "copy-" + std::to_string(i);
    store.jobs.push_back(std::move(copy));
    const auto& [key, estimate] = *std::next(memo.begin(), static_cast<long>(i % memo.size()));
    store.memo[key + "#" + std::to_string(i)] = estimate;
  }
  run.add_layer("server.store_save_ms", median_us(20, [&] { store.save(); }) / 1e3);
  run.add_layer("server.state_bytes", static_cast<double>(fs::file_size(dir / "state.json")));
  fs::remove_all(dir);
}

/// Gigabytes per second of `bytes_per_call` over `calls` calls of fn.
template <typename Fn>
double gbps(double bytes_per_call, int calls, Fn&& fn) {
  const auto start = Clock::now();
  for (int i = 0; i < calls; ++i) fn();
  return bytes_per_call * calls / seconds_since(start) / 1e9;
}

void probe_ec(Run& run) {
  Span span(run.tracer(), "probe ec", "probe");
  ThreadPool pool(run.nproc());
  RebuildRig rig(run.seed(), pool);
  const RebuildRig::Code& code = rig.codes().front();  // the local (17+3)
  const std::size_t k = code.rs->k();
  const std::size_t n = k + code.rs->p();
  std::vector<std::uint8_t> generator(n * k, 0);
  for (std::size_t i = 0; i < k; ++i) generator[i * k + i] = 1;
  for (std::size_t r = 0; r < code.rs->p(); ++r)
    for (std::size_t c = 0; c < k; ++c)
      generator[(k + r) * k + c] = code.rs->parity_rows().at(r, c);

  std::size_t p = 0;
  run.add_layer("ec.plan_build_us", median_us(100, [&] {
                  const auto& pattern = code.patterns[p++ % code.patterns.size()];
                  mlec::ec::DecodePlan plan(n, k, generator, pattern);
                }));
  constexpr int kLookups = 10000;
  run.add_layer("gf.plan_lookup_us", median_us(3, [&] {
                  for (int i = 0; i < kLookups; ++i)
                    code.rs->decode_plan(code.patterns[i % RebuildRig::kPatternsPerCode]);
                }) / kLookups);

  // Decode throughput over a fixed 8-pattern set, in bytes moved.
  constexpr int kCalls = 8;
  double bytes = 0.0;
  for (int i = 0; i < kCalls; ++i)
    bytes += static_cast<double>(rig.bytes_moved(0, code.patterns[i]));
  auto decode_with = [&](ThreadPool* workers) {
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
      double seconds = 0.0;
      for (int i = 0; i < kCalls; ++i) {
        const auto& pattern = code.patterns[i];
        std::vector<std::uint8_t*> table = rig.prepare(0, pattern);
        const auto plan = code.rs->decode_plan(pattern);
        const auto start = Clock::now();
        if (workers == nullptr) {
          mlec::ec::decode(*plan, table.data(), rig.shard_bytes());
        } else {
          std::vector<std::span<std::uint8_t>> shards;
          for (std::uint8_t* s : table) shards.emplace_back(s, rig.shard_bytes());
          mlec::ec::decode_parallel(*plan, shards, *workers);
        }
        seconds += seconds_since(start);
        run.request("probe decode", rig.verify(0, pattern));
      }
      rates.push_back(bytes / seconds / 1e9);
    }
    return quantile(rates, 0.5);
  };
  run.add_layer("ec.decode_gbps_1t", decode_with(nullptr));
  double best_parallel = 0.0;
  for (const std::size_t t : {1, 2, 4}) {
    ThreadPool workers(t);
    const double rate = decode_with(&workers);
    best_parallel = std::max(best_parallel, rate);
    run.add_layer("ec.decode_parallel_gbps.t" + std::to_string(t), rate);
  }

  // Memory ceiling over the same arena, split across the pool: memcpy of
  // one half onto the other, and a byte triad over three thirds. It
  // overwrites the shards, so it runs last.
  std::uint8_t* arena = rig.arena();
  const std::size_t half = rig.arena_bytes() / 2;
  const std::size_t third = rig.arena_bytes() / 3;
  const double copy = gbps(2.0 * static_cast<double>(half), 5, [&] {
    pool.parallel_chunks(0, half, pool.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      std::memcpy(arena + half + lo, arena + lo, hi - lo);
    });
  });
  const double triad = gbps(3.0 * static_cast<double>(third), 5, [&] {
    pool.parallel_chunks(0, third, pool.size(), [&](std::size_t, std::size_t lo, std::size_t hi) {
      const std::uint8_t* a = arena;
      const std::uint8_t* b = arena + third;
      std::uint8_t* c = arena + 2 * third;
      for (std::size_t i = lo; i < hi; ++i) c[i] = static_cast<std::uint8_t>(a[i] ^ (b[i] << 1));
    });
  });
  const double ceiling = std::max(copy, triad);
  run.add_layer("mem.ceiling_gbps", ceiling);
  run.add_layer("ec.fraction_of_ceiling", best_parallel / ceiling);
}

}  // namespace

void run_probes(Run& run) {
  Span span(run.tracer(), "layer probes", "probe");
  probe_core(run);
  probe_analysis(run);
  probe_sim(run);
  probe_runtime(run);
  probe_util(run);
  probe_server(run);
  probe_ec(run);
}

}  // namespace e2e
