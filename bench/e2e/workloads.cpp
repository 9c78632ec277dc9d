#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/estimator.hpp"
#include "core/spec_io.hpp"
#include "ec/stream.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace fs = std::filesystem;
namespace json = mlec::json;
using mlec::Estimate;
using mlec::Scenario;
using mlec::ThreadPool;

namespace {

/// One seeded stream per purpose, so a change to one workload's inputs
/// never shifts another's.
mlec::Rng input_rng(const Run& run, std::uint64_t purpose) {
  return mlec::Rng::for_substream(run.seed(), purpose);
}

std::uint64_t draw_seed(mlec::Rng& rng) { return 1 + rng.uniform_below(std::uint64_t{1} << 31); }

// ---------------------------------------------------------------------------
// Estimator workloads: a fixed list of estimate calls, each run to a target
// RSE, timed as the user of `mlecctl estimate` would see it.

struct EstimateRequest {
  std::string label;
  std::string method;
  Scenario scenario;
  double target_rse = 0.0;
  double dp_nines = -1.0;  ///< reference answer, filled after set-up
};

/// Run one request (checked) and return its wall-clock seconds. Traced
/// runs add the request span, per-shard spans from the campaign report and
/// commit instants from the progress feed.
double run_estimate(Run& run, ThreadPool& pool, const EstimateRequest& req, std::uint64_t parent) {
  Tracer& tracer = run.tracer();
  const mlec::Estimator* estimator = mlec::find_estimator(req.method);
  mlec::EstimateOptions options;
  options.pool = &pool;
  options.target_rse = req.target_rse;
  const std::uint64_t span_id = tracer.enabled() ? tracer.next_id() : 0;
  std::atomic<std::uint64_t> commits{0};
  if (tracer.enabled()) {
    // Keep the first 64 commits and every 64th after: enough to see the
    // RSE trajectory without tens of thousands of instants per request.
    options.progress = [&tracer, &commits, span_id](const mlec::CampaignProgress& p) {
      const std::uint64_t n = commits.fetch_add(1, std::memory_order_relaxed) + 1;
      if (n > 64 && n % 64 != 0) return;
      Value args = Value::object();
      args.set("shard", static_cast<double>(p.shard));
      args.set("units_done", static_cast<double>(p.units_done));
      args.set("rse", p.achieved_rse);
      tracer.instant("commit", "runtime", Clock::now(), span_id, std::move(args));
    };
  }

  std::string error;
  Estimate estimate;
  const auto start = Clock::now();
  try {
    estimate = estimator->estimate(req.scenario, options);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const auto end = Clock::now();
  if (error.empty()) error = estimate_error(estimate, req.target_rse > 0.0, req.dp_nines);
  run.request(req.label, error);

  if (tracer.enabled()) {
    Value args = Value::object();
    args.set("method", req.method);
    args.set("samples", static_cast<double>(estimate.samples));
    args.set("pdl", estimate.pdl);
    args.set("commits", static_cast<double>(commits.load()));
    tracer.complete(req.label, "request", start, end, span_id, parent, std::move(args));
    for (const mlec::ShardOutcome& shard : estimate.campaign.shards) {
      Value shard_args = Value::object();
      shard_args.set("done", static_cast<double>(shard.done));
      shard_args.set("attempts", static_cast<double>(shard.attempts));
      const auto shard_end = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(shard.elapsed_s));
      tracer.complete("shard " + std::to_string(shard.shard), "runtime", start, shard_end,
                      tracer.next_id(), span_id, std::move(shard_args),
                      1000 + static_cast<int>(shard.shard));
    }
  }
  return seconds_between(start, end);
}

EstimateRequest make_request(std::string label, std::string method, const std::string& ini,
                             std::uint64_t seed, double target_rse) {
  EstimateRequest req;
  req.label = std::move(label);
  req.method = std::move(method);
  req.scenario = load_checked(ini);
  req.scenario.seed = seed;
  // Adaptive stopping ends every campaign; these caps are never reached.
  req.scenario.missions = 100'000'000;
  req.scenario.split_missions = 10'000'000'000ULL;
  req.target_rse = target_rse;
  return req;
}

/// A warm-up request of a fixed `missions` (stage-1 missions for split),
/// with no target RSE, so the set-up it belongs to costs the same whatever
/// the seed.
EstimateRequest make_warm_up(std::string label, std::string method, const std::string& ini,
                             std::uint64_t seed, std::uint64_t missions) {
  EstimateRequest req = make_request(std::move(label), std::move(method), ini, seed, 0.0);
  req.scenario.missions = missions;
  req.scenario.split_missions = missions;
  return req;
}

struct RequestList {
  std::vector<EstimateRequest> requests;
  std::vector<EstimateRequest> warm_ups;
};

/// The shape both estimator workloads share. Each set-up starts a fresh
/// pool, loads the scenarios and answers the warm-up requests; then `dp`
/// gives every request its reference answer, outside every timed region,
/// and the passes answer the list.
void run_estimator_workload(Run& run, const std::function<RequestList()>& load) {
  std::unique_ptr<ThreadPool> pool;
  RequestList list;
  while (run.more_setups()) {
    Span span(run.tracer(), "setup", "workload");
    pool.reset();
    const auto start = Clock::now();
    pool = std::make_unique<ThreadPool>(run.nproc());
    list = load();
    for (const EstimateRequest& req : list.warm_ups) run_estimate(run, *pool, req, span.id());
    run.add_setup(seconds_since(start));
  }
  for (EstimateRequest& req : list.requests)
    req.dp_nines = mlec::find_estimator("dp")->estimate(req.scenario).nines;

  for (int pass = 0; run.more_passes(); ++pass) {
    Span span(run.tracer(), "pass " + std::to_string(pass), "workload");
    std::map<std::string, double> by_method;
    double total = 0.0;
    for (const EstimateRequest& req : list.requests) {
      const double s = run_estimate(run, *pool, req, span.id());
      by_method[req.method] += s;
      total += s;
    }
    run.add_pass(total);
    for (const auto& [method, s] : by_method) run.add_detail(method + "_tta_s", "s", "lower", s);
  }
}

}  // namespace

std::string paper_scale_ini(const std::string& code, double afr) {
  std::ostringstream ini;
  ini << "[datacenter]\nracks = 60\nenclosures_per_rack = 8\ndisks_per_enclosure = 120\n"
      << "[code]\nmlec = " << code << "\nscheme = C/C\nrepair = R_MIN\n"
      << "[failures]\nafr = " << afr << "\n";
  return ini.str();
}

std::string crosscheck_ini(const Run& run, const std::string& name) {
  const fs::path path = fs::path(run.options().repo_root) / "examples" / "scenarios" /
                        ("crosscheck_" + name + ".ini");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

Scenario load_checked(const std::string& ini_text) {
  mlec::SpecParsePolicy strict;
  strict.strict = true;
  Scenario scenario = mlec::load_scenario(mlec::IniFile::parse_string(ini_text), strict);
  scenario.validate();
  return scenario;
}

std::string estimate_error(const Estimate& e, bool need_converged, double dp_nines) {
  if (!(e.pdl >= 0.0 && e.pdl <= 1.0)) return "PDL " + std::to_string(e.pdl) + " outside [0,1]";
  // The slack admits rounding: at PDL 1 the Wilson upper bound comes out
  // one ulp below 1.
  constexpr double kSlack = 1e-12;
  if (!(0.0 <= e.pdl_lo && e.pdl_lo <= e.pdl + kSlack && e.pdl <= e.pdl_hi + kSlack &&
        e.pdl_hi <= 1.0))
    return "interval does not bracket the PDL inside [0,1]";
  if (e.degraded) return "degraded: " + e.degrade_note;
  if (need_converged && !e.converged) return "campaign stopped before its target RSE";
  if (dp_nines >= 0.0 && !(std::fabs(e.nines - dp_nines) <= 1.0))
    return e.method + " " + std::to_string(e.nines) + " nines vs dp " + std::to_string(dp_nines);
  return {};
}

// ---------------------------------------------------------------------------
// paper_scale

void run_paper_scale(Run& run) {
  // At the paper's 1% AFR the fleet simulator sees no loss in any practical
  // number of missions. The missions a campaign needs to reach its target
  // RSE vary with the seed (interquartile range about 1.6x the target), so
  // sim runs to RSE 0.02, which is affordable only where losses are common:
  // at AFR 0.5 a (9+1)/(18+2) fleet loses data in about 30% of missions.
  // split runs the paper's own (10+2)/(17+3) at AFR 0.3.
  const std::string sim_ini = paper_scale_ini("(9+1)/(18+2)", 0.5);
  const std::string split_ini = paper_scale_ini("(10+2)/(17+3)", 0.3);
  mlec::Rng rng = input_rng(run, 1);
  const std::uint64_t sim_seed = draw_seed(rng), split_seed = draw_seed(rng);
  const std::uint64_t warm_seed = draw_seed(rng);

  run_estimator_workload(run, [&] {
    RequestList list;
    list.requests = {make_request("sim (9+1)/(18+2)", "sim", sim_ini, sim_seed, 0.02),
                     make_request("split (10+2)/(17+3)", "split", split_ini, split_seed, 0.014)};
    list.warm_ups = {make_warm_up("warm-up sim", "sim", sim_ini, warm_seed, 400),
                     make_warm_up("warm-up split", "split", split_ini, warm_seed, 500'000)};
    return list;
  });
}

// ---------------------------------------------------------------------------
// toy_campaign

void run_toy_campaign(Run& run) {
  std::map<std::string, std::string> ini;
  for (const char* name : {"mlec", "slec", "lrc"}) ini[name] = crosscheck_ini(run, name);
  // LRC's PDL (~2.5e-5) would need ~10^8 missions for a tight-RSE sim.
  struct Item {
    const char* method;
    const char* scenario;
    double target_rse;
  };
  const Item items[] = {{"split", "mlec", 0.01}, {"split", "slec", 0.01}, {"split", "lrc", 0.01},
                        {"sim", "mlec", 0.02},   {"sim", "slec", 0.02}};
  mlec::Rng rng = input_rng(run, 2);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i <= std::size(items); ++i) seeds.push_back(draw_seed(rng));

  run_estimator_workload(run, [&] {
    RequestList list;
    for (std::size_t i = 0; i < std::size(items); ++i) {
      const Item& it = items[i];
      list.requests.push_back(make_request(std::string(it.method) + " " + it.scenario, it.method,
                                           ini.at(it.scenario), seeds[i], it.target_rse));
    }
    list.warm_ups.push_back(
        make_warm_up("warm-up split slec", "split", ini.at("slec"), seeds.back(), 100'000));
    return list;
  });
}

// ---------------------------------------------------------------------------
// mlecd_mix

namespace {

constexpr std::size_t kSequence = 4000;
constexpr double kZipfExponent = 1.0;

mlec::server::ServiceConfig serve_defaults(const std::string& state_dir, ThreadPool& pool) {
  mlec::server::ServiceConfig c;
  c.state_dir = state_dir;
  c.pool = &pool;
  c.runners = 2;
  c.shards = 4;
  c.checkpoint_every = 256;
  return c;
}

Value submit_request(const std::string& ini, const std::string& method, std::uint64_t seed) {
  Value req = Value::object();
  req.set("op", "submit");
  req.set("scenario_ini", ini);
  req.set("method", method);
  req.set("client", "bench");
  req.set("seed", json::u64_to_string(seed));
  req.set("wait", true);
  return req;
}

}  // namespace

Daemon::Daemon(const std::string& state_dir, std::size_t workers)
    : pool_(workers),
      service_(serve_defaults(state_dir, pool_)),
      server_(service_, {"127.0.0.1", 0}) {
  service_.start();
  server_.start();
}

Daemon::~Daemon() {
  server_.stop();
  service_.stop();
}

// The structure is a fixed full factorial (AFR band x base scenario x rack
// multiple x enclosures x disks per enclosure x method); only each key's AFR
// within its band, its seed and the order come from the run's seed, so the
// work behind a population barely moves with the seed. Racks stay a
// multiple of the network stripe width and disks per enclosure of the (3+1)
// local width.
std::vector<Value> mlecd_population(const Run& run, std::size_t n_keys) {
  struct Base {
    const char* name;
    int racks;
  };
  const Base bases[] = {{"mlec", 6}, {"slec", 4}, {"lrc", 7}};
  const char* methods[] = {"dp", "split", "sim"};
  std::vector<std::string> text;
  for (const Base& b : bases) text.push_back(crosscheck_ini(run, b.name));

  std::vector<std::array<int, 6>> cells;
  for (int band = 0; band < 2; ++band)
    for (int base = 0; base < 3; ++base)
      for (int rack_mult = 1; rack_mult <= 2; ++rack_mult)
        for (int enclosures = 1; enclosures <= 3; ++enclosures)
          for (int disks = 8; disks <= 16; disks += 4)
            for (int method = 0; method < 3; ++method)
              cells.push_back({band, base, rack_mult, enclosures, disks, method});
  if (n_keys > cells.size()) throw std::logic_error("mlecd population larger than its design");
  mlec::Rng rng = input_rng(run, 3);
  rng.shuffle(std::span<std::array<int, 6>>(cells));

  std::vector<Value> keys;
  for (std::size_t i = 0; i < n_keys; ++i) {
    const auto [band, base, rack_mult, enclosures, disks, method] = cells[i];
    const int afr_milli = 300 + 150 * band + static_cast<int>(rng.uniform_below(151));
    std::ostringstream ini;
    // Repeated sections extend the base file; later keys win.
    ini << text[base] << "\n[datacenter]\nracks = " << bases[base].racks * rack_mult
        << "\nenclosures_per_rack = " << enclosures << "\ndisks_per_enclosure = " << disks
        << "\n[failures]\nafr = " << afr_milli / 1000.0 << "\n";
    keys.push_back(submit_request(ini.str(), methods[method], draw_seed(rng)));
  }
  return keys;
}

// Rank r has weight r^-s; ranks are shuffled over the keys. Every key
// appears at least once, so the number of misses is the number of keys
// whatever the seed.
std::vector<std::size_t> zipf_sequence(const Run& run, std::size_t keys, std::size_t length) {
  if (length < keys) throw std::logic_error("Zipf sequence shorter than its key population");
  mlec::Rng rng = input_rng(run, 4);
  std::vector<std::size_t> key_of_rank(keys);
  for (std::size_t i = 0; i < keys; ++i) key_of_rank[i] = i;
  rng.shuffle(std::span<std::size_t>(key_of_rank));
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t r = 0; r < keys; ++r) cdf[r] = total += std::pow(r + 1.0, -kZipfExponent);
  std::vector<std::size_t> seq(key_of_rank);
  while (seq.size() < length) {
    const double u = rng.uniform() * total;
    const auto rank =
        static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    seq.push_back(key_of_rank[std::min(rank, keys - 1)]);
  }
  rng.shuffle(std::span<std::size_t>(seq));
  return seq;
}

namespace {

struct Reply {
  enum Kind { kMiss, kJoin, kHit } kind = kMiss;
  double ms = 0.0;
  std::string estimate;  ///< dumped estimate JSON
  std::string error;
};

Reply call(mlec::server::Client& client, const Value& request) {
  Reply reply;
  const auto start = Clock::now();
  try {
    const Value resp = client.request(request);
    reply.ms = seconds_since(start) * 1e3;
    if (!resp.bool_or("ok", false)) {
      reply.error = resp.str_or("error", "request refused");
      return reply;
    }
    reply.kind = resp.bool_or("cached", false)   ? Reply::kHit
                 : resp.bool_or("joined", false) ? Reply::kJoin
                                                 : Reply::kMiss;
    const Value* est = resp.get("estimate");
    if (est == nullptr) {
      reply.error = "no estimate (state " + resp.str_or("state", "?") + ")";
      return reply;
    }
    reply.estimate = json::dump(*est);
    const std::string bad = estimate_error(mlec::server::estimate_from_json(*est), false, -1.0);
    if (!bad.empty()) reply.error = bad;
  } catch (const std::exception& e) {
    reply.ms = seconds_since(start) * 1e3;
    reply.error = e.what();
  }
  return reply;
}

/// Start a fresh daemon, connect the clients and answer one warm-up
/// request: the timed part of every mlecd set-up.
struct Session {
  Daemon daemon;
  std::vector<std::unique_ptr<mlec::server::Client>> clients;

  Session(Run& run, std::size_t n_clients, const Value& warm_request) : daemon("", run.nproc()) {
    for (std::size_t i = 0; i < n_clients; ++i)
      clients.push_back(std::make_unique<mlec::server::Client>("127.0.0.1", daemon.port()));
    run.request("warm-up submit", call(*clients[0], warm_request).error);
  }
};

}  // namespace

void run_mlecd_mix(Run& run) {
  const std::vector<Value> keys = mlecd_population(run, kMlecdKeys);
  const std::vector<std::size_t> seq = zipf_sequence(run, keys.size(), kSequence);
  // Outside the population (its AFR is off the perturbation grid), so the
  // warm-up never pre-fills a key the pass will ask for. A sim of the INI's
  // fixed 600 missions: a few milliseconds of work that is the same for
  // every seed, so the set-up time is not only thread starts.
  const Value warm_request =
      submit_request(crosscheck_ini(run, "slec") + "\n[failures]\nafr = 0.2\n", "sim", 1);
  const std::size_t n_clients = std::min<std::size_t>(run.nproc(), 4);
  run.note("mlecd_keys", static_cast<double>(keys.size()));
  run.note("mlecd_requests_per_pass", static_cast<double>(seq.size()));
  run.note("mlecd_clients", static_cast<double>(n_clients));

  // A fresh daemon serves every pass, so every pass starts from an empty
  // memo; its start is that pass's set-up sample.
  for (int pass = 0; run.more_passes(); ++pass) {
    std::unique_ptr<Session> session;
    {
      Span span(run.tracer(), "setup", "workload");
      const auto start = Clock::now();
      session = std::make_unique<Session>(run, n_clients, warm_request);
      run.add_setup(seconds_since(start));
    }
    Span pass_span(run.tracer(), "pass " + std::to_string(pass), "workload");
    std::vector<Reply> replies(seq.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> go{false};
    // Request spans for the first two passes only: every pass would make
    // the trace tens of megabytes.
    const bool span_requests = pass < 2;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::size_t i = next.fetch_add(1); i < seq.size(); i = next.fetch_add(1)) {
          std::optional<Span> span;
          if (span_requests) span.emplace(run.tracer(), "submit", "request", pass_span.id());
          replies[i] = call(*session->clients[c], keys[seq[i]]);
          if (!span) continue;
          span->arg("kind", replies[i].kind == Reply::kHit    ? "hit"
                            : replies[i].kind == Reply::kJoin ? "join"
                                                              : "miss");
        }
      });
    }
    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const double wall = seconds_since(start);
    session.reset();

    // Checks: exactly one miss per key drawn, and every hit or join
    // returns that miss's estimate bit for bit.
    std::map<std::size_t, const Reply*> first;
    std::map<std::size_t, int> misses;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (replies[i].error.empty() && replies[i].kind == Reply::kMiss) {
        first.emplace(seq[i], &replies[i]);
        ++misses[seq[i]];
      }
    }
    std::vector<double> hit_ms, miss_ms;
    std::size_t joins = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const Reply& r = replies[i];
      std::string error = r.error;
      if (error.empty() && misses[seq[i]] != 1)
        error = std::to_string(misses[seq[i]]) + " misses for one key";
      if (error.empty() && r.estimate != first.at(seq[i])->estimate)
        error = "answer differs from the key's first answer";
      run.request("submit key " + std::to_string(seq[i]), error);
      if (r.kind == Reply::kHit) hit_ms.push_back(r.ms);
      if (r.kind == Reply::kMiss) miss_ms.push_back(r.ms);
      if (r.kind == Reply::kJoin) ++joins;
    }
    run.add_pass(wall);
    run.add_detail("mlecd_hit_p50_ms", "ms", "lower", quantile(hit_ms, 0.5));
    run.add_detail("mlecd_hit_p99_ms", "ms", "lower", quantile(hit_ms, 0.99));
    run.add_detail("mlecd_miss_p50_ms", "ms", "lower", quantile(miss_ms, 0.5));
    run.add_detail("mlecd_miss_p90_ms", "ms", "lower", quantile(miss_ms, 0.9));
    run.add_detail("mlecd_req_per_s", "req/s", "higher", static_cast<double>(seq.size()) / wall);
    run.add_detail("mlecd_hits", "count", "higher", static_cast<double>(hit_ms.size()));
    run.add_detail("mlecd_misses", "count", "lower", static_cast<double>(miss_ms.size()));
    run.add_detail("mlecd_joins", "count", "higher", static_cast<double>(joins));
  }
}

// ---------------------------------------------------------------------------
// ec_rebuild

namespace {

/// Shard bytes of both codes together are 4x the L3, so the rebuild streams
/// from memory. The cap bounds the process's memory on hosts that report a
/// huge shared L3: at 2 GiB of shards the arena is about 2.3 GiB, and the
/// three set-ups plus two passes still fit a 20 s run.
constexpr std::size_t kMaxTotalBytes = std::size_t{2} << 30;
/// Without a readable L3 size: 4x a 64 MiB L3.
constexpr std::size_t kDefaultTotalBytes = std::size_t{256} << 20;
constexpr std::size_t kPageBytes = 4096;

}  // namespace

void RebuildRig::FreeDeleter::operator()(std::uint8_t* p) const { std::free(p); }

RebuildRig::RebuildRig(std::uint64_t seed, ThreadPool& pool) : threads_(pool.size()) {
  codes_.resize(2);
  codes_[0].rs = std::make_unique<mlec::gf::RsCode>(17, 3);
  codes_[1].rs = std::make_unique<mlec::gf::RsCode>(10, 2);
  std::size_t n_shards = 0;
  for (const Code& code : codes_) n_shards += code.rs->k() + code.rs->p();
  const std::size_t n_scratch = 3;  // the most erasures a pattern has
  const std::uint64_t l3 = l3_cache_bytes();
  const std::size_t target = l3 ? std::min<std::size_t>(4 * l3, kMaxTotalBytes) : kDefaultTotalBytes;
  shard_bytes_ = std::max<std::size_t>(kPageBytes, target / n_shards / kPageBytes * kPageBytes);
  total_bytes_ = n_shards * shard_bytes_;
  arena_bytes_ = (n_shards + n_scratch) * shard_bytes_;
  arena_.reset(static_cast<std::uint8_t*>(std::aligned_alloc(kPageBytes, arena_bytes_)));
  if (!arena_) throw std::bad_alloc();
  mlec::ec::first_touch_parallel({arena_.get(), arena_bytes_}, pool);

  std::uint8_t* next = arena_.get();
  for (Code& code : codes_) {
    for (std::size_t i = 0; i < code.rs->k() + code.rs->p(); ++i, next += shard_bytes_)
      code.shards.push_back(next);
  }
  for (std::size_t i = 0; i < n_scratch; ++i, next += shard_bytes_) scratch_.push_back(next);

  for (std::size_t c = 0; c < codes_.size(); ++c) {
    Code& code = codes_[c];
    const std::size_t k = code.rs->k();
    pool.parallel_for(0, k, [&](std::size_t i) {
      mlec::Rng rng = mlec::Rng::for_substream(seed, (1 << 16) | (c << 8) | i);
      for (std::size_t off = 0; off < shard_bytes_; off += 8) {
        const std::uint64_t word = rng();
        std::memcpy(code.shards[i] + off, &word, 8);
      }
    });
    std::vector<std::span<const std::uint8_t>> data;
    std::vector<std::span<std::uint8_t>> parity;
    for (std::size_t i = 0; i < k; ++i) data.emplace_back(code.shards[i], shard_bytes_);
    for (std::size_t i = k; i < code.shards.size(); ++i)
      parity.emplace_back(code.shards[i], shard_bytes_);
    code.rs->encode_parallel(data, parity, pool);

    // Pattern i loses 1 + i mod p shards, so the work of a pass does not
    // depend on the seed; the seed picks which shards.
    mlec::Rng rng = mlec::Rng::for_substream(seed, (2 << 16) | c);
    for (std::size_t i = 0; i < kPatternsPerCode; ++i) {
      const std::size_t lost = 1 + i % code.rs->p();
      std::vector<std::size_t> pattern;
      for (const std::uint64_t pos : rng.sample_without_replacement(code.shards.size(), lost))
        pattern.push_back(pos);
      std::sort(pattern.begin(), pattern.end());
      code.patterns.push_back(std::move(pattern));
    }
  }
}

void RebuildRig::sliced(const std::function<void(std::size_t, std::size_t)>& body) const {
  std::vector<std::jthread> threads;
  for (std::size_t t = 0; t < threads_; ++t) {
    threads.emplace_back(
        [&, t] { body(shard_bytes_ * t / threads_, shard_bytes_ * (t + 1) / threads_); });
  }
}

std::vector<std::uint8_t*> RebuildRig::prepare(std::size_t code,
                                               const std::vector<std::size_t>& pattern) {
  std::vector<std::uint8_t*> table = codes_[code].shards;
  for (std::size_t j = 0; j < pattern.size(); ++j) table[pattern[j]] = scratch_[j];
  sliced([&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = 0; j < pattern.size(); ++j) std::memset(scratch_[j] + lo, 0xA5, hi - lo);
  });
  return table;
}

std::string RebuildRig::verify(std::size_t code, const std::vector<std::size_t>& pattern) const {
  std::vector<std::atomic<bool>> differs(pattern.size());
  sliced([&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = 0; j < pattern.size(); ++j)
      if (std::memcmp(scratch_[j] + lo, codes_[code].shards[pattern[j]] + lo, hi - lo) != 0)
        differs[j].store(true, std::memory_order_relaxed);
  });
  for (std::size_t j = 0; j < pattern.size(); ++j)
    if (differs[j].load())
      return "rebuilt shard " + std::to_string(pattern[j]) + " differs from the original";
  return {};
}

std::size_t RebuildRig::bytes_moved(std::size_t code,
                                    const std::vector<std::size_t>& pattern) const {
  return (codes_[code].rs->k() + pattern.size()) * shard_bytes_;
}

void run_ec_rebuild(Run& run) {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<RebuildRig> rig;
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (code, pattern)

  auto rebuild = [&](std::size_t code, std::size_t p, std::uint64_t parent) {
    const std::vector<std::size_t>& pattern = rig->codes()[code].patterns[p];
    std::vector<std::uint8_t*> table = rig->prepare(code, pattern);
    std::vector<std::span<std::uint8_t>> shards;
    for (std::uint8_t* s : table) shards.emplace_back(s, rig->shard_bytes());
    std::string error;
    const auto start = Clock::now();
    {
      Span span(run.tracer(), "decode", "request", parent);
      const auto plan = rig->codes()[code].rs->decode_plan(pattern);
      if (!mlec::ec::decode_parallel(*plan, shards, *pool)) error = "decode truncated";
    }
    const double seconds = seconds_since(start);
    if (error.empty()) error = rig->verify(code, pattern);
    run.request("rebuild code " + std::to_string(code) + " pattern " + std::to_string(p), error);
    return seconds;
  };

  while (run.more_setups()) {
    Span span(run.tracer(), "setup", "workload");
    rig.reset();
    pool.reset();
    const auto start = Clock::now();
    pool = std::make_unique<ThreadPool>(run.nproc());
    rig = std::make_unique<RebuildRig>(run.seed(), *pool);
    for (std::size_t code = 0; code < rig->codes().size(); ++code) rebuild(code, 0, span.id());
    run.add_setup(seconds_since(start));
  }
  for (std::size_t code = 0; code < rig->codes().size(); ++code)
    for (std::size_t p = 0; p < RebuildRig::kPatternsPerCode; ++p) order.emplace_back(code, p);
  mlec::Rng rng = input_rng(run, 5);
  rng.shuffle(std::span<std::pair<std::size_t, std::size_t>>(order));
  run.note("shard_bytes_total", static_cast<double>(rig->total_bytes()));
  run.note("l3_bytes", static_cast<double>(l3_cache_bytes()));
  run.note("shard_bytes", static_cast<double>(rig->shard_bytes()));

  for (int pass = 0; run.more_passes(); ++pass) {
    Span span(run.tracer(), "pass " + std::to_string(pass), "workload");
    double seconds = 0.0;
    double bytes = 0.0;
    for (const auto& [code, p] : order) {
      seconds += rebuild(code, p, span.id());
      bytes += static_cast<double>(rig->bytes_moved(code, rig->codes()[code].patterns[p]));
    }
    run.add_pass(seconds);
    run.add_detail("rebuild_gbps", "GB/s", "higher", bytes / seconds / 1e9);
  }
}

}  // namespace e2e
