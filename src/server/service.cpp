#include "server/service.hpp"

#include <algorithm>
#include <utility>

#include "core/spec_io.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

namespace mlec::server {

namespace {

bool terminal_state(const std::string& state) {
  return state == "done" || state == "cancelled" || state == "failed";
}

json::Value job_event(const char* event, const std::string& job_id) {
  json::Value v = json::Value::object();
  v.set("event", event);
  v.set("job", job_id);
  return v;
}

/// Terminal event for a ledger entry (replayed to late subscribers).
json::Value terminal_event(const StoredJob& job) {
  json::Value v = job_event(job.state == "done"       ? "done"
                            : job.state == "cancelled" ? "cancelled"
                                                       : "failed",
                            job.id);
  if (job.estimate) v.set("estimate", estimate_to_json(*job.estimate));
  return v;
}

}  // namespace

EstimationService::EstimationService(ServiceConfig config)
    : config_(std::move(config)), store_(config_.state_dir) {
  MLEC_REQUIRE(config_.checkpoint_every > 0, "service block size must be positive");
  MutexLock lock(mutex_);
  store_.load();
  recover_locked();
}

EstimationService::~EstimationService() { stop(); }

void EstimationService::recover_locked() {
  bool changed = false;
  for (StoredJob& job : store_.jobs) {
    if (terminal_state(job.state)) continue;
    // Queued or running when the previous process died: back to the queue.
    // The campaign journal (if any) carries the committed blocks, so the
    // resumed run completes bit-identical to an uninterrupted one.
    job.state = "queued";
    LiveJob& live = live_[job.id];
    live.priority = job.priority;
    live.client = job.client;
    scheduler_.enqueue({job.id, job.client, job.priority, 0});
    bump_locked("recovered");
    changed = true;
  }
  if (changed) store_.save();
}

void EstimationService::bump_locked(const std::string& counter) { ++store_.counters[counter]; }

SubmitOutcome EstimationService::submit(const SubmitRequest& request) {
  // Canonicalize outside the lock: parse strictly, load, re-serialize.
  const IniFile ini = IniFile::parse_string(request.scenario_ini);
  SpecParsePolicy policy;
  policy.strict = true;
  Scenario scenario = load_scenario(ini, policy);
  if (request.seed) scenario.seed = *request.seed;
  scenario.validate();

  const Estimator* estimator = find_estimator(request.method);
  MLEC_REQUIRE(estimator != nullptr, "unknown method '" + request.method + "'");
  const std::string why_not = estimator->applicability(scenario);
  MLEC_REQUIRE(why_not.empty(), "method " + request.method + " not applicable: " + why_not);

  const std::uint64_t fingerprint = scenario_fingerprint(scenario);
  const std::string canonical = format_scenario(scenario);
  const std::string key = memo_key(fingerprint, request.method, scenario.seed,
                                   request.rse_target);

  SubmitOutcome outcome;
  outcome.fingerprint = fingerprint;

  MutexLock lock(mutex_);
  // A hit or a join changes nothing but counters: they are persisted with
  // the next job state transition instead of rewriting the whole ledger for
  // every such request.
  bump_locked("submissions");

  if (const auto hit = store_.memo.find(key); hit != store_.memo.end()) {
    bump_locked("cache_hits");
    outcome.cached = true;
    outcome.estimate = hit->second;
    for (const StoredJob& job : store_.jobs) {
      if (job.state == "done" && job.fingerprint == fingerprint &&
          job.method == request.method && job.seed == scenario.seed &&
          job.rse_target == request.rse_target) {
        outcome.job_id = job.id;
        break;
      }
    }
    return outcome;
  }

  for (const StoredJob& job : store_.jobs) {
    if (terminal_state(job.state)) continue;
    if (job.fingerprint == fingerprint && job.method == request.method &&
        job.seed == scenario.seed && job.rse_target == request.rse_target) {
      bump_locked("joined");
      outcome.job_id = job.id;
      outcome.joined = true;
      return outcome;
    }
  }

  StoredJob job;
  job.id = "j-" + json::u64_to_string(store_.next_job++);
  job.client = request.client;
  job.method = request.method;
  job.priority = request.priority;
  job.seed = scenario.seed;
  job.rse_target = request.rse_target;
  job.fingerprint = fingerprint;
  job.scenario_ini = canonical;
  job.state = "queued";
  outcome.job_id = job.id;
  store_.jobs.push_back(std::move(job));

  LiveJob& live = live_[outcome.job_id];
  live.priority = request.priority;
  live.client = request.client;
  scheduler_.enqueue({outcome.job_id, request.client, request.priority, 0});
  store_.save();
  maybe_preempt_locked(request.priority);
  cv_.notify_all();
  return outcome;
}

void EstimationService::maybe_preempt_locked(Priority incoming) {
  // Only worth it when no runner is free to pick the arrival up directly.
  if (!runners_.empty() && busy_ < runners_.size()) return;
  std::string victim;
  Priority worst = incoming;
  for (auto& [id, live] : live_) {
    if (!live.running || live.cancel_requested || live.preempt_requested) continue;
    if (live.priority > worst) {
      worst = live.priority;
      victim = id;
    }
  }
  if (victim.empty()) return;
  LiveJob& live = live_.at(victim);
  live.preempt_requested = true;
  live.stop.request_stop();
  bump_locked("preemptions");
}

bool EstimationService::cancel(const std::string& job_id) {
  std::vector<EventSink> sinks;
  json::Value event = json::Value::object();
  {
    MutexLock lock(mutex_);
    StoredJob* job = store_.find(job_id);
    if (job == nullptr || terminal_state(job->state)) return false;
    auto live = live_.find(job_id);
    if (live != live_.end() && live->second.running) {
      // The campaign observes the token at its next batch boundary; the
      // runner finishes the transition (state, events, store) itself.
      live->second.cancel_requested = true;
      live->second.stop.request_stop();
      return true;
    }
    scheduler_.remove(job_id);
    job->state = "cancelled";
    bump_locked("cancelled");
    store_.discard_journals(job_id);
    store_.save();
    live_.erase(job_id);
    event = job_event("cancelled", job_id);
    sinks = sinks_for_locked(job_id);
    cv_.notify_all();
  }
  for (const EventSink& sink : sinks) sink(event);
  return true;
}

StoredJob EstimationService::wait(const std::string& job_id) {
  MutexLock lock(mutex_);
  MLEC_REQUIRE(store_.find(job_id) != nullptr, "unknown job '" + job_id + "'");
  // Explicit wait loop (not a predicate lambda): the analysis checks the
  // predicate's guarded reads in this scope, where the lock is visibly held.
  for (;;) {
    if (stopping_) break;  // shutdown: waiters get the current state
    const StoredJob* job = store_.find(job_id);
    if (job == nullptr || terminal_state(job->state)) break;
    cv_.wait(mutex_);
  }
  const StoredJob* job = store_.find(job_id);
  MLEC_REQUIRE(job != nullptr, "job '" + job_id + "' disappeared");
  return *job;
}

ServiceStatus EstimationService::status() const {
  MutexLock lock(mutex_);
  ServiceStatus out;
  out.counters = store_.counters;
  out.spent_by_client = scheduler_.spent_by_client();
  for (const StoredJob& job : store_.jobs) {
    ServiceStatus::Job j;
    j.id = job.id;
    j.client = job.client;
    j.method = job.method;
    j.priority = to_string(job.priority);
    j.state = job.state;
    if (const auto live = live_.find(job.id); live != live_.end()) {
      j.units_done = live->second.units_done;
      j.units_total = live->second.units_total;
      j.rse = live->second.rse;
    }
    out.jobs.push_back(std::move(j));
  }
  return out;
}

std::uint64_t EstimationService::subscribe(const std::string& job_id, EventSink sink) {
  json::Value replay = json::Value::object();
  bool replay_now = false;
  std::uint64_t token = 0;
  {
    MutexLock lock(mutex_);
    const StoredJob* job = store_.find(job_id);
    MLEC_REQUIRE(job != nullptr, "unknown job '" + job_id + "'");
    if (terminal_state(job->state)) {
      replay = terminal_event(*job);
      replay_now = true;
    } else {
      token = next_sink_++;
      sinks_.emplace(token, std::make_pair(job_id, std::move(sink)));
    }
  }
  if (replay_now) sink(replay);
  return token;
}

void EstimationService::unsubscribe(std::uint64_t token) {
  MutexLock lock(mutex_);
  sinks_.erase(token);
}

std::vector<EstimationService::EventSink> EstimationService::sinks_for_locked(
    const std::string& job_id) {
  std::vector<EventSink> out;
  for (const auto& [token, entry] : sinks_)
    if (entry.first == job_id) out.push_back(entry.second);
  return out;
}

void EstimationService::on_progress(const std::string& job_id, const CampaignProgress& progress) {
  std::vector<EventSink> sinks;
  json::Value event = json::Value::object();
  {
    MutexLock lock(mutex_);
    const auto it = live_.find(job_id);
    if (it == live_.end()) return;
    LiveJob& live = it->second;
    live.units_done = progress.units_done;
    live.units_total = progress.units_total;
    live.rse = progress.achieved_rse;
    if (progress.units_done > live.charged) {
      scheduler_.charge(live.client, progress.units_done - live.charged);
      live.charged = progress.units_done;
    }
    event = job_event("progress", job_id);
    event.set("shard", static_cast<double>(progress.shard));
    event.set("units_done", json::u64_to_string(progress.units_done));
    event.set("units_total", json::u64_to_string(progress.units_total));
    event.set("rse", progress.achieved_rse);
    sinks = sinks_for_locked(job_id);
  }
  for (const EventSink& sink : sinks) sink(event);
}

void EstimationService::run_job(const std::string& job_id) {
  std::string canonical;
  std::string method;
  double rse_target = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;
  Priority priority = Priority::kNormal;
  StopToken stop;
  {
    MutexLock lock(mutex_);
    StoredJob* job = store_.find(job_id);
    if (job == nullptr || terminal_state(job->state)) return;
    LiveJob& live = live_[job_id];
    live.stop = StopSource{};  // fresh flag for this attempt
    live.running = true;
    live.preempt_requested = false;
    stop = live.stop.token();
    priority = live.priority;
    job->state = "running";
    canonical = job->scenario_ini;
    method = job->method;
    rse_target = job->rse_target;
    seed = job->seed;
    fingerprint = job->fingerprint;
    store_.save();
  }

  std::optional<Estimate> estimate;
  std::string error;
  try {
    Scenario scenario = load_scenario(IniFile::parse_string(canonical));
    scenario.seed = seed;
    const Estimator* estimator = find_estimator(method);
    MLEC_REQUIRE(estimator != nullptr, "unknown method '" + method + "'");
    EstimateOptions options;
    options.pool = config_.pool;
    options.stop = stop;
    options.checkpoint_path = store_.journal_base(job_id);
    options.resume = true;  // journal absent = fresh start
    options.shards = config_.shards;
    options.target_rse = rse_target;
    options.checkpoint_every = config_.checkpoint_every;
    options.pool_lane = lane_for(priority);
    options.progress = [this, job_id](const CampaignProgress& p) { on_progress(job_id, p); };
    estimate = estimator->estimate(scenario, options);
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::vector<EventSink> sinks;
  json::Value event = json::Value::object();
  {
    MutexLock lock(mutex_);
    StoredJob* job = store_.find(job_id);
    if (job == nullptr) return;
    LiveJob& live = live_[job_id];
    live.running = false;
    if (estimate && live.charged < estimate->samples) {
      // Bill the tail the last progress commit missed (or the whole run
      // for the instant analytic methods).
      scheduler_.charge(live.client, estimate->samples - live.charged);
      live.charged = estimate->samples;
    }

    if (live.cancel_requested || (!estimate.has_value() && live.preempt_requested)) {
      job->state = "cancelled";
      bump_locked("cancelled");
      store_.discard_journals(job_id);
      event = job_event("cancelled", job_id);
      live_.erase(job_id);
    } else if (estimate && estimate->truncated && live.preempt_requested) {
      // Preempted: progress is journaled; back to the queue to resume.
      job->state = "queued";
      live.preempt_requested = false;
      scheduler_.enqueue({job_id, live.client, live.priority, 0});
      event = job_event("requeued", job_id);
    } else if (estimate && estimate->truncated && stop.stop_requested()) {
      // Service shutdown mid-campaign: leave it queued for the next life.
      job->state = "queued";
      event = job_event("requeued", job_id);
    } else if (estimate) {
      job->state = "done";
      job->estimate = estimate;
      store_.memo[memo_key(fingerprint, method, seed, rse_target)] = *estimate;
      bump_locked("completed");
      store_.discard_journals(job_id);
      event = terminal_event(*job);
      live_.erase(job_id);
    } else {
      job->state = "failed";
      bump_locked("failed");
      event = job_event("failed", job_id);
      event.set("error", error);
      live_.erase(job_id);
    }
    store_.save();
    sinks = sinks_for_locked(job_id);
    cv_.notify_all();
  }
  for (const EventSink& sink : sinks) sink(event);
}

void EstimationService::drain() {
  for (;;) {
    std::optional<QueuedJob> next;
    {
      MutexLock lock(mutex_);
      next = scheduler_.pop();
    }
    if (!next) return;
    run_job(next->id);
  }
}

void EstimationService::start() {
  MutexLock lock(mutex_);
  MLEC_REQUIRE(runners_.empty(), "service already started");
  stopping_ = false;
  const std::size_t n = std::max<std::size_t>(1, config_.runners);
  runners_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    runners_.emplace_back([this] {
      // Scoped lock sections instead of a mid-loop unlock()/lock() pair:
      // run_job manages its own locking and must be entered lock-free.
      for (;;) {
        std::optional<QueuedJob> next;
        {
          MutexLock lock(mutex_);
          while (!stopping_ && scheduler_.empty()) cv_.wait(mutex_);
          if (stopping_) return;
          next = scheduler_.pop();
          if (!next) continue;
          ++busy_;
        }
        run_job(next->id);
        MutexLock lock(mutex_);
        --busy_;
      }
    });
  }
}

void EstimationService::stop() {
  {
    MutexLock lock(mutex_);
    if (stopping_ && runners_.empty()) return;
    stopping_ = true;
    for (auto& [id, live] : live_) {
      if (!live.running || live.cancel_requested) continue;
      live.preempt_requested = true;  // checkpoint, truncate, re-queue
      live.stop.request_stop();
    }
    cv_.notify_all();
  }
  for (std::thread& runner : runners_) {
    if (runner.joinable()) runner.join();
  }
  runners_.clear();
}

}  // namespace mlec::server
