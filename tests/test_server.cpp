// End-to-end daemon behavior: scenario dedup + memoization through the
// EstimationService, the durable restart path, and the TCP front end with
// two concurrent clients sharing one campaign.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/chaos.hpp"  // diff_estimates: the bit-identity contract
#include "core/spec_io.hpp"
#include "server/client.hpp"
#include "server/service.hpp"
#include "server/store.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"
#include "util/thread_pool.hpp"

namespace mlec::server {
namespace {

std::string scenario_text() {
  return "[scenario]\n"
         "name = server-e2e\n"
         "[datacenter]\n"
         "racks = 4\n"
         "enclosures_per_rack = 1\n"
         "disks_per_enclosure = 8\n"
         "disk_capacity_tb = 20\n"
         "[code]\n"
         "mlec = (1+0)/(3+1)\n"
         "scheme = C/C\n"
         "repair = R_ALL\n"
         "[failures]\n"
         "afr = 0.5\n"
         "[sim]\n"
         "missions = 120\n"
         "split_missions = 600\n"
         "seed = 42\n";
}

SubmitRequest sim_request() {
  SubmitRequest req;
  req.scenario_ini = scenario_text();
  req.method = "sim";
  req.client = "tester";
  return req;
}

ServiceConfig in_memory_config() {
  ServiceConfig config;
  config.pool = nullptr;
  config.shards = 2;
  config.checkpoint_every = 16;
  return config;
}

TEST(EstimationService, MemoizesTheSecondIdenticalSubmission) {
  EstimationService service(in_memory_config());
  const SubmitOutcome first = service.submit(sim_request());
  EXPECT_FALSE(first.cached);
  service.drain();
  const StoredJob done = service.wait(first.job_id);
  ASSERT_EQ(done.state, "done");
  ASSERT_TRUE(done.estimate.has_value());

  const SubmitOutcome second = service.submit(sim_request());
  EXPECT_TRUE(second.cached);
  ASSERT_TRUE(second.estimate.has_value());
  EXPECT_EQ(diff_estimates(*second.estimate, *done.estimate), "");
  EXPECT_EQ(service.status().counters.at("cache_hits"), 1u);
  EXPECT_EQ(service.status().counters.at("completed"), 1u);
}

TEST(EstimationService, IsomorphicSpellingHitsTheSameCacheEntry) {
  EstimationService service(in_memory_config());
  const SubmitOutcome first = service.submit(sim_request());
  service.drain();

  SubmitRequest respelled = sim_request();
  const auto at = respelled.scenario_ini.find("disk_capacity_tb = 20");
  ASSERT_NE(at, std::string::npos);
  respelled.scenario_ini.replace(at, 21, "disk_capacity_tb = 20000GB");
  const SubmitOutcome second = service.submit(respelled);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_TRUE(second.cached);
}

TEST(EstimationService, DifferentSeedMissesTheCache) {
  EstimationService service(in_memory_config());
  service.submit(sim_request());
  service.drain();
  SubmitRequest reseeded = sim_request();
  reseeded.seed = 1234;
  const SubmitOutcome outcome = service.submit(reseeded);
  EXPECT_FALSE(outcome.cached);  // same system, different RNG stream
}

TEST(EstimationService, CancelsQueuedWorkBeforeItRuns) {
  EstimationService service(in_memory_config());
  const SubmitOutcome outcome = service.submit(sim_request());
  EXPECT_TRUE(service.cancel(outcome.job_id));
  EXPECT_FALSE(service.cancel(outcome.job_id));  // already terminal
  EXPECT_EQ(service.wait(outcome.job_id).state, "cancelled");
  service.drain();  // nothing left to run
  EXPECT_EQ(service.status().counters.count("completed"), 0u);
}

TEST(EstimationService, EventSinksRunOutsideTheServiceMutex) {
  // Lock-discipline invariant (also encoded as MLEC_EXCLUDES on
  // on_progress/run_job): event sinks are invoked after the service mutex
  // is released, so a sink may re-enter the service. If a sink were ever
  // called under the mutex, this test would deadlock (and the CI timeout
  // would flag it) the moment the sink calls status().
  EstimationService service(in_memory_config());
  const SubmitOutcome submitted = service.submit(sim_request());
  ASSERT_FALSE(submitted.cached);

  std::vector<std::string> states_seen;
  const std::uint64_t token = service.subscribe(
      submitted.job_id, [&](const json::Value& event) {
        // Re-entrant call: takes the service mutex inside a sink.
        const ServiceStatus status = service.status();
        for (const auto& job : status.jobs)
          if (job.id == submitted.job_id) states_seen.push_back(job.state);
        (void)event;
      });
  ASSERT_NE(token, 0u);
  service.drain();

  const StoredJob done = service.wait(submitted.job_id);
  EXPECT_EQ(done.state, "done");
  // The terminal event fired with the job already in its final state.
  ASSERT_FALSE(states_seen.empty());
  EXPECT_EQ(states_seen.back(), "done");
  service.unsubscribe(token);
}

TEST(EstimationService, RejectsBadSubmissions) {
  EstimationService service(in_memory_config());
  SubmitRequest unknown_method = sim_request();
  unknown_method.method = "oracle";
  EXPECT_THROW(service.submit(unknown_method), PreconditionError);

  SubmitRequest bad_scenario = sim_request();
  bad_scenario.scenario_ini += "[sim]\nunknown_key = 1\n";
  EXPECT_THROW(service.submit(bad_scenario), std::exception);  // strict parse
}

TEST(EstimationService, AnswersWhatTheCliAnswers) {
  // A default-configured daemon on a four-thread pool returns the bits the
  // estimator returns with default options and no pool: the block size is
  // the library default, and the worker count never enters the answer.
  ThreadPool pool(4);
  ServiceConfig config;
  config.pool = &pool;
  EstimationService service(config);
  std::string text = scenario_text();
  text.replace(text.find("missions = 120"), 14, "missions = 1000");
  Scenario scenario = load_scenario(IniFile::parse_string(text));
  for (const char* method : {"sim", "split"}) {
    SCOPED_TRACE(method);
    SubmitRequest request = sim_request();
    request.scenario_ini = text;
    request.method = method;
    const SubmitOutcome outcome = service.submit(request);
    service.drain();
    const StoredJob job = service.wait(outcome.job_id);
    ASSERT_EQ(job.state, "done");
    ASSERT_TRUE(job.estimate.has_value());
    const Estimate cli = find_estimator(method)->estimate(scenario);
    EXPECT_GT(cli.samples, 256u);  // more than one block
    EXPECT_EQ(diff_estimates(*job.estimate, cli), "");
  }
}

TEST(EstimationService, DurableMemoSurvivesRestart) {
  const auto dir =
      (std::filesystem::path(::testing::TempDir()) / "mlec-server-restart").string();
  std::filesystem::remove_all(dir);
  Estimate first_bits;
  {
    ServiceConfig config = in_memory_config();
    config.state_dir = dir;
    EstimationService service(config);
    const SubmitOutcome outcome = service.submit(sim_request());
    service.drain();
    first_bits = *service.wait(outcome.job_id).estimate;
  }
  ServiceConfig config = in_memory_config();
  config.state_dir = dir;
  EstimationService service(config);  // fresh process, same ledger
  const SubmitOutcome outcome = service.submit(sim_request());
  EXPECT_TRUE(outcome.cached);
  ASSERT_TRUE(outcome.estimate.has_value());
  EXPECT_EQ(diff_estimates(*outcome.estimate, first_bits), "");
  std::filesystem::remove_all(dir);
}

TEST(EstimationService, RunsStoredJobsInTheOlderCanonicalForm) {
  // Ledgers written while format_scenario still carried the failure kind
  // and the Weibull parameters hold those keys in every stored scenario. A
  // restarted daemon warns about the retired keys and runs the job to the
  // same bits as a fresh submission.
  const auto dir =
      (std::filesystem::path(::testing::TempDir()) / "mlec-server-older-ledger").string();
  std::filesystem::remove_all(dir);
  {
    Store store(dir);
    store.load();
    StoredJob job;
    job.id = "j-1";
    job.client = "tester";
    job.method = "sim";
    job.seed = 42;
    job.scenario_ini = format_scenario(load_scenario(IniFile::parse_string(scenario_text())));
    job.scenario_ini.insert(job.scenario_ini.find("ure_per_bit"),
                            "kind = exponential\nweibull_shape = 1.2\n"
                            "weibull_scale_hours = 876600\n");
    store.jobs.push_back(job);
    store.next_job = 2;
    store.save();
  }
  Estimate fresh;
  {
    EstimationService service(in_memory_config());
    const SubmitOutcome outcome = service.submit(sim_request());
    service.drain();
    fresh = *service.wait(outcome.job_id).estimate;
  }
  ServiceConfig config = in_memory_config();
  config.state_dir = dir;
  EstimationService service(config);
  service.drain();
  const StoredJob job = service.wait("j-1");
  ASSERT_EQ(job.state, "done");
  ASSERT_TRUE(job.estimate.has_value());
  EXPECT_EQ(diff_estimates(*job.estimate, fresh), "");
  std::filesystem::remove_all(dir);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(EstimationService, JoinsAndHitsLeaveTheLedgerUntouched) {
  // Only job state transitions rewrite state.json. A join or a memo hit
  // changes nothing but counters, which status() reports at once and the
  // next transition persists.
  const auto dir =
      (std::filesystem::path(::testing::TempDir()) / "mlec-server-ledger").string();
  std::filesystem::remove_all(dir);
  ServiceConfig config = in_memory_config();
  config.state_dir = dir;
  EstimationService service(config);
  const std::string state = dir + "/state.json";

  const SubmitOutcome first = service.submit(sim_request());
  const std::string queued = file_bytes(state);
  ASSERT_FALSE(queued.empty());
  EXPECT_TRUE(service.submit(sim_request()).joined);
  EXPECT_EQ(file_bytes(state), queued);
  EXPECT_EQ(service.status().counters.at("joined"), 1u);

  service.drain();
  ASSERT_EQ(service.wait(first.job_id).state, "done");
  const std::string done = file_bytes(state);
  EXPECT_NE(done.find("\"joined\""), std::string::npos);  // saved by the transition
  EXPECT_TRUE(service.submit(sim_request()).cached);
  EXPECT_EQ(file_bytes(state), done);
  EXPECT_EQ(service.status().counters.at("cache_hits"), 1u);
  std::filesystem::remove_all(dir);
}

/// In-process daemon on an ephemeral port with background runners.
struct DaemonFixture {
  EstimationService service;
  Server server;

  DaemonFixture()
      : service([] {
          ServiceConfig config;
          config.pool = nullptr;
          config.runners = 2;
          config.shards = 2;
          config.checkpoint_every = 16;
          return config;
        }()),
        server(service, ServerConfig{}) {
    service.start();
    server.start();
  }
  ~DaemonFixture() {
    server.stop();
    service.stop();
  }
};

json::Value submit_op(bool wait) {
  json::Value req = json::Value::object();
  req.set("op", "submit");
  req.set("scenario_ini", scenario_text());
  req.set("method", "sim");
  req.set("client", "tester");
  if (wait) req.set("wait", true);
  return req;
}

TEST(Daemon, TwoConcurrentClientsShareOneCampaign) {
  DaemonFixture daemon;
  json::Value responses[2];
  std::thread clients[2];
  for (int i = 0; i < 2; ++i) {
    clients[i] = std::thread([&, i] {
      Client client("127.0.0.1", daemon.server.port());
      responses[i] = client.request(submit_op(/*wait=*/true));
    });
  }
  for (auto& t : clients) t.join();

  Estimate estimates[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(responses[i].bool_or("ok", false)) << json::dump(responses[i]);
    const json::Value* est = responses[i].get("estimate");
    ASSERT_NE(est, nullptr) << json::dump(responses[i]);
    estimates[i] = estimate_from_json(*est);
  }
  // Both clients got the same bits out of one campaign: the second
  // submission either joined the in-flight job or hit the memo cache.
  EXPECT_EQ(diff_estimates(estimates[0], estimates[1]), "");

  Client prober("127.0.0.1", daemon.server.port());
  json::Value status_op = json::Value::object();
  status_op.set("op", "status");
  const json::Value status = prober.request(status_op);
  const json::Value* counters = status.get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->str_or("submissions", "0"), "2");
  EXPECT_EQ(counters->str_or("completed", "0"), "1");
  const auto hits = json::u64_from_string(counters->str_or("cache_hits", "0")) +
                    json::u64_from_string(counters->str_or("joined", "0"));
  EXPECT_EQ(hits, 1u);
}

TEST(Daemon, WatchStreamsEndWithExactlyOneTerminalEvent) {
  DaemonFixture daemon;
  Client submitter("127.0.0.1", daemon.server.port());
  const json::Value accepted = submitter.request(submit_op(/*wait=*/false));
  ASSERT_TRUE(accepted.bool_or("ok", false));
  const std::string job_id = accepted.str_or("job", "");
  ASSERT_FALSE(job_id.empty());

  json::Value watch_op = json::Value::object();
  watch_op.set("op", "watch");
  watch_op.set("job", job_id);
  Client watcher("127.0.0.1", daemon.server.port());
  std::vector<std::string> kinds;
  json::Value terminal;
  watcher.stream(watch_op, [&](const json::Value& event) {
    const std::string kind = event.str_or("event", "?");
    kinds.push_back(kind);
    if (kind == "progress" || kind == "requeued") return true;
    terminal = event;
    return false;
  });
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds.back(), "done");
  for (std::size_t i = 0; i + 1 < kinds.size(); ++i)
    EXPECT_TRUE(kinds[i] == "progress" || kinds[i] == "requeued") << kinds[i];
  ASSERT_NE(terminal.get("estimate"), nullptr);
  EXPECT_GT(estimate_from_json(*terminal.get("estimate")).samples, 0u);
}

TEST(Daemon, ProtocolErrorsKeepTheConnectionAlive) {
  DaemonFixture daemon;
  Client client("127.0.0.1", daemon.server.port());
  json::Value bad_op = json::Value::object();
  bad_op.set("op", "frobnicate");
  EXPECT_FALSE(client.request(bad_op).bool_or("ok", true));

  json::Value bad_submit = json::Value::object();
  bad_submit.set("op", "submit");
  bad_submit.set("scenario_ini", "not an ini at all = [");
  EXPECT_FALSE(client.request(bad_submit).bool_or("ok", true));

  json::Value ping = json::Value::object();
  ping.set("op", "ping");
  EXPECT_TRUE(client.request(ping).bool_or("ok", false));
}

}  // namespace
}  // namespace mlec::server
