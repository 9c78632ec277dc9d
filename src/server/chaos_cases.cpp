#include "server/chaos_cases.hpp"

#include <algorithm>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/spec_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace mlec::server {

namespace {

struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { fault::configure(spec); }
  ~ScopedFaults() { fault::clear(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

ChaosCaseResult make_result(const std::string& name, const std::string& faults) {
  ChaosCaseResult r;
  r.name = name;
  r.faults = faults;
  return r;
}

/// Thread-free service configuration shared by baseline, crash, and resume
/// runs — identical knobs are what make the estimates comparable bit for
/// bit (the block size is part of the campaign identity).
ServiceConfig chaos_service_config(const Scenario& scenario, const std::string& state_dir) {
  ServiceConfig config;
  config.state_dir = state_dir;
  config.pool = nullptr;
  config.checkpoint_every = std::max<std::uint64_t>(1, scenario.missions / 8);
  return config;
}

SubmitRequest chaos_submit(const Scenario& scenario) {
  SubmitRequest request;
  request.scenario_ini = format_scenario(scenario);
  request.method = "sim";
  request.client = "chaos";
  return request;
}

/// Submit + drain + fetch the finished estimate on a fresh service.
Estimate run_service_once(const Scenario& scenario, const std::string& state_dir) {
  EstimationService service(chaos_service_config(scenario, state_dir));
  const SubmitOutcome outcome = service.submit(chaos_submit(scenario));
  service.drain();
  const StoredJob job = service.wait(outcome.job_id);
  MLEC_REQUIRE(job.state == "done" && job.estimate.has_value(),
               "chaos: baseline service run did not finish (state " + job.state + ")");
  return *job.estimate;
}

#ifndef _WIN32
/// Fork a child that runs the service under `schedule` and must die at the
/// injected crash (exit 42); then restart the service on the same state
/// dir in the parent, drain the recovered queue, and require the resumed
/// estimate bit-identical to the uninterrupted baseline.
ChaosCaseResult run_server_crash_case(const Scenario& scenario, const std::string& workdir,
                                      const std::string& name, const std::string& schedule) {
  ChaosCaseResult result = make_result(name, schedule);
  Estimate baseline;
  try {
    baseline = run_service_once(scenario, workdir + "/" + name + "-baseline");
  } catch (const std::exception& e) {
    result.detail = std::string("baseline run failed: ") + e.what();
    return result;
  }

  const std::string crash_dir = workdir + "/" + name + "-crash";
  const pid_t pid = ::fork();
  if (pid == 0) {
    try {
      fault::configure(schedule);
      EstimationService service(chaos_service_config(scenario, crash_dir));
      service.submit(chaos_submit(scenario));
      service.drain();
      std::_Exit(64);  // survived: the fault never fired
    } catch (...) {
      std::_Exit(65);  // the crash action must not surface as an exception
    }
  }
  MLEC_REQUIRE(pid > 0, "chaos: fork failed");
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 42) {
    result.detail =
        "child did not die at the fault point (status " + std::to_string(status) + ")";
    return result;
  }

  try {
    // Restart: recovery re-queues the in-flight submission; the campaign
    // journal carries the committed blocks.
    EstimationService service(chaos_service_config(scenario, crash_dir));
    service.drain();
    const Estimate* resumed = nullptr;
    for (const StoredJob& job : service.store().jobs)
      if (job.state == "done" && job.estimate) resumed = &*job.estimate;
    if (resumed == nullptr) {
      result.detail = "restarted service did not finish the recovered job";
      return result;
    }
    const std::string diff = diff_estimates(*resumed, baseline);
    if (!diff.empty()) {
      result.detail = "resumed estimate not bit-identical: " + diff;
      return result;
    }
    result.passed = true;
    result.detail = "daemon killed, restart resumed bit-identical";
  } catch (const std::exception& e) {
    result.detail = std::string("restart threw: ") + e.what();
  }
  return result;
}
#endif

/// Shared fixture for the TCP survival cases: in-memory service + real
/// listener on an ephemeral port.
struct DaemonFixture {
  EstimationService service;
  Server server;

  DaemonFixture()
      : service([] {
          ServiceConfig config;
          config.pool = nullptr;
          config.runners = 1;
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

ChaosCaseResult run_request_parse_case(const Scenario&, const ChaosOptions&,
                                       const std::string&) {
  const std::string schedule = "server.request.parse=throw@hit=1";
  ChaosCaseResult result = make_result("server-request-parse-survives", schedule);
  try {
    DaemonFixture daemon;
    Client client("127.0.0.1", daemon.server.port());
    json::Value ping = json::Value::object();
    ping.set("op", "ping");
    json::Value faulted = json::Value::object();
    {
      ScopedFaults faults(schedule);
      faulted = client.request(ping);
    }
    const json::Value healthy = client.request(ping);
    if (faulted.bool_or("ok", true)) {
      result.detail = "injected parse failure did not produce an error response";
    } else if (!healthy.bool_or("ok", false)) {
      result.detail = "connection did not survive the injected parse failure";
    } else {
      result.passed = true;
      result.detail = "parse fault answered with an error; next request served";
    }
  } catch (const std::exception& e) {
    result.detail = std::string("threw: ") + e.what();
  }
  return result;
}

ChaosCaseResult run_accept_fault_case(const Scenario&, const ChaosOptions&,
                                      const std::string&) {
  const std::string schedule = "server.accept.pre=throw@hit=1";
  ChaosCaseResult result = make_result("server-accept-survives", schedule);
  try {
    DaemonFixture daemon;
    json::Value ping = json::Value::object();
    ping.set("op", "ping");
    ScopedFaults faults(schedule);
    // First connection arms the loop past its blocking accept; the fault
    // fires on the following iteration and must only be logged.
    Client first("127.0.0.1", daemon.server.port());
    const json::Value a = first.request(ping);
    Client second("127.0.0.1", daemon.server.port());
    const json::Value b = second.request(ping);
    if (!a.bool_or("ok", false) || !b.bool_or("ok", false)) {
      result.detail = "a connection failed around the injected accept fault";
    } else if (fault::hit_count("server.accept.pre") == 0) {
      result.detail = "accept fault point never hit";
    } else {
      result.passed = true;
      result.detail = "accept fault logged; later connections served";
    }
  } catch (const std::exception& e) {
    result.detail = std::string("threw: ") + e.what();
  }
  return result;
}

}  // namespace

std::vector<ChaosExtraCase> fork_chaos_cases() {
  std::vector<ChaosExtraCase> cases;
#ifndef _WIN32
  cases.push_back({"crash-server-mid-campaign",
                   [](const Scenario& sc, const ChaosOptions&, const std::string& dir) {
                     return run_server_crash_case(sc, dir, "crash-server-mid-campaign",
                                                  "campaign.checkpoint.post=crash@hit=2");
                   }});
  cases.push_back({"crash-server-store-save",
                   [](const Scenario& sc, const ChaosOptions&, const std::string& dir) {
                     return run_server_crash_case(sc, dir, "crash-server-store-save",
                                                  "server.store.save.post=crash@hit=2");
                   }});
#endif
  return cases;
}

std::vector<ChaosExtraCase> late_chaos_cases() {
  return {{"server-request-parse-survives", run_request_parse_case},
          {"server-accept-survives", run_accept_fault_case}};
}

}  // namespace mlec::server
