#include "server/server.hpp"

#include <cstdio>
#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"

#ifndef _WIN32

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <memory>

namespace mlec::server {

namespace {

json::Value job_terminal_event(const StoredJob& job) {
  json::Value v = json::Value::object();
  if (job.state == "done") v.set("event", "done");
  else if (job.state == "cancelled") v.set("event", "cancelled");
  else if (job.state == "failed") v.set("event", "failed");
  else v.set("event", "interrupted");  // daemon shut down mid-watch
  v.set("job", job.id);
  if (job.estimate) v.set("estimate", estimate_to_json(*job.estimate));
  return v;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; the read side will notice
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

Server::Server(EstimationService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MLEC_REQUIRE(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  MLEC_REQUIRE(::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1,
               "bad listen address '" + config_.host + "'");
  MLEC_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
               "cannot bind " + config_.host + ":" + std::to_string(config_.port));
  MLEC_REQUIRE(::listen(listen_fd_, 16) == 0, "listen() failed");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  // Process-wide disposition set once at server start, before connection
  // threads exist; never changed again.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  ::signal(SIGPIPE, SIG_IGN);  // dropped clients must not kill the daemon
  stopping_.store(false);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    try {
      MLEC_FAULT_POINT("server.accept.pre");
    } catch (const std::exception& e) {
      // Survival contract: a transient accept-path failure is logged and
      // the daemon keeps listening.
      std::fprintf(stderr, "mlecd: accept error (continuing): %s\n", e.what());
      continue;
    }
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;
    }
    MutexLock lock(mutex_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    connection_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void Server::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool keep = true;
  while (keep && !stopping_.load()) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      keep = handle_request(fd, line);
      continue;
    }
    if (buffer.size() > kMaxRequestBytes) {
      send_line(fd, error_response("request line exceeds " +
                                   std::to_string(kMaxRequestBytes) + " bytes"));
      break;
    }
    const auto n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::shutdown(fd, SHUT_RDWR);
}

void Server::send_line(int fd, const json::Value& value) {
  write_all(fd, json::dump(value) + "\n");
}

bool Server::handle_request(int fd, const std::string& line) {
  json::Value request = json::Value::object();
  try {
    MLEC_FAULT_POINT("server.request.parse");
    json::ParseLimits limits;
    limits.max_bytes = kMaxRequestBytes;
    request = json::parse(line, limits);
    MLEC_REQUIRE(request.is_object(), "request must be a JSON object");
  } catch (const std::exception& e) {
    send_line(fd, error_response(e.what()));
    return true;
  }

  try {
    const std::string op = request.str_or("op", "");
    if (op == "ping") {
      send_line(fd, ok_response());
      return true;
    }
    if (op == "submit") {
      SubmitRequest req;
      req.scenario_ini = request.str_or("scenario_ini", "");
      req.method = request.str_or("method", "dp");
      req.client = request.str_or("client", "anonymous");
      req.priority = parse_priority(request.str_or("priority", "normal"));
      req.rse_target = request.num_or("rse_target", 0.0);
      if (const json::Value* seed = request.get("seed"))
        req.seed = json::u64_from_string(seed->as_string());
      const SubmitOutcome outcome = service_.submit(req);

      json::Value resp = ok_response();
      resp.set("job", outcome.job_id);
      resp.set("fingerprint", json::u64_to_string(outcome.fingerprint));
      resp.set("cached", outcome.cached);
      resp.set("joined", outcome.joined);
      if (outcome.estimate) resp.set("estimate", estimate_to_json(*outcome.estimate));
      if (!outcome.cached && request.bool_or("wait", false)) {
        const StoredJob job = service_.wait(outcome.job_id);
        resp.set("state", job.state);
        if (job.estimate) resp.set("estimate", estimate_to_json(*job.estimate));
      }
      send_line(fd, resp);
      return true;
    }
    if (op == "status") {
      const ServiceStatus status = service_.status();
      json::Value resp = ok_response();
      json::Value jobs = json::Value::array();
      for (const ServiceStatus::Job& job : status.jobs) {
        json::Value j = json::Value::object();
        j.set("id", job.id);
        j.set("client", job.client);
        j.set("method", job.method);
        j.set("priority", job.priority);
        j.set("state", job.state);
        j.set("units_done", json::u64_to_string(job.units_done));
        j.set("units_total", json::u64_to_string(job.units_total));
        j.set("rse", job.rse);
        jobs.push_back(std::move(j));
      }
      resp.set("jobs", std::move(jobs));
      json::Value counters = json::Value::object();
      for (const auto& [key, count] : status.counters)
        counters.set(key, json::u64_to_string(count));
      resp.set("counters", std::move(counters));
      json::Value spent = json::Value::object();
      for (const auto& [client, tokens] : status.spent_by_client)
        spent.set(client, json::u64_to_string(tokens));
      resp.set("spent_by_client", std::move(spent));
      send_line(fd, resp);
      return true;
    }
    if (op == "watch") {
      const std::string job_id = request.str_or("job", "");
      // Progress events arrive from worker threads while this thread blocks
      // in wait(); the write mutex keeps frames whole. Terminal events are
      // sent from the ledger after wait() (not via the sink) so the stream
      // always ends with exactly one terminal line.
      auto write_mutex = std::make_shared<Mutex>();
      const std::uint64_t token = service_.subscribe(
          job_id, [this, fd, write_mutex](const json::Value& event) {
            const std::string kind = event.str_or("event", "");
            if (kind != "progress" && kind != "requeued") return;
            MutexLock guard(*write_mutex);
            send_line(fd, event);
          });
      const StoredJob job = service_.wait(job_id);
      if (token != 0) service_.unsubscribe(token);
      MutexLock guard(*write_mutex);
      send_line(fd, job_terminal_event(job));
      return true;
    }
    if (op == "cancel") {
      const bool cancelled = service_.cancel(request.str_or("job", ""));
      json::Value resp = ok_response();
      resp.set("cancelled", cancelled);
      send_line(fd, resp);
      return true;
    }
    if (op == "shutdown") {
      send_line(fd, ok_response());
      {
        MutexLock lock(mutex_);
        shutdown_requested_ = true;
      }
      cv_.notify_all();
      return false;
    }
    send_line(fd, error_response("unknown op '" + op + "'"));
    return true;
  } catch (const std::exception& e) {
    send_line(fd, error_response(e.what()));
    return true;
  }
}

void Server::wait_shutdown() {
  MutexLock lock(mutex_);
  // Explicit wait loop so the analysis sees the guarded read under the lock.
  while (!shutdown_requested_ && !stopping_.load()) cv_.wait(mutex_);
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    // Second call (destructor after explicit stop): threads already joined.
  }
  // exchange() both invalidates the fd the acceptor reads and makes a
  // second stop() (destructor after explicit stop) a no-op close.
  const int listener = listen_fd_.exchange(-1);
  if (listener >= 0) {
    ::shutdown(listener, SHUT_RDWR);
    ::close(listener);
  }
  {
    MutexLock lock(mutex_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    shutdown_requested_ = true;
  }
  cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> connections;
  std::vector<int> fds;
  {
    MutexLock lock(mutex_);
    connections.swap(connections_);
    fds.swap(connection_fds_);
  }
  for (std::thread& conn : connections)
    if (conn.joinable()) conn.join();
  for (const int fd : fds) ::close(fd);
}

}  // namespace mlec::server

#else  // _WIN32

namespace mlec::server {

Server::Server(EstimationService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}
Server::~Server() = default;
void Server::start() { throw PreconditionError("mlecd requires POSIX sockets"); }
void Server::wait_shutdown() {}
void Server::stop() {}

}  // namespace mlec::server

#endif
