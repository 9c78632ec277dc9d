// Durable server state: the submission log and the result memo cache.
//
// The store is a plain value object — the EstimationService's mutex is the
// concurrency story — persisted as one JSON document rewritten atomically
// through the journal layer's save_bytes_durable (tmp + fsync + rename +
// fsync parent), so a crash at any instant leaves either the old state or
// the new state on disk, never a torn file. Per-job campaign checkpoints
// live beside it as journal files (journal_base() + ".<method>"), giving a
// restarted daemon both the job ledger and the block-level resume points:
// load() re-queues anything that was queued or running when the process
// died, and the campaign runner resumes those bit-identically.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "server/protocol.hpp"

namespace mlec::server {

/// One submission, live or terminal. `state` is one of "queued",
/// "running", "done", "cancelled".
struct StoredJob {
  std::string id;
  std::string client;
  std::string method;
  Priority priority = Priority::kNormal;
  std::uint64_t seed = 0;
  double rse_target = 0.0;
  std::uint64_t fingerprint = 0;
  std::string scenario_ini;  ///< canonical normal form (format_scenario)
  std::string state = "queued";
  std::optional<Estimate> estimate;  ///< set once state == "done"
};

/// Memo-cache key: isomorphic scenarios share a fingerprint, so two
/// submissions collide here exactly when they must return the same bits.
std::string memo_key(std::uint64_t fingerprint, const std::string& method, std::uint64_t seed,
                     double rse_target);

class Store {
 public:
  /// Empty `state_dir` runs in-memory: save() is a no-op and campaigns get
  /// no checkpoint journals (jobs restart from scratch after preemption).
  explicit Store(std::string state_dir);

  bool persistent() const { return !dir_.empty(); }
  const std::string& state_dir() const { return dir_; }

  /// Read state from <dir>/state.json. Absent file is a fresh store;
  /// malformed content throws (save() is atomic, so damage is real).
  void load();
  /// Atomically rewrite <dir>/state.json. Fault point
  /// `server.store.save.post` fires after the durable write so chaos can
  /// kill the daemon at the instant the new state just landed.
  void save();

  /// Campaign checkpoint base path for a job; the campaign-backed
  /// estimators append ".<method>". Empty when in-memory.
  std::string journal_base(const std::string& job_id) const;
  /// Remove any checkpoint journals a finished job left behind.
  void discard_journals(const std::string& job_id) const;

  StoredJob* find(const std::string& job_id);
  const StoredJob* find(const std::string& job_id) const;

  std::uint64_t next_job = 1;
  std::vector<StoredJob> jobs;
  std::map<std::string, Estimate> memo;
  std::map<std::string, std::uint64_t> counters;

 private:
  std::string state_path() const;

  std::string dir_;
};

}  // namespace mlec::server
