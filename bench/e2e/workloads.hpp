// The four end-to-end workloads and the pieces the layer probes share with
// them. README.md gives each workload's purpose; every workload fills a Run
// with set-up samples, pass times and one checked entry per request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/scenario.hpp"
#include "gf/rs.hpp"
#include "harness.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

void run_paper_scale(Run& run);
void run_toy_campaign(Run& run);
void run_mlecd_mix(Run& run);
void run_ec_rebuild(Run& run);
/// Measure every per-layer metric (traced runs; see layer_metrics()).
void run_probes(Run& run);

/// Scenario INI text at the paper's topology (60 racks x 8 enclosures x
/// 120 disks), C/C placement, R_MIN repair, with the given code and AFR.
std::string paper_scale_ini(const std::string& code, double afr);
/// INI text of examples/scenarios/crosscheck_<name>.ini in the checkout.
std::string crosscheck_ini(const Run& run, const std::string& name);
/// Parse, load and validate, as a submitted scenario is.
mlec::Scenario load_checked(const std::string& ini_text);

/// Why an estimate fails the workload's answer checks; empty when it passes.
/// `dp_nines` < 0 skips the agreement check.
std::string estimate_error(const mlec::Estimate& estimate, bool need_converged, double dp_nines);

/// mlecd_mix traffic: `keys` (at most kMlecdKeys) seeded submit requests,
/// perturbed crosscheck scenarios x method x seed, all distinct, and a
/// sequence of `length` key indices: every key once, the rest Zipf-drawn,
/// shuffled.
inline constexpr std::size_t kMlecdKeys = 2 * 3 * 2 * 3 * 3 * 3;
std::vector<Value> mlecd_population(const Run& run, std::size_t keys);
std::vector<std::size_t> zipf_sequence(const Run& run, std::size_t keys, std::size_t length);

/// An in-process mlecd with the `mlecctl serve` defaults: nproc pool
/// workers, 2 campaign runners, 4 shards per campaign, listening on an
/// ephemeral loopback port. An empty `state_dir` keeps its state in memory,
/// as `mlecctl serve` does without --state-dir.
class Daemon {
 public:
  Daemon(const std::string& state_dir, std::size_t workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return server_.port(); }
  mlec::server::EstimationService& service() { return service_; }

 private:
  mlec::ThreadPool pool_;
  mlec::server::EstimationService service_;
  mlec::server::Server server_;
};

/// Shard buffers for the paper's local (17+3) and network (10+2) RS codes,
/// data filled from a seed and parity encoded, plus a seeded set of erasure
/// patterns per code. All shards together take 4x the L3 (capped), so a
/// rebuild streams from memory. Rebuilt shards land in separate scratch
/// buffers, so the originals stay pristine for the byte-equality check.
class RebuildRig {
 public:
  static constexpr std::size_t kPatternsPerCode = 32;

  RebuildRig(std::uint64_t seed, mlec::ThreadPool& pool);

  struct Code {
    std::unique_ptr<mlec::gf::RsCode> rs;
    std::vector<std::uint8_t*> shards;               ///< k + p pristine shards
    std::vector<std::vector<std::size_t>> patterns;  ///< sorted erased positions
  };

  std::size_t shard_bytes() const { return shard_bytes_; }
  /// Bytes of all pristine shards of both codes.
  std::size_t total_bytes() const { return total_bytes_; }
  const std::vector<Code>& codes() const { return codes_; }
  /// Whole arena (shards and scratch), for the memory-bandwidth probe.
  std::uint8_t* arena() { return arena_.get(); }
  std::size_t arena_bytes() const { return arena_bytes_; }

  /// Poison the scratch buffers, then return the shard pointer table for
  /// decoding `pattern` of `code`: erased positions point at scratch.
  std::vector<std::uint8_t*> prepare(std::size_t code, const std::vector<std::size_t>& pattern);
  /// Byte-compare the rebuilt scratch shards with the pristine originals.
  std::string verify(std::size_t code, const std::vector<std::size_t>& pattern) const;
  /// Bytes a rebuild of `pattern` moves: k survivor reads plus one write
  /// per erased shard.
  std::size_t bytes_moved(std::size_t code, const std::vector<std::size_t>& pattern) const;

 private:
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const;
  };
  /// body(lo, hi) over every byte range [lo, hi) of a shard, split across
  /// threads of its own: the checks around a rebuild stay off the pool
  /// whose rebuilds are timed.
  void sliced(const std::function<void(std::size_t, std::size_t)>& body) const;

  const std::size_t threads_;
  std::size_t shard_bytes_ = 0;
  std::size_t total_bytes_ = 0;
  std::size_t arena_bytes_ = 0;
  std::unique_ptr<std::uint8_t[], FreeDeleter> arena_;
  std::vector<std::uint8_t*> scratch_;
  std::vector<Code> codes_;
};

}  // namespace e2e
