// Minimal work-stealing-free thread pool for embarrassingly parallel
// Monte-Carlo sweeps.
//
// The library's heavy paths are independent trials/cells, so a static-chunked
// parallel_for over an index range covers every need without task graphs.
//
// Tasks are queued into one of three priority lanes (interactive, normal,
// batch). Workers always drain lower-numbered lanes first, so an interactive
// campaign's chunks overtake queued batch chunks at every dispatch point.
// Lanes are a dispatch-order policy only — a running task is never
// interrupted; preemption of long campaigns happens cooperatively at block
// boundaries via StopToken (see the server's fair-share scheduler).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/stop_token.hpp"
#include "util/thread_safety.hpp"

namespace mlec {

/// Dispatch lanes, highest priority first. kLaneNormal is the default for
/// every pre-existing caller; the estimation service maps client priority
/// classes onto lanes.
inline constexpr std::size_t kLaneInteractive = 0;
inline constexpr std::size_t kLaneNormal = 1;
inline constexpr std::size_t kLaneBatch = 2;
inline constexpr std::size_t kLaneCount = 3;

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means the MLEC_THREADS environment
  /// variable when set, else std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [begin, end), partitioned into contiguous chunks, and
  /// block until all complete. fn must be safe to call concurrently for
  /// distinct i.
  ///
  /// Fault policy: the first exception a chunk throws abandons the batch's
  /// not-yet-started chunks (they are drained without running fn), the batch
  /// is still joined, and the first exception is rethrown — the pool itself
  /// stays fully usable for subsequent calls. When `stop` fires, remaining
  /// chunks are likewise skipped and the call returns normally (cooperative
  /// truncation; callers consult the token for partial-result handling).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, StopToken stop = {},
                    std::size_t lane = kLaneNormal);

  /// Run fn(chunk_index, begin, end) over `chunks` contiguous ranges; useful
  /// when each worker wants private state (e.g. an Rng) per chunk. Same
  /// fault/cancellation policy as parallel_for.
  void parallel_chunks(std::size_t begin, std::size_t end, std::size_t chunks,
                       const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
                       StopToken stop = {}, std::size_t lane = kLaneNormal);

 private:
  void submit(std::size_t lane, std::function<void()> task) MLEC_EXCLUDES(mutex_);
  void worker_loop() MLEC_EXCLUDES(mutex_);
  /// Any lane non-empty? The dispatch predicate for the worker wait loop.
  bool any_task_locked() const MLEC_REQUIRES(mutex_);

  /// Immutable after construction (joined by the destructor); size() reads
  /// it lock-free from any thread.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::array<std::queue<std::function<void()>>, kLaneCount> lanes_ MLEC_GUARDED_BY(mutex_);
  bool stop_ MLEC_GUARDED_BY(mutex_) = false;
};

/// Process-wide default pool (lazily constructed).
ThreadPool& global_pool();

}  // namespace mlec
