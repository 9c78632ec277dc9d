#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/error.hpp"

namespace mlec {

namespace {

/// MLEC_THREADS overrides the default worker count (0/unset/garbage =
/// hardware concurrency). Lets sanitizer CI force real parallelism on
/// small runners and benchmarks pin reproducible pool sizes.
std::size_t default_threads() {
  // Read-only getenv during pool construction; nothing in the process
  // writes the environment concurrently (tests that do use their own pool).
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("MLEC_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Join/fault state of one parallel_chunks batch. Lives on the submitting
/// thread's stack for the whole batch. Every chunk decrements `remaining`
/// and notifies with `mutex` held, and the submitter reads it only with
/// `mutex` held, so the submitter cannot see zero and return (reusing the
/// frame) before the last chunk has released the mutex and is done with the
/// state. A named struct rather than loose locals because MLEC_GUARDED_BY
/// can only annotate members.
struct BatchState {
  Mutex mutex;
  CondVar done_cv;
  std::exception_ptr first_error MLEC_GUARDED_BY(mutex);
  std::size_t remaining MLEC_GUARDED_BY(mutex);
  std::atomic<bool> abandoned{false};

  explicit BatchState(std::size_t chunks) : remaining(chunks) {}
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::size_t lane, std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    lanes_[std::min(lane, kLaneCount - 1)].push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::any_task_locked() const {
  for (const auto& lane : lanes_)
    if (!lane.empty()) return true;
  return false;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && !any_task_locked()) cv_.wait(mutex_);
      if (stop_ && !any_task_locked()) return;
      // Lower-numbered lanes always win: interactive chunks overtake any
      // queued batch work at every dispatch point.
      for (auto& lane : lanes_) {
        if (lane.empty()) continue;
        task = std::move(lane.front());
        lane.pop();
        break;
      }
    }
    task();
  }
}

void ThreadPool::parallel_chunks(
    std::size_t begin, std::size_t end, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn, StopToken stop,
    std::size_t lane) {
  MLEC_REQUIRE(begin <= end, "empty-forward range required");
  if (begin == end) return;
  chunks = std::clamp<std::size_t>(chunks, 1, end - begin);

  BatchState state(chunks);

  const std::size_t total = end - begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + total * c / chunks;
    const std::size_t hi = begin + total * (c + 1) / chunks;
    submit(lane, [&, c, lo, hi] {
      // A thrown chunk (or a fired stop token) abandons the chunks that have
      // not started yet; they still drain through the queue so the batch
      // joins cleanly and the pool stays usable.
      if (!state.abandoned.load(std::memory_order_acquire) && !stop.stop_requested()) {
        try {
          fn(c, lo, hi);
        } catch (...) {
          MutexLock lock(state.mutex);
          if (!state.first_error) state.first_error = std::current_exception();
          state.abandoned.store(true, std::memory_order_release);
        }
      }
      MutexLock lock(state.mutex);
      if (--state.remaining == 0) state.done_cv.notify_all();
    });
  }
  std::exception_ptr first_error;
  {
    MutexLock lock(state.mutex);
    while (state.remaining != 0) state.done_cv.wait(state.mutex);
    first_error = state.first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn, StopToken stop,
                              std::size_t lane) {
  parallel_chunks(
      begin, end, size() * 4,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      std::move(stop), lane);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mlec
