#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace mlec {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  Mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_chunks(10, 110, 7, [&](std::size_t, std::size_t lo, std::size_t hi) {
    MutexLock lock(m);
    ranges.emplace_back(lo, hi);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_EQ(ranges.size(), 7u);
  EXPECT_EQ(ranges.front().first, 10u);
  EXPECT_EQ(ranges.back().second, 110u);
  for (std::size_t i = 1; i < ranges.size(); ++i)
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ExceptionAbandonsRemainingChunks) {
  // A single worker runs chunks in order, so chunk 0's throw must cause
  // every later chunk to be drained without executing.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallel_chunks(0, 100, 10,
                                    [&](std::size_t c, std::size_t, std::size_t) {
                                      if (c == 0) throw std::runtime_error("first");
                                      executed.fetch_add(1);
                                    }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, ConcurrentExceptionsPropagateExactlyOne) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> thrown{0};
    try {
      pool.parallel_for(0, 64, [&](std::size_t) {
        thrown.fetch_add(1);
        throw std::runtime_error("concurrent");
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "concurrent");
    }
    EXPECT_GE(thrown.load(), 1);
    // Pool must stay fully usable after every throwing batch.
    std::atomic<int> count{0};
    pool.parallel_for(0, 16, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 16);
  }
}

TEST(ThreadPool, StoppedTokenSkipsWork) {
  ThreadPool pool(2);
  StopSource source;
  source.request_stop();
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); }, source.token());
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, UnstoppedTokenRunsEverything) {
  ThreadPool pool(2);
  StopSource source;
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); }, source.token());
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SumIsCorrectUnderContention) {
  ThreadPool pool;
  std::atomic<long long> total{0};
  pool.parallel_for(1, 10001, [&](std::size_t i) { total.fetch_add(static_cast<long long>(i)); });
  EXPECT_EQ(total.load(), 50005000LL);
}

TEST(ThreadPool, ConcurrentSubmittersOfTinyBatches) {
  // Each call's batch state lives on its submitter's stack. Several threads
  // making many tiny 4-chunk calls on one pool make the last chunk of a
  // batch race its submitter's return into the next call's frame; the
  // sanitizer builds report a chunk that still touches the old state.
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kCallsEach = 3000;
  std::atomic<std::size_t> units{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int call = 0; call < kCallsEach; ++call) {
        pool.parallel_chunks(0, 4, 4, [&](std::size_t, std::size_t lo, std::size_t hi) {
          units.fetch_add(hi - lo, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(units.load(), std::size_t{4} * kSubmitters * kCallsEach);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

TEST(ThreadPool, EnvOverrideSizesDefaultConstruction) {
  // MLEC_THREADS forces the default worker count (sanitizer CI uses it to
  // get real concurrency on small runners). Garbage values fall back to
  // hardware concurrency; an explicit count always wins.
  // setenv/unsetenv race with nothing here: each pool is joined before the
  // next environment write, and no other test thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  ASSERT_EQ(setenv("MLEC_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool{}.size(), 3u);
  EXPECT_EQ(ThreadPool{2}.size(), 2u);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  ASSERT_EQ(setenv("MLEC_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool{}.size(), 1u);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  ASSERT_EQ(unsetenv("MLEC_THREADS"), 0);
}

}  // namespace
}  // namespace mlec
