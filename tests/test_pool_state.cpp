#include "sim/pool_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mlec {
namespace {

PoolRepairModel clustered_model() {
  PoolRepairModel m;
  m.code = {3, 1};
  m.pool_disks = 4;
  m.clustered = true;
  m.detection_hours = 0.5;
  m.disk_capacity_tb = 20.0;
  m.disk_eff_mbps = 40.0;
  m.finalize();
  return m;
}

PoolRepairModel declustered_model(bool priority = true) {
  PoolRepairModel m;
  m.code = {3, 1};
  m.pool_disks = 8;
  m.clustered = false;
  m.priority_repair = priority;
  m.detection_hours = 0.5;
  m.disk_capacity_tb = 20.0;
  m.disk_eff_mbps = 40.0;
  m.finalize();
  return m;
}

TEST(PoolRepairModel, ClusteredRateIsSpareWriteBandwidth) {
  const auto m = clustered_model();
  // 40 MB/s onto one spare = 0.144 TB/h, independent of failure count.
  EXPECT_NEAR(m.clustered_rate_tb_h(), 0.144, 1e-12);
  EXPECT_DOUBLE_EQ(m.per_failure_rate_tb_h(2, 1), m.clustered_rate_tb_h());
}

TEST(PoolRepairModel, DeclusteredBandwidthShrinksWithFailures) {
  const auto m = declustered_model();
  // Table 2: (n-f) * disk_eff / (k_l+1).
  EXPECT_NEAR(m.declustered_bw_tb_h(1), 7.0 * 40.0 / 4.0 * 3600e6 / 1e12, 1e-12);
  EXPECT_GT(m.declustered_bw_tb_h(1), m.declustered_bw_tb_h(3));
  // The aggregate is split across the detected rebuilds.
  EXPECT_DOUBLE_EQ(m.per_failure_rate_tb_h(2, 2), m.declustered_bw_tb_h(2) / 2.0);
}

TEST(PoolRepairModel, NothingRebuildsBeforeDetection) {
  EXPECT_DOUBLE_EQ(clustered_model().per_failure_rate_tb_h(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(declustered_model().per_failure_rate_tb_h(3, 0), 0.0);
}

TEST(PoolRepairModel, DeclusteredLostFractionIsHypergeometricTail) {
  const auto m = declustered_model();
  EXPECT_DOUBLE_EQ(m.declustered_lost_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(m.declustered_lost_fraction(1), 0.0);  // p_l+1 = 2 needed
  // P(>=2 of a 4-wide stripe on 2 failed of 8 disks) = C(6,4)/C(8,4) = 15/70.
  EXPECT_NEAR(m.declustered_lost_fraction(2), 15.0 / 70.0, 1e-12);
  EXPECT_LT(m.declustered_lost_fraction(2), m.declustered_lost_fraction(3));
  EXPECT_DOUBLE_EQ(m.declustered_lost_fraction(m.pool_disks), 1.0);
}

TEST(PoolRepairModel, CriticalWindowCoversDetectionPlusDemotion) {
  const auto m = declustered_model();
  EXPECT_GT(m.critical_window_hours(1), m.detection_hours);
  EXPECT_GT(m.critical_volume_tb(1), 0.0);
}

/// A fresh pool of model m that has taken failures at `times`; returns the
/// last failure's verdict.
bool fail_all(LocalPoolState& pool, const PoolRepairModel& m, std::initializer_list<double> times) {
  pool.reset(m);
  bool catastrophic = false;
  for (const double t : times) catastrophic = pool.fail(t, m);
  return catastrophic;
}

TEST(LocalPoolState, DetectionThenCompletionSequencing) {
  // p_l = 1: the second of two overlapping failures is catastrophic, and the
  // first one's share of it follows its clock: untouched until detection,
  // then rebuilt at the spare's rate until it is gone.
  const auto m = clustered_model();
  const double finish = 0.5 + 20.0 / m.clustered_rate_tb_h();
  LocalPoolState pool;
  ASSERT_TRUE(fail_all(pool, m, {0.0, 0.25}));  // before detection
  EXPECT_DOUBLE_EQ(pool.unrebuilt_tb(m), 40.0);
  EXPECT_DOUBLE_EQ(pool.lost_stripe_fraction(m), 1.0);
  ASSERT_TRUE(fail_all(pool, m, {0.0, finish - 1.0}));  // one hour of rebuild left
  EXPECT_NEAR(pool.unrebuilt_tb(m), 20.0 + m.clustered_rate_tb_h(), 1e-9);
  // At its finish time the first rebuild is done: the overlap is tolerated.
  EXPECT_FALSE(fail_all(pool, m, {0.0, m.detection_hours + m.clustered_rebuild_hours()}));
}

TEST(LocalPoolState, AdvanceTracksUnrebuiltVolume) {
  const auto m = clustered_model();
  LocalPoolState pool;
  ASSERT_TRUE(fail_all(pool, m, {0.0, 0.5 + 10.0 / m.clustered_rate_tb_h()}));  // half rebuilt
  EXPECT_EQ(pool.concurrent_failures(m), 2u);
  EXPECT_NEAR(pool.unrebuilt_tb(m), 30.0, 1e-9);
  EXPECT_NEAR(pool.lost_stripe_fraction(m), 0.5, 1e-9);
}

// Differential check of the clustered ring against a brute-force reference
// kept here: a failure at `start` finishes at start + detection +
// capacity/rate, is in flight at t while its finish is after t, and has
// min(capacity, rate * (finish - t)) left at t; a failure is catastrophic
// when p_l failures are in flight before it. The realized state must match
// bit for bit.
TEST(LocalPoolState, ClusteredClockMatchesReferenceOverRandomSequences) {
  const double rate = 40.0 * 3600e6 / 1e12;
  Rng rng(20231112);
  for (const std::size_t p : {0u, 1u, 2u, 3u, 6u}) {
    for (const double detection : {0.5, 0.0}) {
      SCOPED_TRACE("p_l " + std::to_string(p) + ", detection " + std::to_string(detection));
      PoolRepairModel m;
      m.code = {4, p};
      m.pool_disks = 4 + p;
      m.clustered = true;
      m.detection_hours = detection;
      m.disk_capacity_tb = 20.0;
      m.disk_eff_mbps = 40.0;
      m.finalize();
      ASSERT_NEAR(m.clustered_rebuild_hours(), 20.0 / rate, 1e-9);
      const double rebuild_hours = m.clustered_rebuild_hours();
      // Steps short enough that p_l+1 failures often overlap.
      const double step = 2.0 * rebuild_hours / static_cast<double>(p + 1);

      LocalPoolState pool;
      std::size_t catastrophes = 0, tolerated = 0;
      for (int sequence = 0; sequence < 100; ++sequence) {
        pool.reset(m);
        std::vector<double> starts;  // reference: in-flight failures, arrival order
        double t = 0.0;
        for (int failure = 0; failure < 40; ++failure) {
          // Mostly short steps, some long ones, some of zero length (a
          // same-instant burst), and some to the oldest in-flight failure's
          // finish time, when that rebuild has just completed.
          const std::uint64_t kind = rng.uniform_below(10);
          if (kind == 1 && !starts.empty())
            t = std::max(t, starts.front() + m.detection_hours + m.clustered_rebuild_hours());
          else if (kind >= 2)
            t += rng.uniform() * (kind < 9 ? step : 2.0 * rebuild_hours);

          std::erase_if(starts, [&](double start) {
            return start + m.detection_hours + m.clustered_rebuild_hours() <= t;
          });
          starts.push_back(t);
          const bool expected = starts.size() > p;
          ASSERT_EQ(pool.fail(t, m), expected) << "sequence " << sequence << " failure " << failure;
          if (!expected) {
            ++tolerated;
            continue;
          }
          ++catastrophes;
          double unrebuilt = 0.0, max_progress = 0.0;
          for (std::size_t i = 0; i < starts.size(); ++i) {
            const double finish = starts[i] + m.detection_hours + m.clustered_rebuild_hours();
            const double remaining = i + 1 < starts.size()
                                         ? std::min(m.disk_capacity_tb, rate * (finish - t))
                                         : m.disk_capacity_tb;
            unrebuilt += remaining;
            max_progress = std::max(max_progress, 1.0 - remaining / m.disk_capacity_tb);
          }
          EXPECT_EQ(pool.concurrent_failures(m), starts.size());
          EXPECT_EQ(pool.unrebuilt_tb(m), unrebuilt);
          EXPECT_EQ(pool.lost_stripe_fraction(m), 1.0 - max_progress);
          pool.reset(m);
          starts.clear();
        }
      }
      EXPECT_GT(catastrophes, 200u);
      if (p > 0) {
        EXPECT_GT(tolerated, 500u);
      }
    }
  }
}

TEST(LocalPoolState, ClusteredOverlapIsCatastrophic) {
  const auto m = clustered_model();  // p_l = 1: two concurrent failures fatal
  LocalPoolState pool;
  pool.reset(m);
  EXPECT_FALSE(pool.fail(0.0, m));
  EXPECT_TRUE(pool.fail(10.0, m));
}

TEST(LocalPoolState, PriorityRepairOnlyFatalInsideCriticalWindow) {
  // (3+2) on 10 disks: the second failure opens a critical window, short
  // next to the rebuilds, during which a third is fatal.
  PoolRepairModel m;
  m.code = {3, 2};
  m.pool_disks = 10;
  m.clustered = false;
  m.priority_repair = true;
  m.detection_hours = 0.5;
  m.disk_capacity_tb = 20.0;
  m.disk_eff_mbps = 40.0;
  m.finalize();
  const double window = m.critical_window_hours(2);
  ASSERT_LT(window, 50.0);  // both rebuilds take over 100 hours

  LocalPoolState pool;
  EXPECT_TRUE(fail_all(pool, m, {0.0, 1.0, 1.0 + window / 2.0}));
  EXPECT_EQ(pool.concurrent_failures(m), 3u);
  // The same overlap after the window has closed is tolerated.
  EXPECT_FALSE(fail_all(pool, m, {0.0, 1.0, 1.0 + window + 1.0}));

  // Without priority reconstruction any p_l+1 overlap is fatal regardless.
  m.priority_repair = false;
  EXPECT_TRUE(fail_all(pool, m, {0.0, 1.0, 1.0 + window + 1.0}));
}

TEST(LocalPoolState, DeclusteredLossUsesHypergeometricFraction) {
  const auto m = declustered_model();
  LocalPoolState pool;
  ASSERT_TRUE(fail_all(pool, m, {0.0, 0.0}));
  EXPECT_EQ(pool.concurrent_failures(m), 2u);
  EXPECT_DOUBLE_EQ(pool.unrebuilt_tb(m), 40.0);
  EXPECT_DOUBLE_EQ(pool.lost_stripe_fraction(m), m.declustered_lost_fraction(2));
}

TEST(LocalPoolState, ResetForgetsEverything) {
  for (const auto& m : {clustered_model(), declustered_model()}) {
    LocalPoolState pool;
    pool.reset(m);
    ASSERT_FALSE(pool.fail(0.0, m));  // opens the declustered critical window
    pool.reset(m);
    EXPECT_FALSE(pool.fail(0.0, m));
  }
}

}  // namespace
}  // namespace mlec
