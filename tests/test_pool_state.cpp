#include "sim/pool_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
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

TEST(LocalPoolState, DetectionThenCompletionSequencing) {
  const auto m = clustered_model();
  LocalPoolState pool;
  pool.add_failure(0.0, m);
  const double finish = 0.5 + 20.0 / m.clustered_rate_tb_h();

  std::vector<std::pair<double, double>> completions;
  pool.advance_to(finish + 1.0, m,
                  [&](double start, double end) { completions.emplace_back(start, end); });
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_DOUBLE_EQ(completions[0].first, 0.0);
  EXPECT_NEAR(completions[0].second, finish, 1e-6);
  EXPECT_TRUE(pool.failures.empty());
  EXPECT_TRUE(pool.idle(finish + 1.0));
}

TEST(LocalPoolState, AdvanceTracksUnrebuiltVolume) {
  const auto m = clustered_model();
  LocalPoolState pool;
  pool.add_failure(0.0, m);
  EXPECT_DOUBLE_EQ(pool.unrebuilt_tb(), 20.0);
  EXPECT_DOUBLE_EQ(pool.lost_stripe_fraction(m), 1.0);
  pool.advance_to(0.5 + 10.0 / m.clustered_rate_tb_h(), m);  // half rebuilt
  EXPECT_NEAR(pool.unrebuilt_tb(), 10.0, 1e-9);
  EXPECT_NEAR(pool.lost_stripe_fraction(m), 0.5, 1e-9);
}

// Differential check of the clustered closed-form clock against a reference
// kept here: a failure at `start` finishes at start + detection +
// capacity/rate and has min(capacity, rate * (finish - t)) left at t.
TEST(LocalPoolState, ClusteredClockMatchesReferenceOverRandomSequences) {
  PoolRepairModel m;
  m.code = {4, 2};
  m.pool_disks = 6;
  m.clustered = true;
  m.detection_hours = 0.5;
  m.disk_capacity_tb = 20.0;
  m.disk_eff_mbps = 40.0;
  m.finalize();
  const double rate = 40.0 * 3600e6 / 1e12;
  const double rebuild_hours = 20.0 / rate;

  Rng rng(20231112);
  std::size_t completions_seen = 0;
  for (int sequence = 0; sequence < 200; ++sequence) {
    LocalPoolState pool;
    std::vector<double> starts;  // reference: in-flight failures, arrival order
    double t = 0.0;
    for (int step = 0; step < 60; ++step) {
      // Mostly short steps, some long ones, and some of zero length (an
      // advance or an arrival at the current t).
      const std::uint64_t kind = rng.uniform_below(10);
      if (kind >= 2) t += rng.uniform() * (kind < 9 ? 0.4 : 2.0) * rebuild_hours;

      std::vector<std::pair<double, double>> done;
      pool.advance_to(t, m, [&](double start, double finish) { done.emplace_back(start, finish); });
      std::vector<double> expected_done;
      while (!starts.empty() && starts.front() + m.detection_hours + rebuild_hours <= t) {
        expected_done.push_back(starts.front());
        starts.erase(starts.begin());
      }
      ASSERT_EQ(done.size(), expected_done.size()) << "sequence " << sequence << " step " << step;
      for (std::size_t i = 0; i < done.size(); ++i) {
        EXPECT_EQ(done[i].first, expected_done[i]);  // arrival order
        const double detect_at = done[i].first + m.detection_hours;
        EXPECT_EQ(done[i].second, detect_at + m.clustered_rebuild_hours());
        EXPECT_LE(done[i].second, t);
        EXPECT_NEAR(done[i].second, detect_at + rebuild_hours, 1e-9);
      }
      completions_seen += done.size();

      ASSERT_EQ(pool.failures.size(), starts.size());
      for (std::size_t i = 0; i < starts.size(); ++i) {
        const double finish = starts[i] + m.detection_hours + rebuild_hours;
        const double expected = std::min(m.disk_capacity_tb, rate * (finish - t));
        EXPECT_EQ(pool.failures[i].start, starts[i]);
        EXPECT_NEAR(pool.failures[i].remaining_tb, expected, 1e-9);
      }

      if (rng.uniform_below(10) < 4 && starts.size() < 5) {
        pool.add_failure(t, m);
        starts.push_back(t);
      }
    }
  }
  EXPECT_GT(completions_seen, 1000u);  // the sequences exercise completions
}

TEST(LocalPoolState, ClusteredOverlapIsCatastrophic) {
  const auto m = clustered_model();  // p_l = 1: two concurrent failures fatal
  LocalPoolState pool;
  pool.add_failure(0.0, m);
  EXPECT_FALSE(pool.catastrophic(0.0, m));
  pool.advance_to(10.0, m);
  pool.add_failure(10.0, m);
  EXPECT_TRUE(pool.catastrophic(10.0, m));
}

TEST(LocalPoolState, PriorityRepairOnlyFatalInsideCriticalWindow) {
  const auto m = declustered_model(/*priority=*/true);
  LocalPoolState pool;
  pool.add_failure(0.0, m);
  pool.extend_critical_window(0.0, m);  // size 1 >= p_l opens the window
  EXPECT_GT(pool.clear_at, 0.0);

  LocalPoolState inside = pool;
  inside.advance_to(pool.clear_at / 2.0, m);
  inside.add_failure(pool.clear_at / 2.0, m);
  EXPECT_TRUE(inside.catastrophic(pool.clear_at / 2.0, m));

  // Identical overlap after the window has cleared is tolerated.
  LocalPoolState after = pool;
  after.clear_at = 1.0;
  after.advance_to(2.0, m);  // the first rebuild is still in flight
  ASSERT_EQ(after.failures.size(), 1u);
  after.add_failure(2.0, m);
  EXPECT_FALSE(after.catastrophic(2.0, m));

  // Without priority reconstruction any p_l+1 overlap is fatal regardless.
  const auto plain = declustered_model(/*priority=*/false);
  EXPECT_TRUE(after.catastrophic(2.0, plain));
}

TEST(LocalPoolState, DeclusteredLossUsesHypergeometricFraction) {
  const auto m = declustered_model();
  LocalPoolState pool;
  pool.add_failure(0.0, m);
  pool.add_failure(0.0, m);
  EXPECT_DOUBLE_EQ(pool.lost_stripe_fraction(m), m.declustered_lost_fraction(2));
}

TEST(LocalPoolState, ResetForgetsEverything) {
  const auto m = clustered_model();
  LocalPoolState pool;
  pool.add_failure(0.0, m);
  pool.extend_critical_window(0.0, m);
  pool.reset();
  EXPECT_TRUE(pool.failures.empty());
  EXPECT_TRUE(pool.idle(0.0));
}

}  // namespace
}  // namespace mlec
