#include "sim/pool_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
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

// walk_pool, driven by hand-written arrivals: a gap source that hands out a
// fixed list of gaps (then one past any mission) and records the failure
// times it was asked at, and callbacks that record what they see.
struct ScriptedWalk {
  std::vector<double> gaps;
  std::size_t next = 0;
  std::vector<double> gap_asked_at;
  std::vector<double> catastrophes;
  std::vector<const InjectedFailure*> catastrophe_sources;
  std::vector<double> held;
  double hold_hours = 0.0;  ///< the catastrophe callback holds the pool this long

  std::uint64_t run(LocalPoolState& state, const PoolRepairModel& m, double mission_hours,
                    double& first_arrival, std::span<const InjectedFailure> injected) {
    return walk_pool(
        state, m, mission_hours, first_arrival, injected,
        [&](double t) {
          gap_asked_at.push_back(t);
          return next < gaps.size() ? gaps[next++] : 1e9;
        },
        [&](double t, const InjectedFailure* inj) {
          catastrophes.push_back(t);
          catastrophe_sources.push_back(inj);
          return t + hold_hours;
        },
        [&](double t, const InjectedFailure*) { held.push_back(t); });
  }
};

TEST(WalkPool, InjectedFailureGoesBeforeASampledOneAtAnEqualTime) {
  // p_l = 1, so the second of two failures at t = 10 is the catastrophe:
  // the sampled one, because the injected one stepped the pool first.
  const auto m = clustered_model();
  LocalPoolState state;
  const std::vector<InjectedFailure> injected = {{10.0, 0}};
  ScriptedWalk walk;
  double arrival = 10.0;
  EXPECT_EQ(walk.run(state, m, 100.0, arrival, injected), 2u);
  ASSERT_EQ(walk.catastrophes.size(), 1u);
  EXPECT_EQ(walk.catastrophes[0], 10.0);
  EXPECT_EQ(walk.catastrophe_sources[0], nullptr);
  // One sampled failure, so one gap, asked at its time.
  EXPECT_EQ(walk.gap_asked_at, std::vector<double>{10.0});

  // An earlier sampled failure goes first, and the injected one is fatal.
  ScriptedWalk earlier;
  arrival = 9.0;
  EXPECT_EQ(earlier.run(state, m, 100.0, arrival, injected), 2u);
  ASSERT_EQ(earlier.catastrophe_sources.size(), 1u);
  EXPECT_EQ(earlier.catastrophe_sources[0], &injected[0]);
}

TEST(WalkPool, FailuresBeforeTheHoldEndAreHeldAndTheEndGoesToThePool) {
  // Sampled failures at 10, 10, 12, 15 and 15.5; the catastrophe at the
  // second holds the pool until 15. The failure at 12 is held; the one at
  // exactly 15 steps a fresh pool, and the one at 15.5 overlaps it.
  const auto m = clustered_model();
  LocalPoolState state;
  ScriptedWalk walk;
  walk.gaps = {0.0, 2.0, 3.0, 0.5};
  walk.hold_hours = 5.0;
  double arrival = 10.0;
  const std::uint64_t walked = walk.run(state, m, 100.0, arrival, {});
  EXPECT_EQ(walk.catastrophes, (std::vector<double>{10.0, 15.5}));
  EXPECT_EQ(walk.held, std::vector<double>{12.0});
  EXPECT_EQ(walked, 5u);  // the held failure is walked too
}

TEST(WalkPool, LeavesTheNextArrivalAtOrPastMissionEnd) {
  const auto m = declustered_model();
  LocalPoolState state;
  // The last gap lands exactly on mission end: that arrival is not walked
  // and is left for the caller.
  ScriptedWalk exact;
  exact.gaps = {20.0, 30.0, 40.0};
  double arrival = 10.0;
  EXPECT_EQ(exact.run(state, m, 100.0, arrival, {}), 3u);
  EXPECT_EQ(arrival, 100.0);
  // An overshoot is left as drawn; an injected failure at mission end is
  // not walked either.
  ScriptedWalk over;
  over.gaps = {95.0};
  const std::vector<InjectedFailure> injected = {{50.0, 0}, {100.0, 1}};
  arrival = 10.0;
  EXPECT_EQ(over.run(state, m, 100.0, arrival, injected), 2u);
  EXPECT_EQ(arrival, 105.0);
  // No failure inside the mission: nothing walked, no gap drawn.
  ScriptedWalk none;
  arrival = 250.0;
  EXPECT_EQ(none.run(state, m, 100.0, arrival, {}), 0u);
  EXPECT_EQ(arrival, 250.0);
  EXPECT_TRUE(none.gap_asked_at.empty());
}

TEST(WalkPool, StageOneShapeMatchesAPlainFailureLoop) {
  // No injected failures and a catastrophe callback that returns its own
  // time: the walk is the plain loop that steps every sampled failure and
  // resets the pool after each catastrophe.
  for (const auto& m : {clustered_model(), declustered_model(), declustered_model(false)}) {
    SCOPED_TRACE(m.clustered ? "clustered" : (m.priority_repair ? "declustered" : "no priority"));
    constexpr double kMission = 8766.0;
    constexpr double kRate = 4e-3;  // about 35 failures per mission
    Rng walk_rng(31), plain_rng(31);

    std::vector<double> walk_cats, plain_cats;
    std::vector<double> walk_unrebuilt, plain_unrebuilt;
    std::uint64_t walk_events = 0, plain_events = 0;
    LocalPoolState state, plain;
    for (int mission = 0; mission < 200; ++mission) {
      double arrival = walk_rng.exponential(kRate);
      walk_events += walk_pool(
          state, m, kMission, arrival, {}, [&](double) { return walk_rng.exponential(kRate); },
          [&](double t, const InjectedFailure* inj) {
            EXPECT_EQ(inj, nullptr);
            walk_cats.push_back(t);
            walk_unrebuilt.push_back(state.unrebuilt_tb(m));
            return t;
          },
          [&](double, const InjectedFailure*) { ADD_FAILURE() << "nothing is held"; });
      EXPECT_GE(arrival, kMission);

      plain.reset(m);
      for (double t = plain_rng.exponential(kRate); t < kMission;
           t += plain_rng.exponential(kRate)) {
        ++plain_events;
        if (!plain.fail(t, m)) continue;
        plain_cats.push_back(t);
        plain_unrebuilt.push_back(plain.unrebuilt_tb(m));
        plain.reset(m);
      }
    }
    ASSERT_GT(plain_cats.size(), 10u);
    EXPECT_EQ(walk_events, plain_events);
    EXPECT_EQ(walk_cats, plain_cats);
    EXPECT_EQ(walk_unrebuilt, plain_unrebuilt);
  }
}

}  // namespace
}  // namespace mlec
