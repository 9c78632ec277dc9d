#include "sim/failure_gen.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

namespace mlec {
namespace {

DataCenterConfig small_dc() {
  DataCenterConfig dc;
  dc.racks = 10;
  dc.enclosures_per_rack = 2;
  dc.disks_per_enclosure = 12;
  return dc;
}

TEST(GenerateFailures, ExponentialCountMatchesAfr) {
  const Topology topo(small_dc());  // 240 disks
  Rng rng(1);
  FailureDistribution dist;
  dist.afr = 0.5;  // high rate so the test converges quickly
  // Expect ~240 * 0.5 failures per year (renewal process keeps rate ~const).
  double total = 0;
  const int rounds = 50;
  for (int i = 0; i < rounds; ++i)
    total += static_cast<double>(generate_failures(topo, dist, 8766.0, rng).size());
  EXPECT_NEAR(total / rounds, 240 * 0.5, 8.0);
}

TEST(GenerateFailures, SortedByTime) {
  const Topology topo(small_dc());
  Rng rng(2);
  FailureDistribution dist;
  dist.afr = 0.9;
  const auto trace = generate_failures(topo, dist, 8766.0, rng);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_LE(trace[i - 1].time_hours, trace[i].time_hours);
}

TEST(GenerateBurst, ExactlyRequestedShape) {
  const Topology topo(small_dc());
  Rng rng(4);
  for (int round = 0; round < 100; ++round) {
    const auto trace = generate_burst(topo, 4, 9, 100.0, rng);
    ASSERT_EQ(trace.size(), 9u);
    std::set<DiskId> disks;
    std::set<RackId> racks;
    for (const auto& ev : trace) {
      EXPECT_DOUBLE_EQ(ev.time_hours, 100.0);
      disks.insert(ev.disk);
      racks.insert(topo.rack_of(ev.disk));
    }
    EXPECT_EQ(disks.size(), 9u);   // distinct disks
    EXPECT_EQ(racks.size(), 4u);   // every chosen rack hit
  }
}

TEST(GenerateBurst, RejectsInfeasible) {
  const Topology topo(small_dc());
  Rng rng(5);
  EXPECT_THROW(generate_burst(topo, 5, 4, 0.0, rng), PreconditionError);    // y < x
  EXPECT_THROW(generate_burst(topo, 11, 20, 0.0, rng), PreconditionError);  // x > racks
  EXPECT_THROW(generate_burst(topo, 1, 25, 0.0, rng), PreconditionError);   // y > disks
}

TEST(Trace, FormatParseRoundTrip) {
  const Topology topo(small_dc());
  Rng rng(6);
  const auto burst = generate_burst(topo, 3, 7, 42.5, rng);
  const std::string text = format_trace(burst);
  std::istringstream in(text);
  const auto parsed = parse_trace(in, topo);
  ASSERT_EQ(parsed.size(), burst.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed[i].time_hours, burst[i].time_hours);
    EXPECT_EQ(parsed[i].disk, burst[i].disk);
  }
}

TEST(Trace, ParseSkipsCommentsAndSorts) {
  const Topology topo(small_dc());
  std::istringstream in("# comment\n\n5.0,3\n1.0,7\n");
  const auto trace = parse_trace(in, topo);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0].time_hours, 1.0);
  EXPECT_EQ(trace[0].disk, 7u);
}

TEST(Trace, ParseRejectsGarbage) {
  const Topology topo(small_dc());
  std::istringstream bad("not a trace\n");
  EXPECT_THROW(parse_trace(bad, topo), PreconditionError);
  std::istringstream oob("1.0,99999\n");
  EXPECT_THROW(parse_trace(oob, topo), PreconditionError);
  std::istringstream neg("-1.0,3\n");
  EXPECT_THROW(parse_trace(neg, topo), PreconditionError);
}

TEST(Trace, ParseRejectsNonFiniteTimes) {
  const Topology topo(small_dc());
  std::istringstream nan_time("nan,3\n");
  EXPECT_THROW(parse_trace(nan_time, topo), PreconditionError);
  std::istringstream inf_time("inf,3\n");
  EXPECT_THROW(parse_trace(inf_time, topo), PreconditionError);
}

TEST(Trace, ParseRejectsTrailingGarbage) {
  const Topology topo(small_dc());
  std::istringstream junk("1.0,3 extra\n");
  EXPECT_THROW(parse_trace(junk, topo), PreconditionError);
  // A trailing comment is fine, though.
  std::istringstream commented("1.0,3 # replaced 2024-01-02\n");
  EXPECT_EQ(parse_trace(commented, topo).size(), 1u);
}

TEST(Trace, ParseErrorsCarryLineNumbers) {
  const Topology topo(small_dc());
  std::istringstream in("# header\n1.0,3\nbogus\n");
  try {
    parse_trace(in, topo);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Trace, MonotonicModeRejectsBackwardsTimestamps) {
  const Topology topo(small_dc());
  std::istringstream lenient("5.0,3\n1.0,7\n");
  EXPECT_EQ(parse_trace(lenient, topo).size(), 2u);  // default: sorted, not rejected
  std::istringstream strict("5.0,3\n1.0,7\n");
  try {
    parse_trace(strict, topo, /*require_monotonic=*/true);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  std::istringstream ties("1.0,3\n1.0,7\n2.0,1\n");
  EXPECT_EQ(parse_trace(ties, topo, /*require_monotonic=*/true).size(), 3u);
}

}  // namespace
}  // namespace mlec
