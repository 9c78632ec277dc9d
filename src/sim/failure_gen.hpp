// Disk-failure generation: distributions, burst rules, and trace replay
// (the paper's "simulating disk failures based on distributions, rules, or
// real traces").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace mlec {

/// One disk failure at an absolute simulation time (hours).
struct FailureEvent {
  double time_hours;
  DiskId disk;
};

/// A failure trace: time-ordered failure events over a mission.
using FailureTrace = std::vector<FailureEvent>;

/// Lifetime distribution for generated failures: exponential lifetimes at
/// a constant annual failure rate, the only failure model the estimators
/// answer for.
struct FailureDistribution {
  /// Annual failure rate (e.g. 0.01 for 1% AFR).
  double afr = 0.01;

  double hourly_rate() const { return afr / 8766.0; }
};

/// Generate independent exponential failures for every disk over
/// [0, mission_hours), with failed disks treated as replaced-and-good after
/// each failure (i.e. a renewal process per disk). Result is time-sorted.
FailureTrace generate_failures(const Topology& topo, const FailureDistribution& dist,
                               double mission_hours, Rng& rng);

/// Burst rule (paper §4.1.1): `total_failures` simultaneous failures at
/// `time_hours`, scattered uniformly over `racks` distinct racks with every
/// chosen rack receiving at least one failure. Samples the exact conditional
/// uniform distribution over disk subsets.
FailureTrace generate_burst(const Topology& topo, std::size_t racks, std::size_t total_failures,
                            double time_hours, Rng& rng);

/// Parse a trace from CSV lines of "time_hours,disk_id" (with '#' comments
/// and blank lines ignored). Throws PreconditionError — with the offending
/// line number — on malformed lines, trailing garbage, negative or
/// non-finite timestamps, and out-of-range disk ids. By default events may
/// appear in any order and the result is sorted by time; with
/// `require_monotonic` set, a timestamp lower than its predecessor is an
/// error instead (for traces that are contractually time-ordered).
FailureTrace parse_trace(std::istream& in, const Topology& topo,
                         bool require_monotonic = false);

/// Serialize a trace to the same CSV format.
std::string format_trace(const FailureTrace& trace);

}  // namespace mlec
