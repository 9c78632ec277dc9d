#include "sim/failure_gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <span>
#include <sstream>
#include <unordered_set>

#include "math/allocation.hpp"
#include "util/error.hpp"

namespace mlec {

namespace {
void sort_trace(FailureTrace& trace) {
  std::sort(trace.begin(), trace.end(), [](const FailureEvent& a, const FailureEvent& b) {
    // lint:allow(float-eq): strict-weak-order tie-break, not a tolerance check
    if (a.time_hours != b.time_hours) return a.time_hours < b.time_hours;
    return a.disk < b.disk;
  });
}
}  // namespace

FailureTrace generate_failures(const Topology& topo, const FailureDistribution& dist,
                               double mission_hours, Rng& rng) {
  MLEC_REQUIRE(mission_hours > 0.0, "mission must be positive");
  FailureTrace trace;
  const std::size_t disks = topo.config().total_disks();
  // Disk lifetimes are long against the mission, so the first lifetime of
  // each disk dominates the draw count: batch those through the block-fill
  // API (chunked so the scratch stays cache-sized), then walk the rare
  // renewal chains with single draws.
  const double rate = dist.hourly_rate();
  constexpr std::size_t kBlock = 1024;
  std::array<double, kBlock> first;
  for (std::size_t base = 0; base < disks; base += kBlock) {
    const std::size_t n = std::min(kBlock, disks - base);
    rng.exponential_fill(std::span<double>(first.data(), n), rate);
    for (std::size_t i = 0; i < n; ++i) {
      double t = first[i];
      while (t < mission_hours) {
        trace.push_back({t, static_cast<DiskId>(base + i)});
        t += rng.exponential(rate);
      }
    }
  }
  sort_trace(trace);
  return trace;
}

FailureTrace generate_burst(const Topology& topo, std::size_t racks, std::size_t total_failures,
                            double time_hours, Rng& rng) {
  const auto& dc = topo.config();
  MLEC_REQUIRE(racks >= 1 && racks <= dc.racks, "rack count out of range");
  MLEC_REQUIRE(total_failures >= racks, "need at least one failure per affected rack");
  MLEC_REQUIRE(total_failures <= racks * dc.disks_per_rack(),
               "more failures than disks in the affected racks");

  // Exact conditional allocation of counts, then uniform distinct disks
  // within each chosen rack.
  const BurstAllocationSampler sampler(dc.disks_per_rack(), racks, total_failures);
  const auto counts = sampler.sample(racks, total_failures, rng);
  auto rack_ids = rng.sample_without_replacement(dc.racks, racks);

  FailureTrace trace;
  trace.reserve(total_failures);
  for (std::size_t i = 0; i < racks; ++i) {
    const auto base = static_cast<DiskId>(rack_ids[i] * dc.disks_per_rack());
    for (auto pos : rng.sample_without_replacement(dc.disks_per_rack(), counts[i]))
      trace.push_back({time_hours, base + static_cast<DiskId>(pos)});
  }
  sort_trace(trace);
  return trace;
}

FailureTrace parse_trace(std::istream& in, const Topology& topo, bool require_monotonic) {
  FailureTrace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    double time = 0.0;
    char comma = 0;
    std::uint64_t disk = 0;
    if (!(ls >> time >> comma >> disk) || comma != ',')
      throw PreconditionError("trace line " + std::to_string(lineno) +
                              ": expected 'time_hours,disk_id'");
    std::string rest;
    if (ls >> rest && !rest.empty() && rest[0] != '#')
      throw PreconditionError("trace line " + std::to_string(lineno) +
                              ": trailing garbage after disk id: '" + rest + "'");
    MLEC_REQUIRE(std::isfinite(time),
                 "trace line " + std::to_string(lineno) + ": non-finite time");
    MLEC_REQUIRE(time >= 0.0, "trace line " + std::to_string(lineno) + ": negative time");
    MLEC_REQUIRE(disk < topo.config().total_disks(),
                 "trace line " + std::to_string(lineno) + ": disk id out of range");
    if (require_monotonic && !trace.empty() && time < trace.back().time_hours)
      throw PreconditionError("trace line " + std::to_string(lineno) +
                              ": timestamp goes backwards (" + std::to_string(time) + " < " +
                              std::to_string(trace.back().time_hours) + ")");
    trace.push_back({time, static_cast<DiskId>(disk)});
  }
  sort_trace(trace);
  return trace;
}

std::string format_trace(const FailureTrace& trace) {
  std::ostringstream os;
  os << "# time_hours,disk_id\n";
  for (const auto& ev : trace) os << ev.time_hours << ',' << ev.disk << '\n';
  return os.str();
}

}  // namespace mlec
