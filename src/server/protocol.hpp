// mlecd wire protocol: newline-delimited JSON objects over plain TCP.
//
// One request per line, one response per line, except `watch`, which
// streams one event object per line until the job reaches a terminal
// state. Requests carry an "op" member:
//
//   {"op":"ping"}
//   {"op":"submit","scenario_ini":"...","method":"dp","client":"alice",
//    "priority":"interactive","rse_target":0.05,"wait":true}
//   {"op":"status"}
//   {"op":"watch","job":"j-3"}
//   {"op":"cancel","job":"j-3"}
//   {"op":"shutdown"}
//
// Responses are {"ok":true,...} or {"ok":false,"error":"..."}. Watch
// events are {"event":"progress"|"requeued"|"done"|"cancelled",...}.
//
// u64 fields (seeds, fingerprints, sample counts) travel as decimal
// strings — JSON numbers are doubles and corrupt integers past 2^53.
// Doubles travel as %.17g numbers and round-trip bit-exactly, which is
// what lets a memoized Estimate compare bit-identical to a fresh one
// (analysis/chaos.hpp diff_estimates).
#pragma once

#include <cstddef>
#include <string>

#include "core/estimator.hpp"
#include "server/json.hpp"
#include "util/thread_pool.hpp"

namespace mlec::server {

/// One framed request line, terminator included. Longer lines are an
/// error; the connection handler discards without buffering past this.
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// Fair-share priority classes, best first. Maps onto the ThreadPool
/// dispatch lanes so an interactive campaign's workers overtake
/// queued batch work inside the shared pool as well.
enum class Priority { kInteractive = 0, kNormal = 1, kBatch = 2 };

Priority parse_priority(const std::string& text);  ///< throws json::Error
const char* to_string(Priority priority);
std::size_t lane_for(Priority priority);

/// Estimate <-> JSON. Round-trips every scalar field bit-exactly; the
/// per-worker campaign report is deliberately not carried (it is a run
/// artifact, not part of the answer). `nines` is recomputed from pdl on
/// the way in because +inf (pdl == 0) has no JSON encoding.
json::Value estimate_to_json(const Estimate& estimate);
Estimate estimate_from_json(const json::Value& value);

json::Value ok_response();
json::Value error_response(const std::string& what);

}  // namespace mlec::server
