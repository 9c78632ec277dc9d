#include "server/protocol.hpp"

#include <cmath>
#include <limits>

namespace mlec::server {

Priority parse_priority(const std::string& text) {
  if (text == "interactive") return Priority::kInteractive;
  if (text == "normal") return Priority::kNormal;
  if (text == "batch") return Priority::kBatch;
  throw json::Error("unknown priority '" + text +
                    "' (expected interactive, normal, or batch)");
}

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "?";
}

std::size_t lane_for(Priority priority) {
  switch (priority) {
    case Priority::kInteractive: return kLaneInteractive;
    case Priority::kNormal: return kLaneNormal;
    case Priority::kBatch: return kLaneBatch;
  }
  return kLaneNormal;
}

json::Value estimate_to_json(const Estimate& e) {
  json::Value v = json::Value::object();
  v.set("method", e.method);
  v.set("provenance", e.provenance);
  v.set("pdl", e.pdl);
  v.set("pdl_lo", e.pdl_lo);
  v.set("pdl_hi", e.pdl_hi);
  v.set("stochastic", e.stochastic);
  v.set("samples", json::u64_to_string(e.samples));
  v.set("exposure_hours", e.exposure_hours);
  v.set("cat_rate_per_year", e.cat_rate_per_year);
  v.set("cross_rack_tb", e.cross_rack_tb);
  v.set("coverage", e.coverage);
  v.set("truncated", e.truncated);
  v.set("converged", e.converged);
  v.set("resumed", e.resumed);
  v.set("degraded", e.degraded);
  v.set("degrade_note", e.degrade_note);
  v.set("events_processed", json::u64_to_string(e.events_processed));
  v.set("rng_draws", json::u64_to_string(e.rng_draws));
  v.set("elapsed_s", e.elapsed_s);
  return v;
}

Estimate estimate_from_json(const json::Value& v) {
  Estimate e;
  e.method = v.str_or("method", "");
  e.provenance = v.str_or("provenance", "");
  e.pdl = v.num_or("pdl", 0.0);
  e.nines = e.pdl > 0.0 ? -std::log10(e.pdl) : std::numeric_limits<double>::infinity();
  e.pdl_lo = v.num_or("pdl_lo", 0.0);
  e.pdl_hi = v.num_or("pdl_hi", 0.0);
  e.stochastic = v.bool_or("stochastic", false);
  e.samples = json::u64_from_string(v.str_or("samples", "0"));
  e.exposure_hours = v.num_or("exposure_hours", 0.0);
  e.cat_rate_per_year = v.num_or("cat_rate_per_year", 0.0);
  e.cross_rack_tb = v.num_or("cross_rack_tb", 0.0);
  e.coverage = v.num_or("coverage", 1.0);
  e.truncated = v.bool_or("truncated", false);
  e.converged = v.bool_or("converged", false);
  e.resumed = v.bool_or("resumed", false);
  e.degraded = v.bool_or("degraded", false);
  e.degrade_note = v.str_or("degrade_note", "");
  e.events_processed = json::u64_from_string(v.str_or("events_processed", "0"));
  e.rng_draws = json::u64_from_string(v.str_or("rng_draws", "0"));
  e.elapsed_s = v.num_or("elapsed_s", 0.0);
  return e;
}

json::Value ok_response() {
  json::Value v = json::Value::object();
  v.set("ok", true);
  return v;
}

json::Value error_response(const std::string& what) {
  json::Value v = json::Value::object();
  v.set("ok", false);
  v.set("error", what);
  return v;
}

}  // namespace mlec::server
