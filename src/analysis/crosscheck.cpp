#include "analysis/crosscheck.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "math/markov.hpp"
#include "placement/notation.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace mlec {

namespace {

/// 95% interval in nines space. pdl_hi (the pessimistic edge) maps to the
/// interval's low-nines edge and vice versa; pdl == 0 maps to +inf nines.
struct NinesInterval {
  double lo = 0.0;
  double hi = 0.0;
};

NinesInterval nines_interval(const Estimate& e) {
  NinesInterval iv;
  iv.lo = durability_nines(std::min(1.0, e.pdl_hi));
  iv.hi = durability_nines(std::min(1.0, e.pdl_lo));
  return iv;
}

/// Distance between two intervals: 0 when they overlap, +inf when one is a
/// point at +inf nines (pdl exactly 0) and the other is finite.
double interval_gap(const NinesInterval& a, const NinesInterval& b) {
  const double lo = std::max(a.lo, b.lo);
  const double hi = std::min(a.hi, b.hi);
  if (lo <= hi) return 0.0;
  return lo - hi;
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  os << v;
}

std::string fmt_nines(double nines) {
  if (std::isinf(nines)) return "inf";
  return Table::num(nines, 2);
}

}  // namespace

std::size_t CrosscheckReport::methods_run() const {
  std::size_t n = 0;
  for (const auto& row : rows) n += row.ran() ? 1 : 0;
  return n;
}

std::string CrosscheckReport::table() const {
  Table t({"method", "status", "PDL", "nines", "nines 95%", "samples", "note"});
  for (const auto& row : rows) {
    if (!row.applicable) {
      t.add_row({row.method, "skipped", "-", "-", "-", "-", row.skip_reason});
      continue;
    }
    if (row.failed) {
      t.add_row({row.method, "error", "-", "-", "-", "-", row.error});
      continue;
    }
    const auto iv = nines_interval(row.estimate);
    t.add_row({row.method, row.estimate.degraded ? "degraded" : "ok",
               Table::num(row.estimate.pdl, 4), fmt_nines(row.estimate.nines),
               fmt_nines(iv.lo) + " .. " + fmt_nines(iv.hi),
               row.estimate.stochastic ? std::to_string(row.estimate.samples) : "closed form",
               row.estimate.degraded ? row.estimate.degrade_note : row.estimate.provenance});
  }
  std::ostringstream os;
  const std::string title = "cross-method estimation, " + to_string(scenario.system.scheme) +
                            " " + scenario.system.code.notation() + ", " +
                            to_string(scenario.system.repair) +
                            (scenario.name.empty() ? "" : " (" + scenario.name + ")");
  os << t.to_ascii(title);
  if (divergences.empty()) {
    if (methods_run() >= 2)
      os << "agreement: all " << methods_run() << " methods within " << nines_tolerance
         << " nines\n";
  } else {
    for (const auto& d : divergences)
      os << "DIVERGENCE: " << d.method_a << " vs " << d.method_b << " — intervals "
         << (std::isinf(d.gap_nines) ? std::string("infinitely")
                                     : Table::num(d.gap_nines, 2) + " nines")
         << " apart (tolerance " << nines_tolerance << ")\n";
  }
  return os.str();
}

std::string CrosscheckReport::json() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"scenario\": ";
  json_string(os, scenario.name);
  os << ",\n  \"code\": ";
  json_string(os, scenario.system.code.notation());
  os << ",\n  \"scheme\": ";
  json_string(os, to_string(scenario.system.scheme));
  os << ",\n  \"repair\": ";
  json_string(os, to_string(scenario.system.repair));
  os << ",\n  \"mission_hours\": ";
  json_number(os, scenario.system.mission_hours);
  os << ",\n  \"nines_tolerance\": ";
  json_number(os, nines_tolerance);
  os << ",\n  \"agreed\": " << (agreed() ? "true" : "false");
  os << ",\n  \"methods\": [";
  bool first = true;
  for (const auto& row : rows) {
    os << (first ? "\n" : ",\n") << "    {\"method\": ";
    json_string(os, row.method);
    first = false;
    if (!row.applicable) {
      os << ", \"applicable\": false, \"reason\": ";
      json_string(os, row.skip_reason);
      os << '}';
      continue;
    }
    if (row.failed) {
      os << ", \"applicable\": true, \"failed\": true, \"error\": ";
      json_string(os, row.error);
      os << '}';
      continue;
    }
    const Estimate& e = row.estimate;
    const auto iv = nines_interval(e);
    os << ", \"applicable\": true, \"failed\": false";
    os << ", \"pdl\": ";
    json_number(os, e.pdl);
    os << ", \"nines\": ";
    json_number(os, e.nines);
    os << ", \"pdl_lo\": ";
    json_number(os, e.pdl_lo);
    os << ", \"pdl_hi\": ";
    json_number(os, e.pdl_hi);
    os << ", \"nines_lo\": ";
    json_number(os, iv.lo);
    os << ", \"nines_hi\": ";
    json_number(os, iv.hi);
    os << ", \"stochastic\": " << (e.stochastic ? "true" : "false");
    os << ", \"samples\": " << e.samples;
    os << ", \"exposure_hours\": ";
    json_number(os, e.exposure_hours);
    os << ", \"cat_rate_per_year\": ";
    json_number(os, e.cat_rate_per_year);
    os << ", \"coverage\": ";
    json_number(os, e.coverage);
    os << ", \"cross_rack_tb\": ";
    json_number(os, e.cross_rack_tb);
    os << ", \"truncated\": " << (e.truncated ? "true" : "false");
    os << ", \"converged\": " << (e.converged ? "true" : "false");
    os << ", \"resumed\": " << (e.resumed ? "true" : "false");
    os << ", \"degraded\": " << (e.degraded ? "true" : "false");
    if (e.degraded) {
      os << ", \"degrade_note\": ";
      json_string(os, e.degrade_note);
    }
    os << ", \"provenance\": ";
    json_string(os, e.provenance);
    os << '}';
  }
  os << "\n  ],\n  \"divergences\": [";
  first = true;
  for (const auto& d : divergences) {
    os << (first ? "\n" : ",\n") << "    {\"a\": ";
    json_string(os, d.method_a);
    os << ", \"b\": ";
    json_string(os, d.method_b);
    os << ", \"gap_nines\": ";
    json_number(os, d.gap_nines);
    os << '}';
    first = false;
  }
  os << (divergences.empty() ? "]" : "\n  ]") << "\n}";
  return os.str();
}

CrosscheckReport run_crosscheck(const Scenario& scenario, const CrosscheckOptions& options) {
  scenario.validate();
  MLEC_REQUIRE(options.nines_tolerance >= 0.0, "nines tolerance must be non-negative");

  std::vector<const Estimator*> methods;
  if (options.methods.empty()) {
    methods = estimator_registry();
  } else {
    for (const auto& name : options.methods) {
      const Estimator* estimator = find_estimator(name);
      MLEC_REQUIRE(estimator != nullptr, "unknown estimation method '" + name +
                                             "' (expected sim, split, dp, or markov)");
      methods.push_back(estimator);
    }
  }

  CrosscheckReport report;
  report.scenario = scenario;
  report.nines_tolerance = options.nines_tolerance;

  for (const Estimator* estimator : methods) {
    CrosscheckRow row;
    row.method = std::string(estimator->name());
    row.skip_reason = estimator->applicability(scenario);
    row.applicable = row.skip_reason.empty();
    if (row.applicable) {
      try {
        row.estimate = estimator->estimate(scenario, options.estimate);
      } catch (const std::exception& e) {
        if (options.fail_fast) throw;
        // Fall back past the failed method: a crash in one engine must not
        // mask the comparison between the others.
        row.failed = true;
        row.error = e.what();
      }
    }
    report.rows.push_back(std::move(row));
  }

  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    if (!report.rows[i].ran()) continue;
    const auto iv_i = nines_interval(report.rows[i].estimate);
    for (std::size_t j = i + 1; j < report.rows.size(); ++j) {
      if (!report.rows[j].ran()) continue;
      const double gap = interval_gap(iv_i, nines_interval(report.rows[j].estimate));
      if (gap > options.nines_tolerance)
        report.divergences.push_back({report.rows[i].method, report.rows[j].method, gap});
    }
  }
  return report;
}

}  // namespace mlec
