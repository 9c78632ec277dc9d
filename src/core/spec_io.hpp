// Scenario <-> INI files.
//
// One file format serves every `mlecctl` verb, the benches and the tests:
// the deployment sections ([datacenter], [bandwidth], [code], [failures])
// plus the failure-model, repair-policy and estimation keys ([scenario],
// [sim], [bursts]). Absent keys keep the paper's §3 defaults, so a
// deployment-only file is a valid scenario. See example_scenario() for the
// annotated template.
//
// Unknown keys are diagnosed instead of silently ignored (a typo'd
// `detectoin_hours` used to reproduce the wrong paper setup with no
// warning): by default they are reported to stderr; SpecParsePolicy can
// collect them or turn them into a PreconditionError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/ini.hpp"

namespace mlec {

/// How load_scenario treats keys it does not consume.
struct SpecParsePolicy {
  /// Throw PreconditionError naming the offending keys instead of warning.
  bool strict = false;
  /// When non-null, unknown "section.key" names are appended here and
  /// nothing is printed — the caller owns the reporting. Ignored when
  /// `strict` is set.
  std::vector<std::string>* unknown_keys = nullptr;
};

/// Build a scenario from an INI file. Malformed values throw; unknown keys
/// follow `policy` (default: warn on stderr).
Scenario load_scenario(const IniFile& ini, const SpecParsePolicy& policy = {});

/// Serialize back to INI text (parse(load) round-trips).
std::string format_scenario(const Scenario& scenario);

/// Annotated template documenting every key with the paper defaults.
std::string example_scenario();

/// Bit-exact structural identity of a scenario with the label (`name`)
/// cleared and the seed excluded: every physics field and estimation knob,
/// doubles rendered as hexfloat so distinct values never collide through
/// rounded printing. Two submissions that differ only cosmetically (key
/// order, comments, unit spellings like `18TB` vs `18000GB`) produce the
/// same identity; any parameter change produces a different one.
std::string scenario_identity(const Scenario& scenario);

/// FNV-1a hash of scenario_identity() — the dedup key for the server's
/// memo cache. The seed is excluded here because the cache key pairs the
/// fingerprint with the explicit (method, seed, rse_target) tuple.
std::uint64_t scenario_fingerprint(const Scenario& scenario);

}  // namespace mlec
