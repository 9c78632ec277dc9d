#include "core/spec_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/repair_time.hpp"
#include "core/estimator.hpp"
#include "core/report.hpp"
#include "util/table.hpp"

namespace mlec {
namespace {

TEST(SpecIo, EmptyFileGivesPaperDefaults) {
  const auto spec = load_scenario(IniFile::parse_string("")).system;
  EXPECT_EQ(spec.dc.total_disks(), 57600u);
  EXPECT_EQ(spec.code, MlecCode::paper_default());
  EXPECT_DOUBLE_EQ(spec.afr, 0.01);
  EXPECT_DOUBLE_EQ(spec.detection_hours, 0.5);
}

TEST(SpecIo, OverridesApply) {
  const auto spec = load_scenario(IniFile::parse_string(R"(
[datacenter]
racks = 30
disk_capacity_tb = 16

[code]
mlec = (4+2)/(8+2)
scheme = D/D
repair = R_HYB

[failures]
afr = 0.02
)")).system;
  EXPECT_EQ(spec.dc.racks, 30u);
  EXPECT_DOUBLE_EQ(spec.dc.disk_capacity_tb, 16.0);
  EXPECT_EQ(spec.code, (MlecCode{{4, 2}, {8, 2}}));
  EXPECT_EQ(spec.scheme, MlecScheme::kDD);
  EXPECT_EQ(spec.repair, RepairMethod::kRepairHybrid);
  EXPECT_DOUBLE_EQ(spec.afr, 0.02);
}

TEST(SpecIo, FormatParsesBack) {
  Scenario sc;
  SystemSpec& spec = sc.system;
  spec.scheme = MlecScheme::kDC;
  spec.repair = RepairMethod::kRepairFailedOnly;
  spec.afr = 0.03;
  spec.dc.racks = 24;
  const auto reparsed = load_scenario(IniFile::parse_string(format_scenario(sc))).system;
  EXPECT_EQ(reparsed.scheme, spec.scheme);
  EXPECT_EQ(reparsed.repair, spec.repair);
  EXPECT_DOUBLE_EQ(reparsed.afr, spec.afr);
  EXPECT_EQ(reparsed.dc.racks, spec.dc.racks);
  EXPECT_EQ(reparsed.code, spec.code);
}

TEST(SpecIo, ExampleSpecParsesToDefaults) {
  const auto spec = load_scenario(IniFile::parse_string(example_scenario())).system;
  EXPECT_EQ(spec.dc.total_disks(), 57600u);
  EXPECT_EQ(spec.code, MlecCode::paper_default());
  // The example picks C/D + R_MIN (the paper's best combination).
  EXPECT_EQ(spec.scheme, MlecScheme::kCD);
  EXPECT_EQ(spec.repair, RepairMethod::kRepairMinimum);
}

TEST(SpecIo, LoadedSpecDrivesTheAnalyzer) {
  const auto sc = load_scenario(IniFile::parse_string("[code]\nscheme = C/D\n"));
  const SystemSpec& spec = sc.system;
  const double mbps =
      RepairTimeModel(spec.dc, spec.bandwidth, spec.code).table2_row(spec.scheme).single_disk_mbps;
  EXPECT_NEAR(mbps, 264.4, 0.5);
  EXPECT_NE(deployment_report(sc).find("single disk " + Table::num(mbps) + " MB/s"),
            std::string::npos);
}

TEST(SpecIo, UnknownKeysAreCollectedWhenAsked) {
  std::vector<std::string> unknown;
  SpecParsePolicy policy;
  policy.unknown_keys = &unknown;
  const auto spec = load_scenario(IniFile::parse_string(R"(
[failures]
afr = 0.02
detectoin_hours = 2.0
)"),
                                  policy)
                        .system;
  EXPECT_DOUBLE_EQ(spec.afr, 0.02);            // good keys still apply
  EXPECT_DOUBLE_EQ(spec.detection_hours, 0.5);  // the typo'd one does not
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "failures.detectoin_hours");
}

TEST(SpecIo, StrictPolicyTurnsUnknownKeysIntoErrors) {
  SpecParsePolicy policy;
  policy.strict = true;
  try {
    load_scenario(IniFile::parse_string("[datacenter]\nraks = 30\n"), policy);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("datacenter.raks"), std::string::npos);
  }
}

TEST(SpecIo, DeploymentOnlyFileLoadsAsAScenario) {
  // A file with only the deployment sections is a complete scenario: no
  // unknown keys under the strict policy, and the estimation knobs keep
  // their defaults.
  SpecParsePolicy policy;
  policy.strict = true;
  const auto sc = load_scenario(IniFile::parse_string(R"(
[datacenter]
racks = 30
[bandwidth]
repair_fraction = 0.3
[code]
mlec = (4+2)/(8+2)
scheme = D/D
[failures]
afr = 0.02
)"),
                                policy);
  EXPECT_EQ(sc.system.dc.racks, 30u);
  EXPECT_DOUBLE_EQ(sc.system.bandwidth.repair_fraction, 0.3);
  EXPECT_EQ(sc.system.code, (MlecCode{{4, 2}, {8, 2}}));
  EXPECT_EQ(sc.system.scheme, MlecScheme::kDD);
  EXPECT_DOUBLE_EQ(sc.system.afr, 0.02);
  EXPECT_EQ(sc.missions, Scenario{}.missions);
}

TEST(SpecIo, ExampleScenarioHasNoUnknownKeys) {
  SpecParsePolicy policy;
  policy.strict = true;
  EXPECT_NO_THROW(load_scenario(IniFile::parse_string(example_scenario()), policy));
}

TEST(SpecIo, BadValuesSurfaceAsErrors) {
  EXPECT_THROW(load_scenario(IniFile::parse_string("[code]\nmlec = banana\n")),
               PreconditionError);
  EXPECT_THROW(load_scenario(IniFile::parse_string("[failures]\nafr = lots\n")),
               PreconditionError);
}

// Fuzz-derived regressions: every malformed scenario the INI fuzzer found
// interesting must end in a PreconditionError diagnostic, never a crash,
// an InternalError, or a silently wrong Scenario.
TEST(SpecIo, FuzzMalformedScenariosDiagnoseNotCrash) {
  const char* cases[] = {
      "[sim]\nmissions = NaN\nseed = -1\n",
      "[sim]\nmissions = 1e999\n",
      "[code]\nmlec = (2+1)/\n",
      "[code]\nmlec = (0+0)/(0+0)\n",
      "[datacenter]\nracks = 0\n",
      "[datacenter]\nracks = 2.5\n",
      "[failures]\nafr = -0.5\n",
      "[bursts]\nracks = 1,2,\n",
  };
  std::vector<std::string> unknown;
  SpecParsePolicy policy;
  policy.unknown_keys = &unknown;
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    try {
      (void)load_scenario(IniFile::parse_string(text), policy);
      // Some shapes load but must then fail validation downstream; either
      // way no other exception type may escape.
    } catch (const PreconditionError&) {
      // expected diagnostic path
    }
  }
}

TEST(SpecIo, FuzzDuplicateSectionScenarioLoadsLastValue) {
  std::vector<std::string> unknown;
  SpecParsePolicy policy;
  policy.unknown_keys = &unknown;
  const auto scenario = load_scenario(
      IniFile::parse_string("[datacenter]\nracks = 6\n[datacenter]\nracks = 12\n"
                            "[failures]\nafr = 0.02\n"),
      policy);
  EXPECT_EQ(scenario.system.dc.racks, 12u);
  EXPECT_TRUE(unknown.empty());
}

TEST(SpecIo, CodeFamilyKeysRoundTripForEveryFamily) {
  struct Case {
    const char* family;
    CodeFamily expect;
    const char* mlec;
  } cases[] = {
      {"rs", CodeFamily::kRs, "(4+3)/(3+1)"},
      {"lrc", CodeFamily::kLrc, "(4+3)/(3+1)"},
  };
  for (const auto& c : cases) {
    std::string text = std::string("[code]\nmlec = ") + c.mlec +
                       "\nfamily = " + c.family + "\n";
    if (c.expect == CodeFamily::kLrc) text += "lrc = (4,2,1)\n";
    const auto sc = load_scenario(IniFile::parse_string(text));
    const SystemSpec& spec = sc.system;
    EXPECT_EQ(spec.network_family, c.expect) << c.family;
    // format -> parse is the identity on the family axis.
    const auto again = load_scenario(IniFile::parse_string(format_scenario(sc))).system;
    EXPECT_EQ(again.network_family, c.expect) << c.family;
    EXPECT_EQ(again.network_lrc, spec.network_lrc) << c.family;
    EXPECT_EQ(again.network_level(), spec.network_level()) << c.family;
  }
}

TEST(SpecIo, LrcKeyParsesTheTriple) {
  const auto spec =
      load_scenario(IniFile::parse_string("[code]\nmlec = (4+3)/(3+1)\nfamily = lrc\n"
                                          "lrc = (4, 2, 1)\n"))
          .system;
  EXPECT_EQ(spec.network_lrc, (LrcCode{4, 2, 1}));
  EXPECT_EQ(spec.network_level(), LevelCode::make_lrc({4, 2, 1}));
}

TEST(SpecIo, BadFamilyAndLrcValuesAreDiagnosed) {
  EXPECT_THROW(load_scenario(IniFile::parse_string("[code]\nfamily = raid6\n")),
               PreconditionError);
  EXPECT_THROW(load_scenario(IniFile::parse_string("[code]\nlrc = (4+2+1)\n")),
               PreconditionError);
}

TEST(SpecIo, OnlyExponentialLifetimesLoad) {
  SpecParsePolicy strict;
  strict.strict = true;
  EXPECT_NO_THROW(
      load_scenario(IniFile::parse_string("[failures]\nkind = exponential\n"), strict));
  // No estimator models another lifetime law, so such a file is refused
  // rather than estimated as exponential.
  try {
    load_scenario(IniFile::parse_string("[failures]\nkind = weibull\n"));
    FAIL() << "kind = weibull was accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failures.kind"), std::string::npos) << what;
    EXPECT_NE(what.find("only exponential lifetimes"), std::string::npos) << what;
  }
}

TEST(SpecIo, RetiredRsWideFamilyIsRefused) {
  try {
    load_scenario(IniFile::parse_string("[code]\nmlec = (50+10)/(3+1)\nfamily = rs_wide\n"));
    FAIL() << "family = rs_wide was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("rs, lrc"), std::string::npos) << e.what();
  }
  // Plain rs serves wide stripes.
  const auto sc = load_scenario(IniFile::parse_string("[code]\nmlec = (50+10)/(3+1)\n"));
  EXPECT_EQ(sc.system.network_level(), LevelCode::make_rs({50, 10}));
}

/// crosscheck_mlec.ini in the canonical form format_scenario wrote while
/// it still carried the failure kind and the Weibull parameters; the
/// daemon's ledger stores each job's scenario in this form.
constexpr const char* kOlderCanonicalIni = R"([scenario]
name = crosscheck-mlec

[datacenter]
racks = 6
enclosures_per_rack = 2
disks_per_enclosure = 8
disk_capacity_tb = 20
chunk_kb = 128

[bandwidth]
disk_mbps = 200
rack_gbps = 10
repair_fraction = 0.2

[code]
mlec = (2+1)/(3+1)
family = rs
scheme = C/C
repair = R_ALL

[failures]
afr = 0.5
detection_hours = 0.5
mission_hours = 8766
kind = exponential
weibull_shape = 1.2
weibull_scale_hours = 876600
ure_per_bit = 0

[sim]
priority_repair = true
missions = 1500
split_missions = 6000
burst_trials = 1500
seed = 42

[bursts]
per_year = 0
racks = 3
failures = 30
)";

TEST(SpecIo, OlderCanonicalFormStillLoads) {
  std::vector<std::string> unknown;
  SpecParsePolicy policy;
  policy.unknown_keys = &unknown;
  const Scenario older = load_scenario(IniFile::parse_string(kOlderCanonicalIni), policy);
  std::sort(unknown.begin(), unknown.end());
  EXPECT_EQ(unknown, (std::vector<std::string>{"failures.weibull_scale_hours",
                                               "failures.weibull_shape"}));
  SpecParsePolicy strict;
  strict.strict = true;
  EXPECT_THROW(load_scenario(IniFile::parse_string(kOlderCanonicalIni), strict),
               PreconditionError);

  std::string text = kOlderCanonicalIni;
  for (const std::string line : {"weibull_shape = 1.2\n", "weibull_scale_hours = 876600\n"})
    text.erase(text.find(line), line.size());
  const Scenario current = load_scenario(IniFile::parse_string(text), strict);
  EXPECT_EQ(scenario_fingerprint(older), scenario_fingerprint(current));
  const Estimator& dp = *find_estimator("dp");
  EXPECT_EQ(dp.estimate(older).pdl, dp.estimate(current).pdl);  // bit-equal
}

TEST(SpecIo, SeedAbove2To53RoundTripsExactly) {
  // 2^53 + 1 is the first integer a double cannot hold.
  const auto scenario =
      load_scenario(IniFile::parse_string("[sim]\nseed = 9007199254740993\n"));
  EXPECT_EQ(scenario.seed, 9007199254740993ULL);
  const auto again = load_scenario(IniFile::parse_string(format_scenario(scenario)));
  EXPECT_EQ(again.seed, 9007199254740993ULL);
}

TEST(SpecIo, FuzzNonUtf8ScenarioNameRoundTrips) {
  std::vector<std::string> unknown;
  SpecParsePolicy policy;
  policy.unknown_keys = &unknown;
  const std::string name = "\xff\x80 bytes";
  const auto scenario =
      load_scenario(IniFile::parse_string("[scenario]\nname = " + name + "\n"), policy);
  EXPECT_EQ(scenario.name, name);
  const auto again =
      load_scenario(IniFile::parse_string(format_scenario(scenario)), policy);
  EXPECT_EQ(again.name, name);
}

}  // namespace
}  // namespace mlec
