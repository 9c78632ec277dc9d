// Scenario canonicalization: the server's dedup story rests on isomorphic
// scenario files — reordered sections, reordered keys, comments, and
// equivalent unit spellings — collapsing to one canonical text and one
// structural fingerprint, while any real parameter change separates them.
#include "core/spec_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "runtime/mission_campaign.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

namespace mlec {
namespace {

Scenario from_text(const std::string& text) {
  return load_scenario(IniFile::parse_string(text));
}

/// Key order, section order, and whitespace are scrambled across the
/// variants below; all describe this system.
const char* kBase =
    "[scenario]\n"
    "name = canon\n"
    "[datacenter]\n"
    "racks = 6\n"
    "enclosures_per_rack = 2\n"
    "disks_per_enclosure = 8\n"
    "disk_capacity_tb = 18\n"
    "[code]\n"
    "mlec = (2+1)/(3+1)\n"
    "scheme = C/C\n"
    "repair = R_ALL\n"
    "[failures]\n"
    "afr = 0.5\n"
    "[sim]\n"
    "missions = 100\n"
    "seed = 7\n";

TEST(Canonical, ReorderedSectionsAndKeysShareOneNormalForm) {
  const char* reordered =
      "# same deployment, shuffled\n"
      "[sim]\n"
      "seed = 7\n"
      "missions = 100\n"
      "[code]\n"
      "repair = R_ALL\n"
      "mlec   = (2+1)/(3+1)\n"
      "scheme = C/C\n"
      "[failures]\n"
      "afr = 0.5\n"
      "[datacenter]\n"
      "disk_capacity_tb = 18\n"
      "disks_per_enclosure = 8\n"
      "racks = 6\n"
      "enclosures_per_rack = 2\n"
      "[scenario]\n"
      "name = canon\n";
  const Scenario a = from_text(kBase);
  const Scenario b = from_text(reordered);
  EXPECT_EQ(format_scenario(a), format_scenario(b));
  EXPECT_EQ(scenario_identity(a), scenario_identity(b));
  EXPECT_EQ(scenario_fingerprint(a), scenario_fingerprint(b));
}

TEST(Canonical, CanonicalTextIsAFixpoint) {
  const Scenario a = from_text(kBase);
  const std::string canonical = format_scenario(a);
  EXPECT_EQ(canonical, format_scenario(from_text(canonical)));
  EXPECT_EQ(scenario_fingerprint(a), scenario_fingerprint(from_text(canonical)));
}

TEST(Canonical, EquivalentUnitSpellingsCollapse) {
  std::string gb = kBase;
  gb.replace(gb.find("disk_capacity_tb = 18"), 21, "disk_capacity_tb = 18000GB");
  std::string tb = kBase;
  tb.replace(tb.find("disk_capacity_tb = 18"), 21, "disk_capacity_tb = 18TB");
  const Scenario plain = from_text(kBase);
  const Scenario as_gb = from_text(gb);
  const Scenario as_tb = from_text(tb);
  // Bit-exact, not merely close: the conversion multiplies before dividing.
  EXPECT_EQ(plain.system.dc.disk_capacity_tb, as_gb.system.dc.disk_capacity_tb);
  EXPECT_EQ(scenario_fingerprint(plain), scenario_fingerprint(as_gb));
  EXPECT_EQ(scenario_fingerprint(plain), scenario_fingerprint(as_tb));
  EXPECT_EQ(format_scenario(plain), format_scenario(as_gb));
}

TEST(Canonical, OneParameterChangeSeparatesFingerprints) {
  const std::uint64_t base_fp = scenario_fingerprint(from_text(kBase));
  const struct {
    const char* from;
    const char* to;
  } edits[] = {
      {"racks = 6", "racks = 7"},
      {"disk_capacity_tb = 18", "disk_capacity_tb = 20"},
      {"afr = 0.5", "afr = 0.25"},
      {"mlec = (2+1)/(3+1)", "mlec = (2+1)/(6+2)"},
      {"missions = 100", "missions = 200"},
  };
  for (const auto& edit : edits) {
    std::string text = kBase;
    const auto at = text.find(edit.from);
    ASSERT_NE(at, std::string::npos) << edit.from;
    text.replace(at, std::string(edit.from).size(), edit.to);
    EXPECT_NE(scenario_fingerprint(from_text(text)), base_fp) << edit.to;
  }
}

TEST(Canonical, NameAndSeedAreNotPartOfTheIdentity) {
  std::string renamed = kBase;
  renamed.replace(renamed.find("name = canon"), 12, "name = other");
  std::string reseeded = kBase;
  reseeded.replace(reseeded.find("seed = 7"), 8, "seed = 8");
  const std::uint64_t base_fp = scenario_fingerprint(from_text(kBase));
  // The memo key carries the seed separately; the fingerprint identifies
  // the system under study, not the label or the RNG stream.
  EXPECT_EQ(scenario_fingerprint(from_text(renamed)), base_fp);
  EXPECT_EQ(scenario_fingerprint(from_text(reseeded)), base_fp);
}

TEST(Canonical, DefaultCodeFamilySpellingCollapses) {
  // `family = rs` is the default; writing it out is the same scenario.
  std::string spelled = kBase;
  spelled.replace(spelled.find("scheme = C/C"), 12, "family = rs\nscheme = C/C");
  EXPECT_EQ(scenario_fingerprint(from_text(kBase)), scenario_fingerprint(from_text(spelled)));
}

/// kBase with an LRC network level: same deployment arithmetic (width 7
/// network part), locality (4,2,1).
std::string lrc_base() {
  std::string text = kBase;
  text.replace(text.find("mlec = (2+1)/(3+1)"), 18,
               "mlec = (4+3)/(3+1)\nfamily = lrc\nlrc = (4,2,1)");
  return text;
}

TEST(Canonical, LrcSpellingsCollapseToOneFingerprint) {
  const std::string a = lrc_base();
  // Same config spelled differently: shuffled [code] keys, padded tuple.
  std::string b = kBase;
  b.replace(b.find("mlec = (2+1)/(3+1)"), 18, "mlec = (4+3)/(3+1)");
  b.replace(b.find("repair = R_ALL"), 14,
            "repair = R_ALL\nlrc = ( 4 , 2 , 1 )\nfamily = lrc");
  EXPECT_EQ(scenario_fingerprint(from_text(a)), scenario_fingerprint(from_text(b)));
}

TEST(Canonical, LrcLocalityAndFamilyChangesSeparateFingerprints) {
  const std::uint64_t lrc_fp = scenario_fingerprint(from_text(lrc_base()));
  // Same width, one locality parameter moved: (4,2,1) -> (4,1,2).
  std::string moved = lrc_base();
  moved.replace(moved.find("lrc = (4,2,1)"), 13, "lrc = (4,1,2)");
  EXPECT_NE(scenario_fingerprint(from_text(moved)), lrc_fp);
  // Same (k_n, p_n) arithmetic under plain RS is a different system too.
  std::string rs = kBase;
  rs.replace(rs.find("mlec = (2+1)/(3+1)"), 18, "mlec = (4+3)/(3+1)");
  EXPECT_NE(scenario_fingerprint(from_text(rs)), lrc_fp);
}

TEST(Canonical, RetiredWeibullKeysDoNotSplitIdentity) {
  // No estimate reads weibull_shape, so two files that differ only there
  // are one scenario to the memo cache and one campaign to the journal.
  std::vector<std::string> unknown;
  SpecParsePolicy policy;
  policy.unknown_keys = &unknown;
  const auto with_shape = [&](const char* shape) {
    std::string text = kBase;
    text.replace(text.find("afr = 0.5"), 9, std::string("afr = 0.5\nweibull_shape = ") + shape);
    return load_scenario(IniFile::parse_string(text), policy);
  };
  const Scenario a = with_shape("1.2");
  const Scenario b = with_shape("0.3");
  EXPECT_EQ(unknown.size(), 2u);
  EXPECT_EQ(scenario_fingerprint(a), scenario_fingerprint(b));
  EXPECT_EQ(fleet_campaign_fingerprint(a.fleet_config()),
            fleet_campaign_fingerprint(b.fleet_config()));
}

TEST(Canonical, MalformedUnitSuffixesAreRejected) {
  for (const char* bad : {"disk_capacity_tb = 18XB", "disk_capacity_tb = TB",
                          "disk_capacity_tb = 1.2.3TB"}) {
    std::string text = kBase;
    text.replace(text.find("disk_capacity_tb = 18"), 21, bad);
    EXPECT_THROW(from_text(text), PreconditionError) << bad;
  }
}

}  // namespace
}  // namespace mlec
