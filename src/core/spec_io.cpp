#include "core/spec_io.hpp"

#include <cctype>
#include <iostream>
#include <sstream>
#include <utility>

#include "placement/notation.hpp"
#include "runtime/journal.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlec {

namespace {

/// Keys consumed by load_scenario.
constexpr std::pair<const char*, const char*> kScenarioKeys[] = {
    {"scenario", "name"},
    {"datacenter", "racks"},
    {"datacenter", "enclosures_per_rack"},
    {"datacenter", "disks_per_enclosure"},
    {"datacenter", "disk_capacity_tb"},
    {"datacenter", "chunk_kb"},
    {"bandwidth", "disk_mbps"},
    {"bandwidth", "rack_gbps"},
    {"bandwidth", "repair_fraction"},
    {"code", "mlec"},
    {"code", "family"},
    {"code", "lrc"},
    {"code", "scheme"},
    {"code", "repair"},
    {"failures", "afr"},
    {"failures", "detection_hours"},
    {"failures", "mission_hours"},
    {"failures", "kind"},
    {"failures", "ure_per_bit"},
    {"sim", "priority_repair"},
    {"sim", "missions"},
    {"sim", "split_missions"},
    {"sim", "burst_trials"},
    {"sim", "seed"},
    {"bursts", "per_year"},
    {"bursts", "racks"},
    {"bursts", "failures"},
};

void check_unknown_keys(const IniFile& ini, const SpecParsePolicy& policy) {
  std::string joined;
  std::size_t count = 0;
  for (const auto& [section, key] : ini.keys()) {
    bool known = false;
    for (const auto& [s, k] : kScenarioKeys) known = known || (section == s && key == k);
    if (known) continue;
    const std::string qualified = section.empty() ? key : section + "." + key;
    if (policy.unknown_keys != nullptr && !policy.strict)
      policy.unknown_keys->push_back(qualified);
    if (!joined.empty()) joined += ", ";
    joined += qualified;
    ++count;
  }
  if (count == 0) return;
  const std::string what =
      "scenario file has " + std::to_string(count) + " unknown key(s): " + joined;
  if (policy.strict) throw PreconditionError(what);
  if (policy.unknown_keys == nullptr) std::cerr << "warning: " << what << " (ignored)\n";
}

/// Read a size-like key that may carry a decimal storage-unit suffix
/// (KB/MB/GB/TB/PB, case-insensitive), scaled to the key's native unit:
/// with native = units::kTB, "18", "18TB", and "18000GB" all mean 18.
/// Multiply-then-divide keeps round decimal spellings bit-exact
/// (18000 * 1e9 / 1e12 == 18.0 exactly), which the scenario fingerprint
/// relies on to treat equivalent spellings as one cache entry.
double get_sized(const IniFile& ini, const std::string& section, const std::string& key,
                 double fallback, double native_unit_bytes) {
  const auto raw = ini.get(section, key);
  if (!raw) return fallback;
  std::string text = *raw;
  const auto fail = [&] {
    throw PreconditionError("malformed value for " + section + "." + key + ": '" + *raw + "'");
  };

  std::size_t digits_end = text.size();
  while (digits_end > 0 &&
         std::isalpha(static_cast<unsigned char>(text[digits_end - 1])) != 0) {
    --digits_end;
  }
  std::string suffix = text.substr(digits_end);
  for (char& c : suffix) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  while (digits_end > 0 && std::isspace(static_cast<unsigned char>(text[digits_end - 1])) != 0)
    --digits_end;
  text.resize(digits_end);

  double unit_bytes = native_unit_bytes;
  if (!suffix.empty()) {
    constexpr std::pair<const char*, double> kSuffixes[] = {{"KB", units::kKB},
                                                            {"MB", units::kMB},
                                                            {"GB", units::kGB},
                                                            {"TB", units::kTB},
                                                            {"PB", units::kPB}};
    bool known = false;
    for (const auto& [name, bytes] : kSuffixes) {
      if (suffix == name) {
        unit_bytes = bytes;
        known = true;
        break;
      }
    }
    if (!known) fail();
  }

  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(text, &consumed);
    if (consumed != text.size() || text.empty()) fail();
  } catch (const PreconditionError&) {
    throw;
  } catch (const std::exception&) {
    fail();
  }
  return value * unit_bytes / native_unit_bytes;
}

}  // namespace

Scenario load_scenario(const IniFile& ini, const SpecParsePolicy& policy) {
  // Only exponential lifetimes are modeled. The key is still read so that a
  // file asking for another kind is refused, never estimated as exponential;
  // checked first so the refusal names it even when the file also carries
  // the retired Weibull parameters.
  if (const auto kind = ini.get("failures", "kind"); kind && *kind != "exponential")
    throw PreconditionError("failures.kind = '" + *kind +
                            "' is not supported: only exponential lifetimes are modeled");
  check_unknown_keys(ini, policy);
  Scenario sc;
  sc.name = ini.get_string("scenario", "name", sc.name);

  SystemSpec& spec = sc.system;
  spec.dc.racks = ini.get_size("datacenter", "racks", spec.dc.racks);
  spec.dc.enclosures_per_rack =
      ini.get_size("datacenter", "enclosures_per_rack", spec.dc.enclosures_per_rack);
  spec.dc.disks_per_enclosure =
      ini.get_size("datacenter", "disks_per_enclosure", spec.dc.disks_per_enclosure);
  spec.dc.disk_capacity_tb =
      get_sized(ini, "datacenter", "disk_capacity_tb", spec.dc.disk_capacity_tb, units::kTB);
  spec.dc.chunk_kb = get_sized(ini, "datacenter", "chunk_kb", spec.dc.chunk_kb, units::kKB);

  spec.bandwidth.disk_mbps = ini.get_double("bandwidth", "disk_mbps", spec.bandwidth.disk_mbps);
  spec.bandwidth.rack_gbps = ini.get_double("bandwidth", "rack_gbps", spec.bandwidth.rack_gbps);
  spec.bandwidth.repair_fraction =
      ini.get_double("bandwidth", "repair_fraction", spec.bandwidth.repair_fraction);

  if (const auto code = ini.get("code", "mlec")) spec.code = parse_mlec_code(*code);
  if (const auto family = ini.get("code", "family"))
    spec.network_family = parse_code_family(*family);
  if (const auto lrc = ini.get("code", "lrc")) spec.network_lrc = parse_lrc_code(*lrc);
  if (const auto scheme = ini.get("code", "scheme")) spec.scheme = parse_mlec_scheme(*scheme);
  if (const auto repair = ini.get("code", "repair")) spec.repair = parse_repair_method(*repair);

  spec.afr = ini.get_double("failures", "afr", spec.afr);
  spec.detection_hours = ini.get_double("failures", "detection_hours", spec.detection_hours);
  spec.mission_hours = ini.get_double("failures", "mission_hours", spec.mission_hours);
  sc.ure_per_bit = ini.get_double("failures", "ure_per_bit", sc.ure_per_bit);

  sc.priority_repair = ini.get_bool("sim", "priority_repair", sc.priority_repair);
  sc.missions = ini.get_size("sim", "missions", sc.missions);
  sc.split_missions = ini.get_size("sim", "split_missions", sc.split_missions);
  sc.burst_trials = ini.get_size("sim", "burst_trials", sc.burst_trials);
  sc.seed = ini.get_size("sim", "seed", sc.seed);

  sc.bursts.bursts_per_year = ini.get_double("bursts", "per_year", sc.bursts.bursts_per_year);
  sc.bursts.racks = ini.get_size("bursts", "racks", sc.bursts.racks);
  sc.bursts.failures = ini.get_size("bursts", "failures", sc.bursts.failures);
  return sc;
}

std::string format_scenario(const Scenario& sc) {
  std::ostringstream os;
  if (!sc.name.empty()) os << "[scenario]\nname = " << sc.name << "\n\n";
  const SystemSpec& spec = sc.system;
  os << "[datacenter]\n"
     << "racks = " << spec.dc.racks << '\n'
     << "enclosures_per_rack = " << spec.dc.enclosures_per_rack << '\n'
     << "disks_per_enclosure = " << spec.dc.disks_per_enclosure << '\n'
     << "disk_capacity_tb = " << spec.dc.disk_capacity_tb << '\n'
     << "chunk_kb = " << spec.dc.chunk_kb << "\n\n";
  os << "[bandwidth]\n"
     << "disk_mbps = " << spec.bandwidth.disk_mbps << '\n'
     << "rack_gbps = " << spec.bandwidth.rack_gbps << '\n'
     << "repair_fraction = " << spec.bandwidth.repair_fraction << "\n\n";
  os << "[code]\n"
     << "mlec = " << spec.code.notation() << '\n'
     << "family = " << to_string(spec.network_family) << '\n';
  if (spec.network_family == CodeFamily::kLrc)
    os << "lrc = " << spec.network_lrc.notation() << '\n';
  os << "scheme = " << to_string(spec.scheme) << '\n'
     << "repair = " << to_string(spec.repair) << "\n\n";
  os << "[failures]\n"
     << "afr = " << spec.afr << '\n'
     << "detection_hours = " << spec.detection_hours << '\n'
     << "mission_hours = " << spec.mission_hours << '\n'
     << "ure_per_bit = " << sc.ure_per_bit << "\n\n";
  os << "[sim]\n"
     << "priority_repair = " << (sc.priority_repair ? "true" : "false") << '\n'
     << "missions = " << sc.missions << '\n'
     << "split_missions = " << sc.split_missions << '\n'
     << "burst_trials = " << sc.burst_trials << '\n'
     << "seed = " << sc.seed << "\n\n";
  os << "[bursts]\n"
     << "per_year = " << sc.bursts.bursts_per_year << '\n'
     << "racks = " << sc.bursts.racks << '\n'
     << "failures = " << sc.bursts.failures << '\n';
  return os.str();
}

std::string scenario_identity(const Scenario& sc) {
  const SystemSpec& s = sc.system;
  std::ostringstream os;
  os << std::hexfloat;
  // v2: the network code-family axis joined the identity. The family-
  // qualified LevelCode notation canonicalizes spellings (an explicit
  // `family = rs` and the default collapse to the same string; any LRC
  // parameter change yields a different one). v3: the Weibull fields,
  // which no estimate read, left the identity.
  os << "mlec-scenario-identity-v3"
     << "|racks=" << s.dc.racks
     << "|enclosures_per_rack=" << s.dc.enclosures_per_rack
     << "|disks_per_enclosure=" << s.dc.disks_per_enclosure
     << "|disk_capacity_tb=" << s.dc.disk_capacity_tb
     << "|chunk_kb=" << s.dc.chunk_kb
     << "|disk_mbps=" << s.bandwidth.disk_mbps
     << "|rack_gbps=" << s.bandwidth.rack_gbps
     << "|repair_fraction=" << s.bandwidth.repair_fraction
     << "|code=" << s.code.notation()
     << "|network_level=" << s.network_level().notation()
     << "|scheme=" << to_string(s.scheme)
     << "|repair=" << to_string(s.repair)
     << "|afr=" << s.afr
     << "|detection_hours=" << s.detection_hours
     << "|mission_hours=" << s.mission_hours
     << "|priority_repair=" << (sc.priority_repair ? 1 : 0)
     << "|ure_per_bit=" << sc.ure_per_bit
     << "|bursts_per_year=" << sc.bursts.bursts_per_year
     << "|burst_racks=" << sc.bursts.racks
     << "|burst_failures=" << sc.bursts.failures
     << "|missions=" << sc.missions
     << "|split_missions=" << sc.split_missions
     << "|burst_trials=" << sc.burst_trials;
  return os.str();
}

std::uint64_t scenario_fingerprint(const Scenario& scenario) {
  return fingerprint_of(scenario_identity(scenario));
}

std::string example_scenario() {
  return R"(# mlec++ scenario file — every key optional; defaults are the paper's §3
# setup (57,600 disks, (10+2)/(17+3), 1% AFR, 30-minute detection). A file
# with only the deployment sections ([datacenter] .. [failures]) is valid.

[scenario]
name = paper-default

[datacenter]
racks = 60
enclosures_per_rack = 8
disks_per_enclosure = 120
disk_capacity_tb = 20
chunk_kb = 128

[bandwidth]
disk_mbps = 200          # raw sequential bandwidth per disk
rack_gbps = 10           # raw cross-rack link per rack
repair_fraction = 0.2    # share of raw bandwidth repairs may use

[code]
mlec = (10+2)/(17+3)     # (kn+pn)/(kl+pl)
family = rs              # network level: rs or lrc
#lrc = (10,1,1)          # LRC shape when family = lrc; needs k = kn, l+r = pn
scheme = C/D             # C/C, C/D, D/C, D/D
repair = R_MIN           # R_ALL, R_FCO, R_HYB, R_MIN

[failures]
afr = 0.01               # annual failure rate
detection_hours = 0.5
mission_hours = 8766     # one year
ure_per_bit = 0          # latent-error rate; 0 disables (analytic only)

[sim]
priority_repair = true   # declustered priority reconstruction
missions = 1000          # method=sim fleet missions
split_missions = 20000   # method=split stage-1 pool missions
burst_trials = 1500      # method=dp burst-engine trials per cell
seed = 1

[bursts]
per_year = 0             # correlated-burst climate; 0 = none
racks = 3
failures = 30
)";
}

}  // namespace mlec
