// INI / scenario-file parser fuzz target.
//
// Contract under test: any byte sequence either parses or raises
// mlec::PreconditionError carrying a line-numbered diagnostic. Crashes,
// sanitizer reports, InternalError, or any other exception type escaping is
// a bug. When a scenario does load, its serialized form must load again
// (format/parse round-trip stability), since the journal fingerprint and
// the --strict CLI both depend on it.
#include <cstdint>
#include <string>
#include <vector>

#include "core/spec_io.hpp"
#include "util/error.hpp"
#include "util/ini.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  mlec::IniFile ini;
  try {
    ini = mlec::IniFile::parse_string(text);
  } catch (const mlec::PreconditionError&) {
    return 0;  // diagnosed malformed input: the accepted outcome
  }

  std::vector<std::string> unknown;
  mlec::SpecParsePolicy policy;
  policy.unknown_keys = &unknown;  // silence stderr, keep the diagnosis path hot
  try {
    const mlec::Scenario scenario = mlec::load_scenario(ini, policy);
    // Round-trip: a loadable scenario must serialize to loadable text.
    const std::string formatted = mlec::format_scenario(scenario);
    const mlec::IniFile reparsed = mlec::IniFile::parse_string(formatted);
    (void)mlec::load_scenario(reparsed, policy);
  } catch (const mlec::PreconditionError&) {
  }
  return 0;
}
