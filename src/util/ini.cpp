#include "util/ini.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <istream>
#include <sstream>

#include "util/error.hpp"

namespace mlec {

namespace {
std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}
}  // namespace

std::uint64_t parse_uint64(std::string_view text, std::string_view what) {
  const auto fail = [&]() -> std::uint64_t {
    throw PreconditionError(std::string(what) + ": expected a non-negative integer, got '" +
                            std::string(text) + "'");
  };
  // digits [. digits] [e [+-] digits], read as the exact decimal value
  // mantissa x 10^exponent: no detour through double.
  std::size_t pos = 0;
  const auto digits = [&] {
    const std::size_t from = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return std::string(text.substr(from, pos - from));
  };
  std::string mantissa = digits();
  long long exponent = 0;
  if (pos < text.size() && text[pos] == '.') {
    ++pos;
    const std::string fraction = digits();
    mantissa += fraction;
    exponent = -static_cast<long long>(fraction.size());
  }
  if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
    if (++pos < text.size() && text[pos] == '+') ++pos;
    int power = 0;
    const auto [end, ec] = std::from_chars(text.data() + pos, text.data() + text.size(), power);
    if (ec != std::errc{}) return fail();
    pos = static_cast<std::size_t>(end - text.data());
    exponent += power;
  }
  if (mantissa.empty() || pos != text.size()) return fail();
  mantissa.erase(0, mantissa.find_first_not_of('0'));
  if (mantissa.empty()) return 0;
  // Trailing zeros absorb a negative exponent; any other digit is a fraction.
  for (; exponent < 0; mantissa.pop_back(), ++exponent)
    if (mantissa.back() != '0') return fail();
  if (exponent > 20) return fail();  // at least 10^21, past UINT64_MAX
  mantissa.append(static_cast<std::size_t>(exponent), '0');
  std::uint64_t value = 0;
  if (std::from_chars(mantissa.data(), mantissa.data() + mantissa.size(), value).ec != std::errc{})
    return fail();
  return value;
}

IniFile IniFile::parse(std::istream& in) {
  IniFile ini;
  std::string line;
  std::string section;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string text = trim(line);
    if (text.empty() || text[0] == '#' || text[0] == ';') continue;
    if (text.front() == '[') {
      MLEC_REQUIRE(text.back() == ']' && text.size() > 2,
                   "ini line " + std::to_string(lineno) + ": malformed section header");
      section = trim(text.substr(1, text.size() - 2));
      MLEC_REQUIRE(!section.empty(),
                   "ini line " + std::to_string(lineno) + ": empty section name");
      continue;
    }
    const auto eq = text.find('=');
    MLEC_REQUIRE(eq != std::string::npos,
                 "ini line " + std::to_string(lineno) + ": expected 'key = value'");
    const std::string key = trim(text.substr(0, eq));
    std::string raw = text.substr(eq + 1);
    // Trailing comments: a '#' or ';' preceded by whitespace ends the value.
    for (std::size_t i = 1; i < raw.size(); ++i) {
      if ((raw[i] == '#' || raw[i] == ';') &&
          (raw[i - 1] == ' ' || raw[i - 1] == '\t')) {
        raw.resize(i);
        break;
      }
    }
    const std::string value = trim(raw);
    MLEC_REQUIRE(!key.empty(), "ini line " + std::to_string(lineno) + ": empty key");
    ini.values_[{section, key}] = value;
  }
  return ini;
}

IniFile IniFile::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

bool IniFile::has(const std::string& section, const std::string& key) const {
  return values_.count({section, key}) > 0;
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const auto it = values_.find({section, key});
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string IniFile::get_string(const std::string& section, const std::string& key,
                                const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

double IniFile::get_double(const std::string& section, const std::string& key,
                           double fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    MLEC_REQUIRE(pos == v->size(), "trailing characters");
    return parsed;
  } catch (const std::exception&) {
    throw PreconditionError("ini [" + section + "] " + key + ": expected a number, got '" +
                            *v + "'");
  }
}

std::size_t IniFile::get_size(const std::string& section, const std::string& key,
                              std::size_t fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  return parse_uint64(*v, "ini [" + section + "] " + key);
}

bool IniFile::get_bool(const std::string& section, const std::string& key,
                       bool fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") return false;
  throw PreconditionError("ini [" + section + "] " + key + ": expected a boolean, got '" + *v +
                          "'");
}

}  // namespace mlec
