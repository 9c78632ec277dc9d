// Minimal INI configuration parsing for deployment spec files.
//
// Grammar: `[section]` headers, `key = value` pairs, `#`/`;` comments,
// blank lines. Keys are case-sensitive and scoped by their section ("" for
// the preamble). Later duplicates overwrite earlier ones. Values keep
// internal whitespace; surrounding whitespace is trimmed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mlec {

/// Parse a non-negative integer exactly, up to UINT64_MAX: a plain decimal
/// literal, or decimal or scientific notation whose value is a whole number
/// ("2e3", "1.5e1"). Negative, fractional or out-of-range values and
/// trailing characters throw PreconditionError naming `what` (a key or a
/// flag).
std::uint64_t parse_uint64(std::string_view text, std::string_view what);

class IniFile {
 public:
  /// Parse from a stream; throws PreconditionError with the line number on
  /// malformed input.
  static IniFile parse(std::istream& in);
  static IniFile parse_string(const std::string& text);

  bool has(const std::string& section, const std::string& key) const;
  std::optional<std::string> get(const std::string& section, const std::string& key) const;

  /// Typed accessors: return `fallback` when absent, throw PreconditionError
  /// when present but malformed.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& section, const std::string& key, double fallback) const;
  /// Non-negative integers, read exactly by parse_uint64.
  std::size_t get_size(const std::string& section, const std::string& key,
                       std::size_t fallback) const;
  bool get_bool(const std::string& section, const std::string& key, bool fallback) const;

  std::size_t entries() const { return values_.size(); }

  /// Every (section, key) pair present, in section-then-key order — lets
  /// consumers diff the file against their known-key table (spec_io's
  /// unknown-key diagnostics).
  std::vector<std::pair<std::string, std::string>> keys() const {
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(values_.size());
    for (const auto& [section_key, value] : values_) out.push_back(section_key);
    return out;
  }

 private:
  std::map<std::pair<std::string, std::string>, std::string> values_;
};

}  // namespace mlec
