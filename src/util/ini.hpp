#pragma once
// Minimal INI-style configuration format:
//   # comment
//   [section]
//   key = value
// Keys are addressed as "section.key" (or bare "key" before any
// section header).  Values keep their literal text; typed getters parse
// on demand and throw with the offending key on bad input.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace scal::util {

/// The number `text` spells in full, or nullopt when it has trailing
/// characters, does not parse, or is not finite (nan, inf, overflow).
std::optional<double> parse_finite(const std::string& text);

class IniFile {
 public:
  IniFile() = default;

  /// Parse from text; throws std::runtime_error with a line number on
  /// malformed input.
  static IniFile parse(const std::string& text);
  static IniFile load(const std::string& path);

  /// Serialize (sections sorted, keys sorted within a section).
  std::string to_string() const;
  void save(const std::string& path) const;

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;

  /// Typed getters with defaults; throw std::runtime_error naming the
  /// key when the value does not parse.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value);
  void set_double(const std::string& key, double value);
  void set_int(const std::string& key, std::int64_t value);
  void set_bool(const std::string& key, bool value);

  std::size_t size() const noexcept { return values_.size(); }
  const std::map<std::string, std::string>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace scal::util
