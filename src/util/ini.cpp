#include "util/ini.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace scal::util {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

std::optional<double> parse_finite(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(parsed)) return std::nullopt;
    return parsed;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream in(text);
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == ';') continue;
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']' || trimmed.size() < 3) {
        throw std::runtime_error("IniFile: bad section header at line " +
                                 std::to_string(line_no));
      }
      section = trim(trimmed.substr(1, trimmed.size() - 2));
      if (section.empty()) {
        throw std::runtime_error("IniFile: empty section name at line " +
                                 std::to_string(line_no));
      }
      continue;
    }
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("IniFile: expected key = value at line " +
                               std::to_string(line_no));
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("IniFile: empty key at line " +
                               std::to_string(line_no));
    }
    ini.values_[section.empty() ? key : section + "." + key] = value;
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("IniFile: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::string IniFile::to_string() const {
  std::ostringstream out;
  std::string current_section;
  bool first = true;
  for (const auto& [key, value] : values_) {
    const auto dot = key.find('.');
    const std::string section =
        dot == std::string::npos ? "" : key.substr(0, dot);
    const std::string bare =
        dot == std::string::npos ? key : key.substr(dot + 1);
    if (section != current_section || first) {
      if (!first) out << '\n';
      if (!section.empty()) out << '[' << section << "]\n";
      current_section = section;
      first = false;
    }
    out << bare << " = " << value << '\n';
  }
  return out.str();
}

void IniFile::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("IniFile: cannot write " + path);
  out << to_string();
}

bool IniFile::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> IniFile::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string IniFile::get_string(const std::string& key,
                                const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double IniFile::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (const auto parsed = parse_finite(*v)) return *parsed;
  throw std::runtime_error("IniFile: '" + key + "' is not a number: " + *v);
}

std::int64_t IniFile::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const long long parsed = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("IniFile: '" + key + "' is not an integer: " +
                             *v);
  }
}

bool IniFile::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::runtime_error("IniFile: '" + key + "' is not a boolean: " + *v);
}

void IniFile::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void IniFile::set_double(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  values_[key] = os.str();
}

void IniFile::set_int(const std::string& key, std::int64_t value) {
  values_[key] = std::to_string(value);
}

void IniFile::set_bool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

}  // namespace scal::util
