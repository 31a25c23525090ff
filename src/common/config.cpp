#include "common/config.hpp"

#include <cstdlib>
#include <sstream>

#include "common/log.hpp"

namespace flov {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set(const std::string& key, long long value) {
  values_[key] = std::to_string(value);
}

void Config::set(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  values_[key] = os.str();
}

void Config::set(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  auto v = find(key);
  FLOV_CHECK(v.has_value(), "missing config key: " + key);
  return *v;
}

std::string Config::get_string(const std::string& key,
                               const std::string& dflt) const {
  return find(key).value_or(dflt);
}

long long Config::get_int(const std::string& key) const {
  const std::string v = get_string(key);
  char* end = nullptr;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  FLOV_CHECK(end && *end == '\0', "config key " + key + " is not an int: " + v);
  return r;
}

long long Config::get_int(const std::string& key, long long dflt) const {
  return has(key) ? get_int(key) : dflt;
}

double Config::get_double(const std::string& key) const {
  const std::string v = get_string(key);
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  FLOV_CHECK(end && *end == '\0',
             "config key " + key + " is not a double: " + v);
  return r;
}

double Config::get_double(const std::string& key, double dflt) const {
  return has(key) ? get_double(key) : dflt;
}

bool Config::get_bool(const std::string& key) const {
  const std::string v = get_string(key);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  FLOV_CHECK(false, "config key " + key + " is not a bool: " + v);
  return false;
}

bool Config::get_bool(const std::string& key, bool dflt) const {
  return has(key) ? get_bool(key) : dflt;
}

void Config::parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    set(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
  }
}

void Config::parse_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    FLOV_CHECK(eq != std::string::npos, "config line missing '=': " + line);
    set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

std::string Config::retired_key_error() const {
  for (const char* k : kRetiredConfigKeys) {
    if (has(k)) {
      return std::string(k) +
             "= was removed with multi-process stepping; parallelize a run "
             "with threads= (and tiles=), and resume an interrupted sweep "
             "with checkpoint= + resume=1";
    }
  }
  return "";
}

}  // namespace flov
