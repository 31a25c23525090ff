// Generic typed key-value configuration store.
//
// Experiments are parameterized by flat key=value pairs (BookSim style).
// Values are stored as strings and converted on access; unknown keys and
// type errors fail loudly. `parse_args` accepts "key=value" tokens so every
// bench/example binary can be overridden from the command line.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace flov {

/// Keys of removed knobs: multi-process stepping and the self-healing
/// runtime built on it. See Config::retired_key_error.
inline constexpr const char* kRetiredConfigKeys[] = {
    "procs", "noc.step_procs", "sim.snapshot_period", "runstate",
    "sim.max_recoveries"};

class Config {
 public:
  Config() = default;

  /// Sets (or overwrites) a key.
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, long long value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);

  bool has(const std::string& key) const;

  /// Typed getters; the non-defaulted forms abort on a missing key.
  std::string get_string(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& dflt) const;
  long long get_int(const std::string& key) const;
  long long get_int(const std::string& key, long long dflt) const;
  double get_double(const std::string& key) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// Parses "key=value" tokens (argv style); ignores tokens without '='.
  void parse_args(int argc, char** argv);

  /// Parses a multi-line "key = value" text block ('#' starts a comment).
  void parse_text(const std::string& text);

  /// All keys in sorted order (for reproducibility logging).
  std::vector<std::string> keys() const;

  /// Renders "key = value" lines sorted by key.
  std::string to_string() const;

  /// Usage-error text naming the first kRetiredConfigKeys entry that is
  /// set, or "" when none is. Unknown keys are otherwise ignored, so
  /// drivers check this first: a stale `procs=2` must fail, not run
  /// serially.
  std::string retired_key_error() const;

 private:
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace flov
