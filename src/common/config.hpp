// Generic typed key-value configuration store.
//
// Experiments are parameterized by flat key=value pairs (BookSim style).
// Values are stored as strings and converted on access; unknown keys and
// type errors fail loudly. `parse_args` accepts "key=value" tokens so every
// bench/example binary can be overridden from the command line.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace flov {

/// A missing, malformed or retired key. Its message names the key; the
/// drivers print it once and exit 1.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Removed knobs, each with why it went. See Config::retired_key_error.
struct RetiredConfigKey {
  const char* key;
  const char* reason;
};
inline constexpr const char* kMultiProcessRemoved =
    "was removed with multi-process stepping; parallelize a run with "
    "threads= (and tiles=), and resume an interrupted sweep with "
    "checkpoint= + resume=1";
inline constexpr const char* kSweepRetryRemoved =
    "was removed: a sweep point is a pure function of its config, so a "
    "retry only rethrew the same error after a sleep; resume a failed sweep "
    "with checkpoint= + resume=1";
inline constexpr RetiredConfigKey kRetiredConfigKeys[] = {
    {"procs", kMultiProcessRemoved}, {"runstate", kMultiProcessRemoved},
    {"noc.step_procs", kMultiProcessRemoved},
    {"sim.snapshot_period", kMultiProcessRemoved},
    {"sim.max_recoveries", kMultiProcessRemoved},
    {"retries", kSweepRetryRemoved}, {"retry_backoff_ms", kSweepRetryRemoved}};

class Config {
 public:
  Config() = default;

  /// Sets (or overwrites) a key.
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, long long value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);

  bool has(const std::string& key) const;

  /// Typed getters; the non-defaulted forms throw ConfigError on a missing
  /// key. Numbers parse strictly: trailing garbage ("5x") is an error.
  std::string get_string(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& dflt) const;
  long long get_int(const std::string& key) const;
  long long get_int(const std::string& key, long long dflt) const;
  double get_double(const std::string& key) const;
  double get_double(const std::string& key, double dflt) const;
  bool get_bool(const std::string& key) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// Comma-separated lists ("a,b,c"; an empty value is an empty list), or
  /// `dflt`'s entries when the key is absent. Each number entry obeys the
  /// same strict rules as get_int/get_double.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::string& dflt) const;
  std::vector<long long> get_int_list(const std::string& key,
                                      const std::string& dflt) const;
  std::vector<double> get_double_list(const std::string& key,
                                      const std::string& dflt) const;

  /// Parses "key=value" tokens (argv style); ignores tokens without '='.
  void parse_args(int argc, char** argv);

  /// Parses a multi-line "key = value" text block ('#' starts a comment).
  void parse_text(const std::string& text);

  /// All keys in sorted order (for reproducibility logging).
  std::vector<std::string> keys() const;

  /// Renders "key = value" lines sorted by key.
  std::string to_string() const;

  /// Usage-error text naming the first kRetiredConfigKeys entry that is
  /// set and its reason, or "" when none is. Unknown keys are otherwise
  /// ignored, so parse_run_options checks this first: a stale `procs=2`
  /// must fail, not run serially.
  std::string retired_key_error() const;

 private:
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace flov
