// Shared helpers for the figure-reproduction benches: argument handling and
// table printing. Every bench accepts "key=value" overrides, e.g.
//   bench_fig6_uniform measure=20000 width=8 seed=3 jobs=4
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/run_options.hpp"
#include "sim/sweep.hpp"

namespace flov::bench {

/// Thread-pool width for the sweep, from `jobs=<n>` (0/default = all
/// hardware threads; 1 = the serial reference path).
inline SweepOptions sweep_from_args(int argc, char** argv) {
  Config cfg;
  cfg.parse_args(argc, argv);
  SweepOptions opts;
  opts.jobs = cfg.get_int("jobs", 0);
  return opts;
}

/// Standard synthetic-experiment setup from CLI args (Table-I defaults,
/// paper methodology: 10k warm-up, 100k total cycles): every
/// parse_run_options key, with measure= for the window.
inline SyntheticExperimentConfig synthetic_from_args(int argc, char** argv) {
  Config cfg;
  cfg.parse_args(argc, argv);
  SyntheticExperimentConfig ex = parse_run_options(cfg, {});
  ex.measure = cfg.get_int("measure", ex.measure);
  ex.seed = cfg.get_int("seed", ex.seed);
  return ex;
}

/// The gating fractions of Figs. 6/7/9 (0% .. 80%).
inline std::vector<double> gating_fractions() {
  return {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Optional CSV sink: pass csv=<path> to any figure bench to also dump the
/// raw sweep data (one row per run) for external plotting.
class CsvSink {
 public:
  CsvSink(int argc, char** argv, const char* header) {
    Config cfg;
    cfg.parse_args(argc, argv);
    const std::string path = cfg.get_string("csv", "");
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_) std::fprintf(file_, "%s\n", header);
  }
  ~CsvSink() {
    if (file_) std::fclose(file_);
  }
  CsvSink(const CsvSink&) = delete;
  CsvSink& operator=(const CsvSink&) = delete;

  /// Writes one printf-formatted row.
  template <typename... Args>
  void row(const char* fmt, Args... args) {
    if (!file_) return;
    std::fprintf(file_, fmt, args...);
    std::fprintf(file_, "\n");
  }

 private:
  std::FILE* file_ = nullptr;
};

/// Optional manifest sink: pass manifest=<path> to a figure bench to write
/// a flyover-sweep-manifest-v1 JSON artifact covering the whole sweep —
/// resolved config, per-point metric registries, the deterministic merged
/// registry, and all structured incidents in submission order. The CI
/// determinism gate diffs these between jobs=1 and jobs=4 runs.
class ManifestSink {
 public:
  ManifestSink(int argc, char** argv, const char* bench_name)
      : name_(bench_name), start_(std::chrono::steady_clock::now()) {
    cfg_.parse_args(argc, argv);
    path_ = cfg_.get_string("manifest", "");
    // json= is an accepted alias (used by benches whose primary output is
    // the human table and the manifest is a machine-readable side artifact).
    if (path_.empty()) path_ = cfg_.get_string("json", "");
  }

  bool enabled() const { return !path_.empty(); }

  /// Writes the manifest; call once after run_sweep. `points` and `results`
  /// must be index-aligned (run_sweep keeps submission order). No-op
  /// without manifest=<path>.
  void write(const std::vector<SyntheticExperimentConfig>& points,
             const std::vector<RunResult>& results, const SweepOptions& opts) {
    if (!enabled()) return;
    // No fault echo: the benches set faults per point, not from fault.*.
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start_;
    write_sweep_manifest(path_, name_, manifest_config(cfg_), opts.jobs,
                         wall.count(), points, results);
    std::printf("manifest written to %s\n", path_.c_str());
  }

 private:
  Config cfg_;
  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

/// Appends the standard per-run CSV fields for a synthetic sweep row.
inline void csv_run_row(CsvSink& csv, const char* figure,
                        const char* pattern, double inj, double gated,
                        const RunResult& r) {
  csv.row("%s,%s,%.3f,%.2f,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
          "%d,%llu",
          figure, pattern, inj, gated, r.scheme.c_str(), r.avg_latency,
          r.breakdown.router, r.breakdown.link, r.breakdown.serialization,
          r.breakdown.contention, r.breakdown.flov, r.power.static_mw,
          r.power.dynamic_mw, r.power.total_mw, r.gated_routers_end,
          static_cast<unsigned long long>(r.packets_measured));
}

inline constexpr const char* kCsvHeader =
    "figure,pattern,inj,gated,scheme,latency,router,link,serialization,"
    "contention,flov,static_mw,dynamic_mw,total_mw,gated_routers,packets";

}  // namespace flov::bench
