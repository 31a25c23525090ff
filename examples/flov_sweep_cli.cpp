// flov_sweep_cli — parallel, self-healing sweep driver.
//
// Runs the cross product of comma-separated lists over one base
// configuration, on a thread pool, with optional crash resilience: a
// lossless JSONL checkpoint appended after every completed point, and
// resume= to skip everything the checkpoint already holds. A resumed
// sweep's merged metrics — and its manifest — are byte-identical to the
// uninterrupted sweep (CI enforces this with a kill-and-resume diff).
//
//   flov_sweep_cli schemes=baseline,rp,rflov,gflov inj=0.02,0.06
//                  gated=0.0,0.4 cycles=20000 jobs=4
//                  checkpoint=sweep.ckpt.jsonl manifest=sweep.json
//   ...killed...
//   flov_sweep_cli <same args> resume=1      # re-runs only missing points
//
// Keys:
//   schemes=a,b,...  patterns=a,b,...  inj=x,y,...  gated=x,y,...
//   seeds=n,m,...                      (each list defaults to one value)
//   reps=N seed_base=S                 replication axis: N seeds derived
//                                      from S via derive_replication_seed
//                                      (overrides seeds=; what the certify
//                                      harness builds on)
//   jobs=N checkpoint=path resume=0|1
//   manifest=path                      flyover-sweep-manifest-v1
//   progress=1                         deterministic stderr progress lines
//                                      (points done/total + checkpoint
//                                      path; off by default)
//   serve=port ops_stream=path         live ops plane (campaign mode; see
//                                      docs/OBSERVABILITY.md) — never
//                                      affects results or the manifest
//   plus every shared run-option key (parse_run_options in
//   src/sim/run_options.hpp: warmup= cycles= threads= noc.* fault.* ...).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/certify.hpp"
#include "sim/run_options.hpp"
#include "sim/sweep.hpp"
#include "telemetry/ops/ops_plane.hpp"

int main(int argc, char** argv) try {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  const SyntheticExperimentConfig base =
      parse_run_options(cfg, sweep_cli_base());
  const auto schemes = cfg.get_list("schemes", "gflov");
  const auto patterns = cfg.get_list("patterns", "uniform");
  const auto injs = cfg.get_double_list("inj", "0.02");
  const auto gateds = cfg.get_double_list("gated", "0.0");
  // Replication axis: reps=N expands to N seeds derived from seed_base the
  // same way the certification harness derives them — a hand-run sweep
  // over reps= and a certify campaign over the same base hit identical
  // per-replication configs (and hence identical checkpoint fingerprints).
  std::vector<std::uint64_t> seeds;
  const auto reps = static_cast<std::uint64_t>(cfg.get_int("reps", 0));
  if (reps > 0) {
    const std::uint64_t seed_base = cfg.get_int("seed_base", 1);
    for (std::uint64_t i = 0; i < reps; ++i) {
      seeds.push_back(derive_replication_seed(seed_base, i));
    }
  } else {
    for (const auto sd : cfg.get_int_list("seeds", "1")) seeds.push_back(sd);
  }

  std::vector<SyntheticExperimentConfig> points;
  for (const auto& sc : schemes) {
    for (const auto& pat : patterns) {
      for (const double inj : injs) {
        for (const double gf : gateds) {
          for (const std::uint64_t sd : seeds) {
            SyntheticExperimentConfig p = base;
            p.scheme = scheme_from_string(sc);
            p.pattern = pat;
            p.inj_rate_flits = inj;
            p.gated_fraction = gf;
            p.seed = sd;
            points.push_back(std::move(p));
          }
        }
      }
    }
  }

  SweepOptions opts;
  opts.jobs = static_cast<int>(cfg.get_int("jobs", 0));
  opts.checkpoint_path = cfg.get_string("checkpoint", "");
  opts.resume = cfg.get_bool("resume", false);

  // Campaign-mode ops plane (/metrics and /snapshot track points folded)
  // and progress= lines.
  const ops::CampaignReport report = ops::start_campaign(
      cfg, "sweep", "points", points.size(), opts.checkpoint_path);
  if (report.progress) opts.progress = report.progress;

  std::printf("flov_sweep: %zu points (%zu schemes x %zu patterns x %zu inj "
              "x %zu gated x %zu seeds)%s\n",
              points.size(), schemes.size(), patterns.size(), injs.size(),
              gateds.size(), seeds.size(), opts.resume ? " [resume]" : "");

  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<RunResult> results = run_sweep(points, opts);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf("%-9s %-9s %6s %6s %5s | %9s %9s %9s %6s\n", "scheme",
              "pattern", "inj", "gated", "seed", "latency", "total_mW",
              "pkts", "dead");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto& r = results[i];
    std::printf("%-9s %-9s %6.3f %6.2f %5llu | %9.2f %9.2f %9llu %6llu%s\n",
                to_string(p.scheme), p.pattern.c_str(), p.inj_rate_flits,
                p.gated_fraction, static_cast<unsigned long long>(p.seed),
                r.avg_latency, r.power.total_mw,
                static_cast<unsigned long long>(r.packets_measured),
                static_cast<unsigned long long>(r.packets_dead),
                r.aborted ? " ABORTED" : "");
  }

  const std::string manifest_out = cfg.get_string("manifest", "");
  if (!manifest_out.empty()) {
    write_sweep_manifest(manifest_out, "flov_sweep_cli",
                         manifest_config(cfg, &base.faults), opts.jobs,
                         wall_seconds, points, results);
    std::printf("manifest: %s\n", manifest_out.c_str());
  }
  return 0;
} catch (const flov::ConfigError& e) {
  std::fprintf(stderr, "flov_sweep_cli: %s\n", e.what());
  return 1;
}
