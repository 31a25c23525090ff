// flov_sweep_cli — parallel, self-healing sweep driver.
//
// Runs the cross product of comma-separated lists over one base
// configuration, on a thread pool, with optional crash resilience: per-point
// retries with backoff, a lossless JSONL checkpoint appended after every
// completed point, and resume= to skip everything the checkpoint already
// holds. A resumed sweep's merged metrics — and its manifest — are
// byte-identical to the uninterrupted sweep (CI enforces this with a
// kill-and-resume diff).
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
//   warmup= cycles= timeline= drain= sim.max_cycles_hard= threads= tiles=
//   jobs=N retries=N retry_backoff_ms=N checkpoint=path resume=0|1
//   manifest=path                      flyover-sweep-manifest-v1
//   progress=1                         deterministic stderr progress lines
//                                      (points done/total + checkpoint
//                                      path; off by default)
//   serve=port ops_stream=path         live ops plane (campaign mode; see
//                                      docs/OBSERVABILITY.md) — never
//                                      affects results or the manifest
//   plus any noc.* / energy.* / fault.* / verify.* / telemetry.* key.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "fault/fault_model.hpp"
#include "sim/certify.hpp"
#include "sim/sweep.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"

namespace {

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(s.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  if (const std::string err = cfg.retired_key_error(); !err.empty()) {
    std::fprintf(stderr, "flov_sweep_cli: %s\n", err.c_str());
    return 1;
  }

  SyntheticExperimentConfig base;
  base.noc = NocParams::from_config(cfg);
  base.noc.step_threads =
      static_cast<int>(cfg.get_int("threads", base.noc.step_threads));
  base.noc.apply_tiles_shorthand(cfg.get_string("tiles", ""));
  base.energy = EnergyParams::from_config(cfg);
  base.warmup = cfg.get_int("warmup", 10000);
  base.measure = cfg.get_int("cycles", 40000);
  base.timeline_window = cfg.get_int("timeline", 0);
  base.drain_max = cfg.get_int("drain", 0);
  base.max_cycles_hard = cfg.get_int("sim.max_cycles_hard", 0);
  base.faults = FaultParams::from_config(cfg);
  base.verifier = VerifierOptions::from_config(cfg);
  base.verify = cfg.get_bool("verify", base.verify);
  base.telemetry = telemetry::TelemetryOptions::from_config(cfg);

  const auto schemes = split_list(cfg.get_string("schemes", "gflov"));
  const auto patterns = split_list(cfg.get_string("patterns", "uniform"));
  const auto injs = split_list(cfg.get_string("inj", "0.02"));
  const auto gateds = split_list(cfg.get_string("gated", "0.0"));
  // Replication axis: reps=N expands to N seeds derived from seed_base the
  // same way the certification harness derives them — a hand-run sweep
  // over reps= and a certify campaign over the same base hit identical
  // per-replication configs (and hence identical checkpoint fingerprints).
  std::vector<std::string> seeds;
  const auto reps = static_cast<std::uint64_t>(cfg.get_int("reps", 0));
  if (reps > 0) {
    const auto seed_base =
        static_cast<std::uint64_t>(cfg.get_int("seed_base", 1));
    for (std::uint64_t i = 0; i < reps; ++i) {
      seeds.push_back(std::to_string(derive_replication_seed(seed_base, i)));
    }
  } else {
    seeds = split_list(cfg.get_string("seeds", "1"));
  }

  std::vector<SyntheticExperimentConfig> points;
  for (const auto& sc : schemes) {
    for (const auto& pat : patterns) {
      for (const auto& inj : injs) {
        for (const auto& gf : gateds) {
          for (const auto& sd : seeds) {
            SyntheticExperimentConfig p = base;
            p.scheme = scheme_from_string(sc);
            p.pattern = pat;
            p.inj_rate_flits = std::stod(inj);
            p.gated_fraction = std::stod(gf);
            p.seed = std::stoull(sd);
            points.push_back(std::move(p));
          }
        }
      }
    }
  }

  SweepOptions opts;
  opts.jobs = static_cast<int>(cfg.get_int("jobs", 0));
  opts.retries = static_cast<int>(cfg.get_int("retries", 0));
  opts.retry_backoff_ms =
      static_cast<int>(cfg.get_int("retry_backoff_ms", 100));
  opts.checkpoint_path = cfg.get_string("checkpoint", "");
  opts.resume = cfg.get_bool("resume", false);

  // Campaign-mode ops plane: /metrics and /snapshot track points folded.
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ops_plane->begin_campaign("sweep", points.size(), opts.checkpoint_path);
  }
  // Deterministic progress lines: full lines (no \r animation), identical
  // content for a given done/total, so logs diff cleanly across jobs= and
  // kill-and-resume runs. Off by default to keep batch stderr quiet.
  const bool show_progress = cfg.get_bool("progress", false);
  if (show_progress || ops_plane != nullptr) {
    ops::OpsPlane* plane = ops_plane.get();
    const std::string ckpt = opts.checkpoint_path;
    opts.progress = [show_progress, plane, ckpt](int done, int total) {
      if (plane != nullptr) {
        plane->campaign_progress(static_cast<std::uint64_t>(done));
      }
      if (show_progress) {
        std::fprintf(stderr, "[sweep] %d/%d points%s%s\n", done, total,
                     ckpt.empty() ? "" : " checkpoint=",
                     ckpt.empty() ? "" : ckpt.c_str());
      }
    };
  }

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
    const telemetry::MetricsRegistry merged = merge_sweep_metrics(results);
    telemetry::StructuredSink all_incidents;
    for (const RunResult& r : results) {
      if (!r.incidents) continue;
      for (const std::string& rec : r.incidents->records()) {
        all_incidents.add(rec);
      }
    }
    telemetry::SweepManifest m;
    m.name = "flov_sweep_cli";
    // The manifest config must not carry the runner's own plumbing keys:
    // a resumed sweep (resume=1, checkpoint=...) must emit a manifest
    // byte-identical to the uninterrupted sweep's — and the ops plane /
    // progress lines must leave it byte-identical to an ops-free sweep.
    Config mcfg;
    for (const std::string& k : cfg.keys()) {
      if (k == "resume" || k == "checkpoint" || k == "retries" ||
          k == "retry_backoff_ms" || k == "jobs" || k == "progress" ||
          k == "serve" || k == "ops_stream" || k == "profile" ||
          k == "profile_out" || k == "ops.period") {
        continue;
      }
      mcfg.set(k, cfg.get_string(k));
    }
    base.faults.echo_to_config(mcfg);
    m.config = mcfg;
    m.jobs = opts.jobs;
    m.wall_seconds = wall_seconds;
    for (std::size_t i = 0; i < points.size(); ++i) {
      telemetry::SweepPointEntry e;
      e.scheme = to_string(points[i].scheme);
      e.pattern = points[i].pattern;
      e.inj_rate = points[i].inj_rate_flits;
      e.gated_fraction = points[i].gated_fraction;
      e.seed = points[i].seed;
      e.metrics = results[i].metrics.get();
      m.points.push_back(e);
    }
    m.merged = &merged;
    m.incidents = &all_incidents;
    m.write(manifest_out);
    std::printf("manifest: %s\n", manifest_out.c_str());
  }
  return 0;
}
