// flov_certify_cli — Monte-Carlo reliability certification driver.
//
// Replicates ONE experiment configuration across derived seeds until a
// sequential stopping rule resolves (SPRT against a target reliability
// and/or a CI half-width bound) or the hard replication cap is hit, then
// emits a flyover-certificate-v1 manifest with statistically certified
// bounds ("delivery >= 0.95 at 95% confidence under fault model F").
//
//   flov_certify_cli scheme=gflov k=8 gated=0.3 inj=0.05
//                    fault.hard_router_pct=0.03 fault.hard_at_cycle=1800
//                    fault.seed=17 vary_faults=0
//                    metric=delivery confidence=0.95 target=0.9
//                    max_reps=200 batch=20 jobs=4
//                    checkpoint=cert.ckpt.jsonl certificate=cert.json
//   ...killed...
//   flov_certify_cli <same args> resume=1   # continues the campaign
//
// Keys:
//   scheme= pattern= inj= gated= k= warmup= cycles= drain=
//   sim.max_cycles_hard= threads= tiles= plus any noc.*/energy.*/fault.*/
//   verify.*/telemetry.* key (noc.reliable defaults ON here: delivery
//   certification needs the packet accounting).
//   metric=delivery|clean_delivery|run_survival confidence=0.95
//   target=P indifference=E half_width=W interval=wilson|clopper-pearson
//   min_reps= max_reps= batch= seed_base= vary_faults=0|1
//   jobs=N retries=N retry_backoff_ms=N checkpoint=path resume=0|1
//   certificate=path name=...
//   progress=1                  deterministic stderr progress lines (reps
//                               folded / cap + checkpoint; off by default)
//   serve=port ops_stream=path  live ops plane (campaign mode; see
//                               docs/OBSERVABILITY.md) — never affects
//                               results or the certificate
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "fault/fault_model.hpp"
#include "sim/certify.hpp"
#include "sim/checkpoint.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  if (const std::string err = cfg.retired_key_error(); !err.empty()) {
    std::fprintf(stderr, "flov_certify_cli: %s\n", err.c_str());
    return 1;
  }

  SyntheticExperimentConfig base;
  base.noc = NocParams::from_config(cfg);
  // Certification is about delivery: the reliable layer's packet
  // accounting (acked/dead/purged) IS the Bernoulli trial. Default it on;
  // an explicit noc.reliable=0 still wins (run_survival campaigns).
  if (!cfg.has("noc.reliable")) base.noc.reliable = true;
  base.noc.step_threads =
      static_cast<int>(cfg.get_int("threads", base.noc.step_threads));
  base.noc.apply_tiles_shorthand(cfg.get_string("tiles", ""));
  if (cfg.has("k")) {
    base.noc.width = static_cast<int>(cfg.get_int("k"));
    base.noc.height = base.noc.width;
  }
  base.energy = EnergyParams::from_config(cfg);
  base.scheme = scheme_from_string(cfg.get_string("scheme", "gflov"));
  base.pattern = cfg.get_string("pattern", "uniform");
  base.inj_rate_flits = cfg.get_double("inj", 0.02);
  base.gated_fraction = cfg.get_double("gated", 0.0);
  base.warmup = cfg.get_int("warmup", 500);
  base.measure = cfg.get_int("cycles", 2500);
  base.drain_max = cfg.get_int("drain", 30000);
  base.max_cycles_hard = cfg.get_int("sim.max_cycles_hard", 200000);
  base.faults = FaultParams::from_config(cfg);
  base.verifier = VerifierOptions::from_config(cfg);
  // A fatal verifier would abort the whole campaign on one bad
  // replication; certification counts violations instead.
  if (!cfg.has("verify.fatal")) base.verifier.fatal = false;
  base.verify = cfg.get_bool("verify", base.verify);
  base.telemetry = telemetry::TelemetryOptions::from_config(cfg);

  CertifyOptions opts;
  opts.metric = cfg.get_string("metric", "delivery");
  opts.confidence = cfg.get_double("confidence", 0.95);
  opts.target = cfg.get_double("target", 0.0);
  opts.indifference = cfg.get_double("indifference", 0.01);
  opts.half_width_stop = cfg.get_double("half_width", 0.0);
  opts.interval = cfg.get_string("interval", "wilson");
  opts.min_replications =
      static_cast<std::uint64_t>(cfg.get_int("min_reps", 64));
  opts.max_replications =
      static_cast<std::uint64_t>(cfg.get_int("max_reps", 1024));
  if (opts.min_replications > opts.max_replications) {
    opts.min_replications = opts.max_replications;
  }
  opts.batch = static_cast<std::uint64_t>(cfg.get_int("batch", 32));
  opts.seed_base = static_cast<std::uint64_t>(cfg.get_int("seed_base", 1));
  opts.vary_faults = cfg.get_bool("vary_faults", true);
  opts.jobs = static_cast<int>(cfg.get_int("jobs", 1));
  opts.retries = static_cast<int>(cfg.get_int("retries", 0));
  opts.retry_backoff_ms =
      static_cast<int>(cfg.get_int("retry_backoff_ms", 100));
  opts.checkpoint_path = cfg.get_string("checkpoint", "");
  opts.resume = cfg.get_bool("resume", false);

  // Campaign-mode ops plane: /metrics and /snapshot track replications
  // folded into the stopping rule.
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ops_plane->begin_campaign("certify", opts.max_replications,
                              opts.checkpoint_path);
  }
  // Deterministic progress lines (full lines, identical content for a
  // given done/cap) gated behind progress=; off by default.
  const bool show_progress = cfg.get_bool("progress", false);
  if (show_progress || ops_plane != nullptr) {
    ops::OpsPlane* plane = ops_plane.get();
    const std::string ckpt = opts.checkpoint_path;
    opts.progress = [show_progress, plane, ckpt](std::uint64_t done,
                                                 std::uint64_t cap) {
      if (plane != nullptr) plane->campaign_progress(done);
      if (show_progress) {
        std::fprintf(stderr, "[certify] %llu/%llu reps%s%s\n",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(cap),
                     ckpt.empty() ? "" : " checkpoint=",
                     ckpt.empty() ? "" : ckpt.c_str());
      }
    };
  }

  std::printf(
      "flov_certify: metric=%s confidence=%.3f target=%.4f cap=%llu "
      "batch=%llu%s\n",
      opts.metric.c_str(), opts.confidence, opts.target,
      static_cast<unsigned long long>(opts.max_replications),
      static_cast<unsigned long long>(opts.batch),
      opts.resume ? " [resume]" : "");

  const auto wall_start = std::chrono::steady_clock::now();
  const CertifyResult res = run_certification(base, opts);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf("%-15s %10s %10s %8s %18s %18s\n", "metric", "successes",
              "trials", "point", "wilson[lo,hi]", "cp[lo,hi]");
  for (const CertifyEstimate& e : res.estimates) {
    std::printf("%-15s %10llu %10llu %8.5f [%.5f, %.5f] [%.5f, %.5f]\n",
                e.metric.c_str(),
                static_cast<unsigned long long>(e.successes),
                static_cast<unsigned long long>(e.trials), e.point,
                e.wilson.lower, e.wilson.upper, e.clopper_pearson.lower,
                e.clopper_pearson.upper);
  }
  std::printf("stop: %s after %llu/%llu replications (%.1fs)\n",
              res.stop_reason.c_str(),
              static_cast<unsigned long long>(res.replications),
              static_cast<unsigned long long>(opts.max_replications),
              wall_seconds);

  const std::string cert_out = cfg.get_string("certificate", "");
  if (!cert_out.empty()) {
    telemetry::CertificateManifest m;
    m.name = cfg.get_string("name", "flov_certify_cli");
    // Strip the runner's own plumbing keys so jobs=N / kill-and-resume
    // emit byte-identical certificates (jobs and wall_seconds remain as
    // the schema's dedicated volatile fields).
    Config mcfg;
    for (const std::string& k : cfg.keys()) {
      if (k == "resume" || k == "checkpoint" || k == "retries" ||
          k == "retry_backoff_ms" || k == "jobs" || k == "certificate" ||
          k == "threads" || k == "progress" || k == "serve" ||
          k == "ops_stream" || k == "profile" || k == "profile_out" ||
          k == "ops.period") {
        continue;
      }
      mcfg.set(k, cfg.get_string(k));
    }
    base.faults.echo_to_config(mcfg);
    m.config = mcfg;
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      sweep_point_fingerprint(base)));
    m.config_fingerprint = fp;
    m.seed_base = opts.seed_base;
    m.replications = res.replications;
    m.max_replications = opts.max_replications;
    m.confidence = opts.confidence;
    m.target_metric = opts.metric;
    m.target = opts.target;
    m.stop_reason = res.stop_reason;
    m.jobs = opts.jobs;
    m.wall_seconds = wall_seconds;
    for (const CertifyEstimate& e : res.estimates) {
      telemetry::CertifiedMetric cm;
      cm.name = e.metric;
      cm.successes = e.successes;
      cm.trials = e.trials;
      cm.point = e.point;
      cm.wilson_lower = e.wilson.lower;
      cm.wilson_upper = e.wilson.upper;
      cm.clopper_pearson_lower = e.clopper_pearson.lower;
      cm.clopper_pearson_upper = e.clopper_pearson.upper;
      m.metrics.push_back(cm);
    }
    m.write(cert_out);
    std::printf("certificate: %s\n", cert_out.c_str());
  }
  return 0;
}
