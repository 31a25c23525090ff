// flov_sim_cli — general-purpose simulation driver (BookSim-style).
//
// Runs one fully-configurable synthetic experiment and prints every metric
// the harness collects; optionally emits the latency-vs-time series.
// Example:
//   flov_sim_cli scheme=gflov pattern=tornado inj=0.04 gated=0.6
//                noc.width=16 noc.height=16 warmup=5000 cycles=50000
//                timeline=1000 seed=3
// Run with --help for the full knob list.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/config.hpp"
#include "fault/fault_model.hpp"
#include "sim/experiment.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"

namespace {

void print_usage() {
  std::printf(
      "flov_sim_cli key=value ...\n"
      "\n"
      "Core:\n"
      "  scheme=baseline|rp|rflov|gflov   power-gating scheme (gflov)\n"
      "  pattern=uniform|tornado|...      synthetic traffic pattern\n"
      "  inj=<flits/node/cycle>           injection rate (0.02)\n"
      "  gated=<0..1>                     fraction of gateable routers off\n"
      "  warmup=<cycles> cycles=<cycles>  warm-up / measurement window\n"
      "  seed=<n>  timeline=<window>  changes=<c1,c2,...>\n"
      "  threads=<n>                      intra-run domain workers "
      "(volatile)\n"
      "  tiles=<TX>x<TY>                  explicit tile-domain grid, e.g.\n"
      "                                   tiles=2x4 (volatile; default "
      "auto)\n"
      "\n"
      "Simulation bounds (PROTOCOL.md \xc2\xa7" "8):\n"
      "  drain=<cycles>             post-run drain budget: keep stepping\n"
      "                             until every reliable flow is acked or\n"
      "                             declared dead (0 = off)\n"
      "  sim.max_cycles_hard=<n>    hard cycle cap; exceeding it aborts\n"
      "                             with a structured incident + partial\n"
      "                             stats instead of a process abort\n"
      "\n"
      "Exit codes: 0 = run completed; 1 = usage/config error (including\n"
      "  a removed knob such as procs=) or ordinary failure.\n"
      "\n"
      "Reliable delivery (noc.reliable=1, PROTOCOL.md \xc2\xa7" "8):\n"
      "  noc.reliable=0|1           per-flow seq numbers, retransmit\n"
      "                             buffer, ack piggyback + 1-flit acks\n"
      "  noc.retx_timeout=<cycles>  base retransmit timeout (512)\n"
      "  noc.retx_backoff_cap=<n>   retry n waits timeout<<min(n,cap) (3)\n"
      "  noc.retx_limit=<n>         retries before declared dead (4)\n"
      "  noc.ack_delay=<cycles>     piggyback grace before a 1-flit ack "
      "(8)\n"
      "\n"
      "Fault injection (fault.*; all default 0 = fault-free):\n"
      "  fault.signal_drop_rate=<p>     drop a handshake signal per hop\n"
      "  fault.signal_delay_rate=<p>    delay a handshake signal per hop\n"
      "  fault.signal_delay_max=<c>     max extra signal delay (4)\n"
      "  fault.signal_dup_rate=<p>      duplicate a handshake signal\n"
      "  fault.flit_drop_rate=<p>       drop a flit per link traversal\n"
      "  fault.flit_delay_rate=<p>      delay a flit per link traversal\n"
      "  fault.flit_delay_max=<c>       max extra flit delay (4)\n"
      "  fault.spurious_wakeup_rate=<p> spurious WakeupTrigger per cycle\n"
      "  fault.hard_router_pct=<p>      routers that die at hard_at_cycle\n"
      "  fault.hard_link_pct=<p>        directed links that die there\n"
      "  fault.hard_at_cycle=<c>        death cycle (0 disarms hard "
      "faults)\n"
      "  fault.seed=<n>                 fate-hash seed (1)\n"
      "\n"
      "Also accepted: any NocParams (noc.*), EnergyParams (energy.*),\n"
      "VerifierOptions (verify.*) or telemetry (telemetry.*) key.\n"
      "\n"
      "Outputs:\n"
      "  telemetry.trace=all trace_out=run.trace.json  Perfetto trace\n"
      "  manifest=run.json             flyover-run-manifest-v1 (resolved\n"
      "                                fault.* knobs echoed into config)\n"
      "  incidents_out=run.incidents.json              incident log\n"
      "\n"
      "Ops plane (docs/OBSERVABILITY.md; never affects results/manifests):\n"
      "  serve=<port>               embedded HTTP server on 127.0.0.1\n"
      "                             (/metrics /snapshot /heatmap /healthz;\n"
      "                             0 = ephemeral, port printed to stderr)\n"
      "  ops_stream=<path>          JSONL flight recorder: one\n"
      "                             flyover-snapshot-v1 object per fold\n"
      "  ops.period=<cycles>        cycles between snapshot folds (4096)\n"
      "  profile=1                  wall-clock phase profiler (needs a\n"
      "                             FLYOVER_PROFILING build; report to\n"
      "                             stderr) profile_out=<path> for JSON\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flov;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0 || std::strcmp(argv[i], "help") == 0) {
      print_usage();
      return 0;
    }
  }
  Config cfg;
  cfg.parse_args(argc, argv);
  if (const std::string err = cfg.retired_key_error(); !err.empty()) {
    std::fprintf(stderr, "flov_sim_cli: %s\n", err.c_str());
    return 1;
  }

  SyntheticExperimentConfig ex;
  ex.noc = NocParams::from_config(cfg);
  // threads= is shorthand for noc.step_threads=, tiles=TXxTY for
  // noc.step_tiles_x/y= (intra-run domain workers / explicit tile grid;
  // bit-identical results at any value — see docs/PERFORMANCE.md).
  ex.noc.step_threads =
      static_cast<int>(cfg.get_int("threads", ex.noc.step_threads));
  ex.noc.apply_tiles_shorthand(cfg.get_string("tiles", ""));
  ex.energy = EnergyParams::from_config(cfg);
  ex.scheme = scheme_from_string(cfg.get_string("scheme", "gflov"));
  ex.pattern = cfg.get_string("pattern", "uniform");
  ex.inj_rate_flits = cfg.get_double("inj", 0.02);
  ex.gated_fraction = cfg.get_double("gated", 0.0);
  ex.warmup = cfg.get_int("warmup", 10000);
  ex.measure = cfg.get_int("cycles", 90000);
  ex.seed = cfg.get_int("seed", 1);
  ex.timeline_window = cfg.get_int("timeline", 0);
  ex.drain_max = cfg.get_int("drain", 0);
  ex.max_cycles_hard = cfg.get_int("sim.max_cycles_hard", 0);
  ex.faults = FaultParams::from_config(cfg);
  ex.verifier = VerifierOptions::from_config(cfg);
  ex.verify = cfg.get_bool("verify", ex.verify);
  ex.telemetry = telemetry::TelemetryOptions::from_config(cfg);
  const std::string trace_out = cfg.get_string("trace_out", "");
  const std::string manifest_out = cfg.get_string("manifest", "");
  const std::string incidents_out = cfg.get_string("incidents_out", "");
  if (!trace_out.empty() && ex.telemetry.trace_mask == 0) {
    ex.telemetry.trace_mask = telemetry::kTraceAll;  // implied by trace_out=
  }
  if (cfg.has("changes")) {
    // comma-separated gating change points, e.g. changes=50000,60000
    const std::string s = cfg.get_string("changes");
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok = s.substr(pos, comma - pos);
      ex.gating_changes.push_back(std::stoull(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  // Ops plane: constructed only when requested — the disabled path adds a
  // single null check per cycle inside run_synthetic and nothing else.
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ex.ops = ops_plane.get();
  }
  // Binds the phase profiler (if any) to this thread for the run; workers
  // inherit it per-domain through Network::step.
  telemetry::ProfileScope profile_scope(
      ops_plane ? ops_plane->profiler() : nullptr, 0);

  std::printf("flov_sim: %s | %dx%d mesh | %s | inj %.4f flits/node/cycle | "
              "%.0f%% gated | seed %llu\n",
              to_string(ex.scheme), ex.noc.width, ex.noc.height,
              ex.pattern.c_str(), ex.inj_rate_flits,
              100 * ex.gated_fraction,
              static_cast<unsigned long long>(ex.seed));

  const auto wall_start = std::chrono::steady_clock::now();
  const RunResult r = run_synthetic(ex);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (ops_plane) ops_plane->finish_profile(stderr);

  std::printf("\npackets measured      : %llu (generated %llu)\n",
              static_cast<unsigned long long>(r.packets_measured),
              static_cast<unsigned long long>(r.packets_generated));
  std::printf("flits injected/ejected: %llu / %llu\n",
              static_cast<unsigned long long>(r.injected_flits),
              static_cast<unsigned long long>(r.ejected_flits));
  std::printf("avg packet latency    : %.2f cycles (p50 %.1f, p99 %.1f)\n",
              r.avg_latency, r.p50_latency, r.p99_latency);
  std::printf("  router / link / serial / contention / FLOV = "
              "%.2f / %.2f / %.2f / %.2f / %.2f\n",
              r.breakdown.router, r.breakdown.link, r.breakdown.serialization,
              r.breakdown.contention, r.breakdown.flov);
  std::printf("power                 : %.2f mW static + %.2f mW dynamic = "
              "%.2f mW\n",
              r.power.static_mw, r.power.dynamic_mw, r.power.total_mw);
  std::printf("energy (window)       : %.3f uJ (%.3f uJ static)\n",
              r.power.total_energy_pj * 1e-6, r.power.static_energy_pj * 1e-6);
  std::printf("gated routers         : %d at end, %.2f time-average\n",
              r.gated_routers_end, r.avg_gated_routers);
  if (r.protocol_sleeps || r.protocol_wakeups) {
    std::printf("handshake activity    : %llu sleeps, %llu wakeups\n",
                static_cast<unsigned long long>(r.protocol_sleeps),
                static_cast<unsigned long long>(r.protocol_wakeups));
  }
  if (r.escape_packets) {
    std::printf("escape-network packets: %llu\n",
                static_cast<unsigned long long>(r.escape_packets));
  }
  if (ex.faults.any()) {
    std::printf("fault recovery        : %llu hs resends, %llu trigger "
                "re-fires, %llu watchdog recoveries, %llu self-captures, "
                "%llu flits dropped\n",
                static_cast<unsigned long long>(r.hs_resends),
                static_cast<unsigned long long>(r.trigger_resends),
                static_cast<unsigned long long>(r.watchdog_recoveries),
                static_cast<unsigned long long>(r.self_captures),
                static_cast<unsigned long long>(r.flits_dropped_by_faults));
  }
  if (ex.noc.reliable) {
    std::printf("reliable delivery     : %llu acked, %llu dead, %llu "
                "retransmits, %llu dup-suppressed, %llu purged, %llu "
                "killed-at-source\n",
                static_cast<unsigned long long>(r.packets_acked),
                static_cast<unsigned long long>(r.packets_dead),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.dup_packets),
                static_cast<unsigned long long>(r.packets_purged),
                static_cast<unsigned long long>(r.killed_at_source));
  }
  if (r.dead_routers || r.dead_links) {
    std::printf("hard faults           : %d dead routers, %d dead links, "
                "%llu wake requests dropped\n",
                r.dead_routers, r.dead_links,
                static_cast<unsigned long long>(r.wake_requests_dropped));
  }
  if (r.aborted) {
    std::printf("ABORTED at cycle %llu (sim.max_cycles_hard); stats are "
                "partial\n",
                static_cast<unsigned long long>(r.cycles_run));
  }
  if (ex.verify) {
    std::printf("invariant verifier    : %llu checks, %llu violations\n",
                static_cast<unsigned long long>(r.verifier_checks),
                static_cast<unsigned long long>(r.verifier_violations));
  }
  if (!r.timeline.empty()) {
    std::printf("\nlatency timeline (window %llu):\n",
                static_cast<unsigned long long>(ex.timeline_window));
    for (const auto& p : r.timeline) {
      std::printf("  %8llu %10.2f  (%llu pkts)\n",
                  static_cast<unsigned long long>(p.window_start), p.mean,
                  static_cast<unsigned long long>(p.count));
    }
  }

  if (!trace_out.empty()) {
    if (r.trace) {
      r.trace->write_chrome_trace(trace_out);
      std::printf("\ntrace: %llu events -> %s (%llu overwritten)\n",
                  static_cast<unsigned long long>(r.trace->size()),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(r.trace->overwritten()));
    } else {
      std::printf("\ntrace: not recorded (build has FLYOVER_TRACING off "
                  "or telemetry.trace empty)\n");
    }
  }
  if (!incidents_out.empty() && r.incidents) {
    r.incidents->write(incidents_out);
    std::printf("incidents: %llu -> %s\n",
                static_cast<unsigned long long>(r.incidents->size()),
                incidents_out.c_str());
  }
  if (!manifest_out.empty()) {
    telemetry::RunManifest m;
    m.name = "flov_sim_cli";
    m.scheme = r.scheme;
    // Echo every resolved fault.* knob (including defaulted ones) into the
    // manifest's config so two runs can never silently differ on one.
    // Ops-plane keys are stripped first: serving /metrics or profiling a
    // run must leave its manifest byte-identical to a plain run's.
    Config mcfg;
    for (const std::string& k : cfg.keys()) {
      if (k == "serve" || k == "ops_stream" || k == "profile" ||
          k == "profile_out" || k == "ops.period") {
        continue;
      }
      mcfg.set(k, cfg.get_string(k));
    }
    ex.faults.echo_to_config(mcfg);
    m.config = mcfg;
    m.seed = ex.seed;
    m.wall_seconds = wall_seconds;
    m.trace_path = trace_out;
    m.metrics = r.metrics.get();
    m.incidents = r.incidents.get();
    m.write(manifest_out);
    std::printf("manifest: %s\n", manifest_out.c_str());
  }
  return 0;
}
