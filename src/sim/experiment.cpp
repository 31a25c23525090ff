#include "sim/experiment.hpp"

#include <cstdio>
#include <memory>

#include "common/log.hpp"
#include "fault/fault_injector.hpp"
#include "noc/router.hpp"
#include "telemetry/json.hpp"
#include "telemetry/ops/ops_plane.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {

namespace {

/// Machine-parseable twin of the watchdog's stderr dump: one incident
/// object with every router that holds flits or is not plainly powered
/// (coordinates, datapath mode, protocol state, occupancy).
void record_stall_incident(const NocSystem& sys,
                           telemetry::StructuredSink& sink, Cycle now,
                           Cycle stalled_for, bool recovered) {
  const Network& net = sys.network();
  const bool fsm = sys.has_power_fsm();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", "watchdog_stall");
  w.kv("scheme", sys.name());
  w.kv("cycle", static_cast<std::uint64_t>(now));
  w.kv("stalled_cycles", static_cast<std::uint64_t>(stalled_for));
  w.kv("recovery_attempted", recovered);
  w.key("routers");
  w.begin_array();
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Router& r = net.router(id);
    const int flits = r.buffered_flits();
    const RouterMode m = r.mode();
    const auto ps = static_cast<PowerState>(sys.power_state_code(id));
    if (flits == 0 && m == RouterMode::kPipeline &&
        ps == PowerState::kActive) {
      continue;
    }
    const Coord c = net.geom().coord(id);
    w.begin_object();
    w.kv("router", id);
    w.kv("x", c.x);
    w.kv("y", c.y);
    w.kv("mode", to_string(m));
    if (fsm) w.kv("power_state", to_string(ps));
    w.kv("buffered_flits", flits);
    w.end_object();
  }
  w.end_array();
  w.kv("queued_packets", net.total_queued_packets());
  w.kv("in_network_flits", net.in_network_flits());
  w.end_object();
  sink.add(w.take());
}

/// Cycle-budget incident ("hard_cycle_cap" when sim.max_cycles_hard fires,
/// "drain_exhausted" when the post-run drain budget runs out): where the
/// run stood when the budget died, so partial stats can be interpreted.
void record_budget_incident(NocSystem& sys, telemetry::StructuredSink& sink,
                            const char* kind, Cycle now, Cycle budget) {
  Network& net = sys.network();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", kind);
  w.kv("scheme", sys.name());
  w.kv("cycle", static_cast<std::uint64_t>(now));
  w.kv("budget", static_cast<std::uint64_t>(budget));
  w.kv("queued_packets", net.total_queued_packets());
  w.kv("in_network_flits", net.in_network_flits());
  w.end_object();
  sink.add(w.take());
}

/// One "packet_dead" incident per flow that exhausted its retries, in
/// node-id order (deterministic across thread counts), capped so a run
/// where a hot node's whole neighborhood died cannot bloat the manifest.
/// The aggregate count always lands in run.packets_dead.
void record_dead_packets(Network& net, telemetry::StructuredSink& sink) {
  constexpr std::size_t kMaxDeadIncidents = 200;
  std::size_t emitted = 0;
  std::uint64_t suppressed = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (const DeadPacket& d : net.ni(id).dead_log()) {
      if (emitted >= kMaxDeadIncidents) {
        suppressed++;
        continue;
      }
      telemetry::JsonWriter w;
      w.begin_object();
      w.kv("kind", "packet_dead");
      w.kv("src", d.pkt.src);
      w.kv("dest", d.pkt.dest);
      w.kv("seq", static_cast<std::uint64_t>(d.seq));
      w.kv("size_flits", d.pkt.size_flits);
      w.kv("retries", d.retries);
      w.kv("declared_at", static_cast<std::uint64_t>(d.declared_at));
      w.end_object();
      sink.add(w.take());
      emitted++;
    }
  }
  if (suppressed > 0) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("kind", "packet_dead_overflow");
    w.kv("suppressed", suppressed);
    w.end_object();
    sink.add(w.take());
  }
}

/// Post-mortem of the hard-fault wave: which routers died (with
/// coordinates), how many directed links died, and how many wake requests
/// were addressed to a corpse.
void record_hard_fault_summary(const NocSystem& sys,
                               telemetry::StructuredSink& sink) {
  const Network& net = sys.network();
  const std::vector<char>& dead_mask = sys.dead_mask();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", "hard_fault_summary");
  w.kv("scheme", sys.name());
  w.key("dead_routers");
  w.begin_array();
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (!dead_mask[id]) continue;
    const Coord c = net.geom().coord(id);
    w.begin_object();
    w.kv("router", id);
    w.kv("x", c.x);
    w.kv("y", c.y);
    w.end_object();
  }
  w.end_array();
  w.kv("dead_links", sys.dead_link_count());
  w.kv("wake_requests_dropped", sys.wake_requests_dropped());
  w.end_object();
  sink.add(w.take());
}

/// Drain completion: fabric empty, every NI's queue and open streams gone,
/// and (reliable mode) every flow settled — acked or declared dead.
bool fully_drained(Network& net) {
  if (!net.in_flight_empty()) return false;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NetworkInterface& ni = net.ni(id);
    if (!ni.idle() || !ni.reliable_quiescent()) return false;
  }
  return true;
}

/// Forward-progress watchdog: if no flit ejects for `window` cycles while
/// the fabric holds traffic, dump state, try one scheme-level recovery and
/// record the stall as an incident. The probe runs every 1024 cycles:
/// total_ejected_flits()/in_flight_empty() are O(1) cached counters, and
/// the throttle keeps the sampling points (and hence recovery timing)
/// identical to earlier builds.
struct Watchdog {
  NocSystem& sys;
  telemetry::StructuredSink& incidents;
  Cycle window;  ///< 0 = disabled
  /// sim.max_cycles_hard is armed: the caller opted into partial results,
  /// so an unrecoverable stall stops the run instead of aborting.
  bool partial_results_ok;
  std::uint64_t last_ejected = 0;
  Cycle last_progress = 0;
  std::uint64_t recoveries = 0;
  bool armed = true;  ///< one recovery attempt per stall episode

  /// False when the run must stop at `now`.
  bool check(Cycle now) {
    if (window == 0 || (now % 1024) != 0) return true;
    const Network& net = sys.network();
    const std::uint64_t ej = net.total_ejected_flits();
    if (ej != last_ejected || net.in_flight_empty()) {
      last_ejected = ej;
      last_progress = now;
      armed = true;
      return true;
    }
    if (now - last_progress < window) return true;
    FLOV_TRACE(telemetry::kTraceRecovery,
               telemetry::TraceEventType::kWatchdogStall, now, -1,
               now - last_progress, last_ejected);
    std::fprintf(stderr, "[watchdog] --- %s stalled, state at cycle %llu ---\n",
                 sys.name(), static_cast<unsigned long long>(now));
    sys.dump_state(now);
    const bool recovered = armed && sys.attempt_recovery(now);
    record_stall_incident(sys, incidents, now, now - last_progress, recovered);
    FLOV_TRACE(telemetry::kTraceRecovery,
               telemetry::TraceEventType::kRecoveryAttempt, now, -1,
               recovered ? 1 : 0, recoveries + 1);
    if (!recovered && partial_results_ok) return false;
    FLOV_CHECK(recovered,
               std::string("no forward progress (possible deadlock) in ") +
                   sys.name());
    armed = false;  // a second stall in this episode aborts
    recoveries++;
    last_progress = now;  // fresh window for the recovery to act
    return true;
  }
};

/// Reliable-delivery end state, summed over every NI.
void sum_reliable_counters(const Network& net, RunResult& r) {
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NetworkInterface& ni = net.ni(id);
    r.packets_acked += ni.packets_acked();
    r.packets_dead += ni.packets_dead();
    r.packets_purged += ni.packets_purged();
    r.killed_at_source += ni.killed_at_source();
    r.retransmits += ni.retransmits();
    r.dup_packets += ni.dup_packets();
  }
}

}  // namespace

RunResult run_synthetic(const SyntheticExperimentConfig& cfg) {
  BuiltSystem built = build_system(cfg.scheme, cfg.noc, cfg.energy,
                                   /*always_on=*/{}, cfg.faults);
  NocSystem& sys = *built.system;
  Network& net = sys.network();

  auto metrics =
      std::make_shared<telemetry::MetricsRegistry>(cfg.telemetry.metrics_window);
  auto incidents = std::make_shared<telemetry::StructuredSink>();
  std::shared_ptr<telemetry::Tracer> tracer;
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
  if (cfg.telemetry.trace_mask != 0) {
    tracer = std::make_shared<telemetry::Tracer>(cfg.telemetry.trace_mask,
                                                 cfg.telemetry.trace_capacity);
  }
#endif
  // Binds the tracer to this thread for the whole run; every FLOV_TRACE
  // hook in the subsystems below lands in this ring (or costs one branch
  // when `tracer` is null).
  telemetry::TraceScope trace_scope(tracer.get());

  auto pattern = TrafficPattern::create(cfg.pattern, net.geom());
  SyntheticTraffic traffic(&sys, pattern.get(), cfg.inj_rate_flits,
                           cfg.noc.packet_size, cfg.seed * 7919 + 13);

  GatingScenario scenario =
      cfg.gating_changes.empty()
          ? GatingScenario::uniform_fraction(net.geom(), cfg.gated_fraction,
                                             cfg.seed)
          : GatingScenario::epochs(net.geom(), cfg.gated_fraction,
                                   cfg.gating_changes, cfg.seed);

  // The scheme's armed fault injector (null on a fault-free build): the
  // ejection callback asks it about soft-error corruption per delivered
  // packet.
  const FaultInjector* fault = sys.fault_injector();

  LatencyStats stats(/*router_pipeline_cycles=*/3, cfg.timeline_window,
                     cfg.noc.latency_hist_max);
  stats.set_measure_from(cfg.warmup);
  // Corruption probe mirrors LatencyStats' measurement filter (packets
  // generated before warmup are ignored). Ejection callbacks run between
  // step barriers, which publish the domain workers' corrupted-set inserts.
  std::uint64_t packets_corrupted = 0;
  const bool soft_armed = fault && cfg.faults.soft_errors_armed();
  net.set_eject_callback([&stats, &packets_corrupted, fault, soft_armed,
                          measure_from = cfg.warmup](const PacketRecord& r) {
    stats.record(r);
    if (soft_armed && r.gen_cycle >= measure_from &&
        fault->packet_corrupted(r.packet_id)) {
      packets_corrupted++;
    }
  });

  std::unique_ptr<InvariantVerifier> verifier;
  if (cfg.verify) {
    VerifierOptions vopts = cfg.verifier;
    vopts.sink = incidents.get();  // violations also land as JSON incidents
    verifier = std::make_unique<InvariantVerifier>(sys, vopts);
  }

  const Cycle total = cfg.warmup + cfg.measure;
  const Cycle hard_cap = cfg.max_cycles_hard;
  if (cfg.ops != nullptr) {
    // Ops plane: read-only periodic snapshot folds. Registered last so its
    // passive ejection observer cannot perturb any primary callback, and
    // fed only accessors — it has no way to mutate the run.
    ops::OpsPlane::RunContext octx;
    octx.sys = &sys;
    octx.scheme = sys.name();
    octx.total_cycles = total;
    octx.hist_overflow = [&stats] { return stats.hist_overflow(); };
    octx.incidents = incidents.get();
    cfg.ops->begin_run(octx);
  }

  // One fabric cycle, shared by the measured run and the drain tail.
  auto step_fabric = [&](Cycle now) {
    sys.step(now);
    if (verifier) verifier->step(now);
    if (cfg.ops != nullptr && cfg.ops->wants_tick(now)) cfg.ops->tick(now);
  };
  // Sampled series; series.gated_routers exists only for schemes with a
  // handshake power FSM.
  const bool sample_gated = sys.has_power_fsm();
  auto sample_series = [&](Cycle now) {
    if (cfg.telemetry.metrics_window == 0 ||
        (now % cfg.telemetry.metrics_window) != 0) {
      return;
    }
    metrics->series("series.in_network_flits")
        .add(now, static_cast<double>(net.in_network_flits()));
    metrics->series("series.queued_packets")
        .add(now, static_cast<double>(net.total_queued_packets()));
    if (sample_gated) {
      metrics->series("series.gated_routers")
          .add(now, static_cast<double>(sys.gated_router_count()));
    }
  };
  auto hit_hard_cap = [&](Cycle now) {
    if (hard_cap == 0 || now < hard_cap) return false;
    record_budget_incident(sys, *incidents, "hard_cycle_cap", now, hard_cap);
    return true;
  };

  Watchdog watchdog{sys, *incidents, cfg.watchdog,
                    /*partial_results_ok=*/hard_cap != 0};
  bool aborted = false;
  Cycle now = 0;
  for (; now < total; ++now) {
    if (hit_hard_cap(now)) {
      aborted = true;
      break;
    }
    scenario.apply(sys, now);
    traffic.step(now);
    step_fabric(now);
    if (now == cfg.warmup) built.power->begin_window(now);
    sample_series(now);
    if (!watchdog.check(now)) {
      aborted = true;
      break;
    }
  }

  // Post-measurement drain: traffic generation and gating changes stop;
  // the system keeps stepping so in-flight worms land, retransmit timers
  // fire, and every reliable flow resolves to acked-or-dead. Bounded by
  // drain_max (and the hard cap); running out is an incident, not an
  // abort — the verifier's final sweep still runs on whatever remains.
  if (!aborted && cfg.drain_max != 0) {
    const Cycle drain_end = total + cfg.drain_max;
    for (; now < drain_end; ++now) {
      if (hit_hard_cap(now)) {
        aborted = true;
        break;
      }
      if (fully_drained(net)) break;
      step_fabric(now);
    }
    if (!aborted && now == drain_end && !fully_drained(net)) {
      record_budget_incident(sys, *incidents, "drain_exhausted", now,
                             cfg.drain_max);
    }
  }
  const Cycle end_cycle = now;  ///< first cycle NOT simulated

  RunResult r;
  r.scheme = to_string(cfg.scheme);
  r.aborted = aborted;
  r.cycles_run = end_cycle;
  r.avg_latency = stats.avg_latency();
  r.p50_latency = stats.latency_percentile(50);
  r.p99_latency = stats.latency_percentile(99);
  r.breakdown = stats.avg_breakdown();
  r.power = built.power->report(end_cycle);
  r.packets_measured = stats.packets();
  r.packets_generated = traffic.generated_packets();
  r.injected_flits = net.total_injected_flits();
  r.ejected_flits = net.total_ejected_flits();
  r.escape_packets = stats.escape_packets();
  r.watchdog_recoveries = watchdog.recoveries;
  r.gated_routers_end = sys.gated_router_count();
  const ProtocolStats ps = sys.protocol_stats(end_cycle);
  r.avg_gated_routers = ps.avg_gated_routers;
  r.protocol_sleeps = ps.sleeps;
  r.protocol_wakeups = ps.wakeups;
  r.hs_resends = ps.hs_resends;
  r.trigger_resends = ps.trigger_resends;
  r.self_captures = ps.self_captures;
  r.dead_routers = sys.dead_router_count();
  r.dead_links = sys.dead_link_count();
  r.wake_requests_dropped = sys.wake_requests_dropped();
  if (r.dead_routers > 0 || r.dead_links > 0) {
    record_hard_fault_summary(sys, *incidents);
  }
  if (fault) {
    r.flits_dropped_by_faults = fault->counters().flits_dropped;
    r.payload_flips = fault->counters().payload_flips;
    r.psr_flips = fault->counters().psr_flips;
  }
  r.packets_corrupted = packets_corrupted;
  if (cfg.noc.reliable) {
    sum_reliable_counters(net, r);
    record_dead_packets(net, *incidents);
  }
  if (verifier) {
    verifier->final_check(end_cycle);
    r.verifier_violations = verifier->violations();
    r.verifier_checks = verifier->checks_run();
  }
  if (const TimeSeries* ts = stats.timeline()) r.timeline = ts->points();

  // Final ops fold AFTER every end-of-run incident (hard_fault_summary,
  // packet_dead, verifier final sweep) has been recorded, so the last
  // published snapshot carries the complete incident counts.
  if (cfg.ops != nullptr) cfg.ops->end_run(end_cycle);

  // Every subsystem registers its metrics under its own prefix; the
  // registry rides on the RunResult so sweeps can fold per-point
  // registries deterministically.
  net.publish_metrics(*metrics);
  stats.publish_metrics(*metrics);
  built.power->publish_metrics(*metrics, end_cycle);
  sys.publish_metrics(*metrics, end_cycle);
  metrics->counter("run.packets_generated") += traffic.generated_packets();
  metrics->counter("run.watchdog_recoveries") += r.watchdog_recoveries;
  metrics->counter("run.cycles") += end_cycle;
  if (aborted) metrics->counter("run.aborted") += 1;
  if (cfg.noc.reliable) {
    metrics->counter("run.packets_acked") += r.packets_acked;
    metrics->counter("run.packets_dead") += r.packets_dead;
    metrics->counter("run.packets_purged") += r.packets_purged;
    metrics->counter("run.killed_at_source") += r.killed_at_source;
    metrics->counter("run.retransmits") += r.retransmits;
    metrics->counter("run.dup_packets") += r.dup_packets;
  }
  if (soft_armed) {
    metrics->counter("fault.payload_flips") += r.payload_flips;
    metrics->counter("fault.psr_flips") += r.psr_flips;
    metrics->counter("run.packets_corrupted") += r.packets_corrupted;
  }
  if (verifier) {
    metrics->counter("verify.violations") += verifier->violations();
    metrics->counter("verify.checks") += verifier->checks_run();
  }
  r.metrics = std::move(metrics);
  r.trace = std::move(tracer);
  r.incidents = std::move(incidents);
  return r;
}

}  // namespace flov
