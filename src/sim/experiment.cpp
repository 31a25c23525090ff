#include "sim/experiment.hpp"

#include <cstdio>
#include <memory>

#include "common/log.hpp"
#include "flov/flov_network.hpp"
#include "rp/rp_network.hpp"
#include "sim/baseline_network.hpp"
#include "telemetry/json.hpp"
#include "telemetry/ops/ops_plane.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {

namespace {

/// Diagnostic dump on a watchdog stall: every non-quiescent router's
/// occupancy, plus the full handshake FSM picture for FLOV schemes.
void dump_stall_state(NocSystem& sys, Cycle now) {
  std::fprintf(stderr, "[watchdog] --- %s stalled, state at cycle %llu ---\n",
               sys.name(), static_cast<unsigned long long>(now));
  if (auto* f = dynamic_cast<FlovNetwork*>(&sys)) {
    f->dump_state(now);
    return;
  }
  Network& net = sys.network();
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Router& r = net.router(id);
    if (!r.completely_empty()) r.dump_occupancy(now);
  }
}

const char* router_mode_name(RouterMode m) {
  switch (m) {
    case RouterMode::kPipeline: return "pipeline";
    case RouterMode::kBypass: return "bypass";
    case RouterMode::kParked: return "parked";
    case RouterMode::kDead: return "dead";
  }
  return "?";
}

/// Machine-parseable twin of dump_stall_state: one incident object with
/// every router that holds flits or is not plainly powered (coordinates,
/// datapath mode, protocol state, occupancy).
void record_stall_incident(NocSystem& sys, telemetry::StructuredSink& sink,
                           Cycle now, Cycle stalled_for, bool recovered) {
  Network& net = sys.network();
  auto* f = dynamic_cast<FlovNetwork*>(&sys);
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
    const PowerState ps = f ? f->hsc(id).state() : PowerState::kActive;
    if (flits == 0 && m == RouterMode::kPipeline &&
        ps == PowerState::kActive) {
      continue;
    }
    const Coord c = net.geom().coord(id);
    w.begin_object();
    w.kv("router", id);
    w.kv("x", c.x);
    w.kv("y", c.y);
    w.kv("mode", router_mode_name(m));
    if (f) w.kv("power_state", to_string(ps));
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
void record_hard_fault_summary(NocSystem& sys,
                               const std::vector<char>& dead_mask,
                               int dead_links, std::uint64_t wake_dropped,
                               telemetry::StructuredSink& sink) {
  Network& net = sys.network();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", "hard_fault_summary");
  w.kv("scheme", sys.name());
  w.key("dead_routers");
  w.begin_array();
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (id >= static_cast<NodeId>(dead_mask.size()) || !dead_mask[id]) {
      continue;
    }
    const Coord c = net.geom().coord(id);
    w.begin_object();
    w.kv("router", id);
    w.kv("x", c.x);
    w.kv("y", c.y);
    w.end_object();
  }
  w.end_array();
  w.kv("dead_links", dead_links);
  w.kv("wake_requests_dropped", wake_dropped);
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

}  // namespace

RunResult run_synthetic(const SyntheticExperimentConfig& cfg) {
  BuiltSystem built = build_system(cfg.scheme, cfg.noc, cfg.energy,
                                   /*always_on=*/{}, cfg.faults);
  NocSystem& sys = *built.system;
  Network& net = sys.network();
  auto* flov_sys = dynamic_cast<FlovNetwork*>(&sys);

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

  // The scheme's armed fault injector (null on a fault-free build): needed
  // before the run loop so the ejection callback can ask about soft-error
  // corruption per delivered packet.
  const FaultInjector* fault = nullptr;
  if (flov_sys) {
    fault = flov_sys->fault_injector();
  } else if (auto* p = dynamic_cast<const RpNetwork*>(&sys)) {
    fault = p->fault_injector();
  } else if (auto* b = dynamic_cast<const BaselineNetwork*>(&sys)) {
    fault = b->fault_injector();
  }

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
    if (flov_sys) {
      verifier = std::make_unique<InvariantVerifier>(*flov_sys, vopts);
    } else {
      // Conservation-only form needs the scheme's armed injector so faulted
      // flit drops (and hard-killed flits) balance the equation.
      const FaultInjector* fi = nullptr;
      if (auto* p = dynamic_cast<const RpNetwork*>(&sys)) {
        fi = p->fault_injector();
      } else if (auto* b = dynamic_cast<const BaselineNetwork*>(&sys)) {
        fi = b->fault_injector();
      }
      verifier = std::make_unique<InvariantVerifier>(net, vopts, fi);
    }
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
  std::uint64_t last_ejected = 0;
  Cycle last_progress = 0;
  std::uint64_t recoveries = 0;
  bool recovery_armed = true;  ///< one recovery attempt per stall episode
  bool aborted = false;
  Cycle end_cycle = total;  ///< first cycle NOT simulated
  Cycle now = 0;
  while (now < total) {
    if (hard_cap != 0 && now >= hard_cap) {
      record_budget_incident(sys, *incidents, "hard_cycle_cap", now, hard_cap);
      aborted = true;
      end_cycle = now;
      break;
    }
    scenario.apply(sys, now);
    traffic.step(now);
    sys.step(now);
    if (verifier) verifier->step(now);
    if (cfg.ops != nullptr && cfg.ops->wants_tick(now)) cfg.ops->tick(now);
    if (now == cfg.warmup) built.power->begin_window(now);
    if (cfg.telemetry.metrics_window != 0 &&
        (now % cfg.telemetry.metrics_window) == 0) {
      metrics->series("series.in_network_flits")
          .add(now, static_cast<double>(net.in_network_flits()));
      metrics->series("series.queued_packets")
          .add(now, static_cast<double>(net.total_queued_packets()));
      if (flov_sys) {
        metrics->series("series.gated_routers")
            .add(now, static_cast<double>(flov_sys->gated_router_count()));
      }
    }
    // Progress probe: total_ejected_flits()/in_flight_empty() are O(1)
    // cached counters, so the probe itself is free; the %1024 throttle is
    // kept anyway so the progress-sampling points (and hence recovery
    // timing) stay identical to earlier builds.
    if (cfg.watchdog && (now % 1024) == 0) {
      const std::uint64_t ej = net.total_ejected_flits();
      if (ej != last_ejected || net.in_flight_empty()) {
        last_ejected = ej;
        last_progress = now;
        recovery_armed = true;
      } else if (now - last_progress >= cfg.watchdog) {
        FLOV_TRACE(telemetry::kTraceRecovery,
                   telemetry::TraceEventType::kWatchdogStall, now, -1,
                   now - last_progress, last_ejected);
        dump_stall_state(sys, now);
        const bool recovered = recovery_armed && sys.attempt_recovery(now);
        record_stall_incident(sys, *incidents, now, now - last_progress,
                              recovered);
        FLOV_TRACE(telemetry::kTraceRecovery,
                   telemetry::TraceEventType::kRecoveryAttempt, now, -1,
                   recovered ? 1 : 0, recoveries + 1);
        if (!recovered && hard_cap != 0) {
          // With a hard cycle cap armed the caller opted into
          // partial-results-over-abort: surface the unrecoverable stall as
          // an incident and stop the run instead of FLOV_CHECK-aborting.
          aborted = true;
          end_cycle = now;
          break;
        }
        FLOV_CHECK(recovered,
                   std::string("no forward progress (possible deadlock) in ") +
                       to_string(cfg.scheme));
        recovery_armed = false;  // a second stall in this episode aborts
        recoveries++;
        last_progress = now;  // fresh window for the recovery to act
      }
    }
    ++now;
  }

  // Post-measurement drain: traffic generation and gating changes stop;
  // the system keeps stepping so in-flight worms land, retransmit timers
  // fire, and every reliable flow resolves to acked-or-dead. Bounded by
  // drain_max (and the hard cap); running out is an incident, not an
  // abort — the verifier's final sweep still runs on whatever remains.
  if (!aborted && cfg.drain_max != 0) {
    const Cycle drain_end = total + cfg.drain_max;
    Cycle dnow = total;
    while (dnow < drain_end) {
      if (hard_cap != 0 && dnow >= hard_cap) {
        record_budget_incident(sys, *incidents, "hard_cycle_cap", dnow,
                               hard_cap);
        aborted = true;
        break;
      }
      if (fully_drained(net)) break;
      sys.step(dnow);
      if (verifier) verifier->step(dnow);
      if (cfg.ops != nullptr && cfg.ops->wants_tick(dnow)) cfg.ops->tick(dnow);
      ++dnow;
    }
    end_cycle = dnow;
    if (!aborted && dnow == drain_end && !fully_drained(net)) {
      record_budget_incident(sys, *incidents, "drain_exhausted", dnow,
                             cfg.drain_max);
    }
  }

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
  r.watchdog_recoveries = recoveries;
  if (FlovNetwork* f = flov_sys) {
    r.gated_routers_end = f->gated_router_count();
    const auto ps = f->protocol_stats(end_cycle);
    r.avg_gated_routers = ps.avg_gated_routers;
    r.protocol_sleeps = ps.sleeps;
    r.protocol_wakeups = ps.wakeups;
    r.hs_resends = ps.hs_resends;
    r.trigger_resends = ps.trigger_resends;
    r.self_captures = ps.self_captures;
    r.dead_routers = f->dead_router_count();
    r.dead_links = f->dead_link_count();
    r.wake_requests_dropped = f->wake_requests_dropped();
    if (r.dead_routers > 0 || r.dead_links > 0) {
      record_hard_fault_summary(sys, f->dead_mask(), r.dead_links,
                                r.wake_requests_dropped, *incidents);
    }
  } else if (auto* p = dynamic_cast<RpNetwork*>(&sys)) {
    r.gated_routers_end = p->parked_router_count();
    r.avg_gated_routers = r.gated_routers_end;
    r.dead_routers = p->dead_router_count();
    r.dead_links = p->dead_link_count();
    if (r.dead_routers > 0 || r.dead_links > 0) {
      record_hard_fault_summary(sys, p->dead_mask(), r.dead_links, 0,
                                *incidents);
    }
  } else if (auto* b = dynamic_cast<BaselineNetwork*>(&sys)) {
    r.dead_routers = b->dead_router_count();
    r.dead_links = b->dead_link_count();
    if (r.dead_routers > 0 || r.dead_links > 0) {
      record_hard_fault_summary(sys, b->dead_mask(), r.dead_links, 0,
                                *incidents);
    }
  }
  if (fault) {
    r.flits_dropped_by_faults = fault->counters().flits_dropped;
    r.payload_flips = fault->counters().payload_flips;
    r.psr_flips = fault->counters().psr_flips;
  }
  r.packets_corrupted = packets_corrupted;
  if (cfg.noc.reliable) {
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      const NetworkInterface& ni = net.ni(id);
      r.packets_acked += ni.packets_acked();
      r.packets_dead += ni.packets_dead();
      r.packets_purged += ni.packets_purged();
      r.killed_at_source += ni.killed_at_source();
      r.retransmits += ni.retransmits();
      r.dup_packets += ni.dup_packets();
    }
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
  if (flov_sys) {
    flov_sys->publish_metrics(*metrics, end_cycle);
  } else if (auto* p = dynamic_cast<RpNetwork*>(&sys)) {
    p->publish_metrics(*metrics);
  } else if (auto* b = dynamic_cast<BaselineNetwork*>(&sys)) {
    b->publish_metrics(*metrics);
  }
  metrics->counter("run.packets_generated") += traffic.generated_packets();
  metrics->counter("run.watchdog_recoveries") += recoveries;
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
