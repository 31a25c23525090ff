#include "verify/invariant_verifier.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/log.hpp"
#include "fault/fault_injector.hpp"
#include "flov/flov_network.hpp"
#include "telemetry/json.hpp"
#include "telemetry/structured_sink.hpp"
#include "telemetry/trace.hpp"

namespace flov {

InvariantVerifier::InvariantVerifier(Network& net, VerifierOptions opts,
                                     const FaultInjector* fault)
    : InvariantVerifier(net, nullptr, fault, opts) {}

InvariantVerifier::InvariantVerifier(NocSystem& sys, VerifierOptions opts)
    : InvariantVerifier(sys.network(), dynamic_cast<FlovNetwork*>(&sys),
                        sys.fault_injector(), opts) {}

InvariantVerifier::InvariantVerifier(Network& net, FlovNetwork* flov,
                                     const FaultInjector* fault,
                                     VerifierOptions opts)
    : net_(net), flov_(flov), fault_(fault), opts_(opts) {
  FLOV_CHECK(opts_.check_interval >= 1, "verifier interval must be >= 1");
  if (flov_) {
    const int n = net_.num_nodes();
    prev_state_.assign(n, PowerState::kActive);
    last_fsm_change_.assign(n, 0);
    psr_fail_streak_.assign(n, {0, 0, 0, 0});
  } else {
    opts_.check_credits = false;  // meaningful only with the FLOV handover
    opts_.check_psr = false;
  }
  net_.add_eject_callback(
      [this](const PacketRecord& rec) { observe_eject(rec); });
}

PowerState InvariantVerifier::state_of(NodeId id) const {
  return flov_->hsc(id).state();
}

void InvariantVerifier::violation(Cycle now, const std::string& what) {
  std::fprintf(stderr, "[verifier] cycle %llu: %s\n",
               static_cast<unsigned long long>(now), what.c_str());
  if (flov_) flov_->dump_state(now);
  if (opts_.sink) {
    // Machine-parseable mirror of the stderr dump: the violated invariant
    // plus the coordinates / datapath mode / protocol state of every router
    // that is not plainly powered (the interesting ones in any power-gating
    // incident).
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("kind", "verifier_violation");
    w.kv("cycle", static_cast<std::uint64_t>(now));
    w.kv("what", what);
    w.key("gated_routers");
    w.begin_array();
    for (NodeId id = 0; id < net_.num_nodes(); ++id) {
      const RouterMode m = net_.router(id).mode();
      const PowerState ps = flov_ ? state_of(id) : PowerState::kActive;
      if (m == RouterMode::kPipeline && ps == PowerState::kActive) continue;
      const Coord c = net_.geom().coord(id);
      w.begin_object();
      w.kv("router", id);
      w.kv("x", c.x);
      w.kv("y", c.y);
      w.kv("mode", to_string(m));
      if (flov_) w.kv("power_state", to_string(ps));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    opts_.sink->add(w.take());
  }
  FLOV_TRACE(telemetry::kTraceVerify,
             telemetry::TraceEventType::kVerifyViolation, now, -1,
             violations_ + 1, 0);
  last_violation_ = what;
  violations_++;
  FLOV_CHECK(!opts_.fatal, "invariant violation: " + what);
}

void InvariantVerifier::observe_eject(const PacketRecord& rec) {
  const int n = ++eject_counts_[rec.packet_id];
  if (n > 1) {
    std::ostringstream os;
    os << "packet " << rec.packet_id << " (src=" << rec.src
       << " dest=" << rec.dest << ") ejected " << n << " times";
    violation(rec.eject_cycle, os.str());
  }
}

void InvariantVerifier::track_fsm_changes(Cycle now) {
  const int n = net_.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const PowerState s = state_of(id);
    if (s != prev_state_[id]) {
      prev_state_[id] = s;
      last_fsm_change_[id] = now;
    }
  }
}

void InvariantVerifier::step(Cycle now) {
  if (flov_) track_fsm_changes(now);
  if (now % opts_.check_interval != 0) return;
  checks_run_++;
  if (opts_.check_conservation) {
    check_conservation(now);
    if (net_.params().reliable) check_delivery(now);
  }
  if (opts_.check_credits) check_credits(now);
  if (opts_.check_psr) check_psr(now);
}

void InvariantVerifier::final_check(Cycle now) {
  checks_run_++;
  if (opts_.check_conservation) {
    check_conservation(now);
    if (net_.params().reliable) check_delivery(now);
  }
  if (opts_.check_credits) check_credits(now);
  if (opts_.check_psr) check_psr(now);
}

void InvariantVerifier::check_delivery(Cycle now) {
  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    const auto& ni = net_.ni(id);
    const std::uint64_t alloc = ni.seq_allocated();
    const std::uint64_t acked = ni.packets_acked();
    const std::uint64_t dead = ni.packets_dead();
    const std::uint64_t outstanding = ni.tx_outstanding();
    if (alloc != acked + dead + outstanding) {
      std::ostringstream os;
      os << "reliable-delivery accounting broken at NI " << id
         << ": seq_allocated=" << alloc << " acked=" << acked
         << " declared_dead=" << dead << " outstanding=" << outstanding;
      violation(now, os.str());
    }
  }
}

void InvariantVerifier::check_conservation(Cycle now) {
  // Ground truth only: per-NI counters summed directly and a full component
  // walk for the in-flight population. The network's O(1) cached aggregates
  // must NOT be used here — a cache that drifted would make the equation
  // tautologically true (the cache IS injected - ejected - dropped).
  std::uint64_t injected = 0, ejected = 0;
  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    injected += net_.ni(id).injected_flits();
    ejected += net_.ni(id).ejected_flits();
  }
  const std::uint64_t inside = net_.recount_in_network_flits();
  const std::uint64_t dropped = fault_ ? fault_->dropped_flits() : 0;
  if (injected != ejected + inside + dropped) {
    std::ostringstream os;
    os << "flit conservation broken: injected=" << injected
       << " ejected=" << ejected << " in_network=" << inside
       << " fault_dropped=" << dropped;
    violation(now, os.str());
    return;  // a cache-drift report would just restate the same loss
  }
  // Conservation holds on ground truth; now hold the cached aggregates the
  // active-set scheduler runs on to the same standard.
  const FabricCounters c = net_.counters();
  if (c.injected_flits != injected || c.ejected_flits != ejected ||
      c.dropped_flits != dropped || c.in_network() != inside) {
    std::ostringstream os;
    os << "cached fabric counters drifted: cached injected="
       << c.injected_flits << "/" << injected << " ejected="
       << c.ejected_flits << "/" << ejected << " dropped="
       << c.dropped_flits << "/" << dropped << " in_network="
       << c.in_network() << "/" << inside;
    violation(now, os.str());
  }
}

void InvariantVerifier::check_credits(Cycle now) {
  // Exact unless flit-drop or hard faults are armed: a dropped/killed
  // flit's credit is legitimately gone until the next handover
  // resynthesizes the counters, so only the upper bound survives.
  const bool exact = !fault_ || (fault_->params().flit_drop_rate <= 0.0 &&
                                 !fault_->params().hard_faults_armed());
  const MeshGeometry& g = net_.geom();
  const NocParams& p = net_.params();
  const int nvc = p.total_vcs();
  std::vector<int> flits_in_flight(nvc);
  std::vector<int> credits_in_flight(nvc);
  for (NodeId u = 0; u < net_.num_nodes(); ++u) {
    if (net_.router(u).mode() != RouterMode::kPipeline) continue;
    for (Direction d : kMeshDirections) {
      // Nearest powered (pipeline-datapath) router: the one whose input
      // buffer u's output credits track across the sleeping run.
      NodeId c = g.neighbor(u, d);
      if (c == kInvalidNode) continue;
      while (c != kInvalidNode &&
             net_.router(c).mode() != RouterMode::kPipeline) {
        c = g.neighbor(c, d);
      }
      if (c == kInvalidNode) continue;

      std::fill(flits_in_flight.begin(), flits_in_flight.end(), 0);
      std::fill(credits_in_flight.begin(), credits_in_flight.end(), 0);
      for (NodeId r = u; r != c; r = g.neighbor(r, d)) {
        if (auto* fch = net_.flit_channel(r, d)) {
          fch->for_each_in_flight(
              [&](const Flit& f) { flits_in_flight[f.vc]++; });
        }
        if (auto* cch = net_.router(r).credit_in(d)) {
          cch->for_each_in_flight(
              [&](const Credit& cr) { credits_in_flight[cr.vc]++; });
        }
        if (r != u) {
          const auto& latched = net_.router(r).latch_flit(d);
          if (latched.has_value()) flits_in_flight[latched->vc]++;
        }
      }
      net_.router(c).input_free_slots(opposite(d), free_slots_scratch_);
      const std::vector<int>& free = free_slots_scratch_;
      const OutputPort& out = net_.router(u).output_port(d);
      for (int v = 0; v < nvc; ++v) {
        const int occupied = p.buffer_depth - free[v];
        const int sum = out.vcs[v].credits + flits_in_flight[v] +
                        credits_in_flight[v] + occupied;
        const bool bad =
            exact ? sum != p.buffer_depth : sum > p.buffer_depth;
        if (bad || out.vcs[v].credits < 0 || occupied < 0) {
          std::ostringstream os;
          os << "credit conservation broken on segment " << u << " -> " << c
             << " dir=" << to_string(d) << " vc=" << v
             << ": credits=" << out.vcs[v].credits
             << " flits_in_flight=" << flits_in_flight[v]
             << " credits_in_flight=" << credits_in_flight[v]
             << " occupied=" << occupied << " (depth=" << p.buffer_depth
             << ", " << (exact ? "exact" : "bound") << ")";
          violation(now, os.str());
        }
      }
    }
  }
}

bool InvariantVerifier::segment_settled(NodeId from, Direction d, NodeId to,
                                        Cycle now) const {
  if (now < opts_.settle_window) return false;
  const MeshGeometry& g = net_.geom();
  NodeId cur = from;
  while (cur != kInvalidNode) {
    if (now - last_fsm_change_[cur] < opts_.settle_window) return false;
    if (cur == to) break;
    cur = g.neighbor(cur, d);
  }
  return true;
}

void InvariantVerifier::check_psr(Cycle now) {
  const MeshGeometry& g = net_.geom();
  const bool restricted = flov_->mode() == FlovMode::kRestricted;

  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    const PowerState s = state_of(id);

    // rFLOV adjacency: two physically adjacent gated routers can never
    // legitimately coexist, transients included (drain entry requires all
    // neighbors Active and arbitration serializes), so check instantly.
    if (restricted && (s == PowerState::kSleep || s == PowerState::kWakeup) &&
        !flov_->router_dead(id)) {
      for (Direction d : {Direction::East, Direction::South}) {
        const NodeId m = g.neighbor(id, d);
        if (m == kInvalidNode) continue;
        // Hard faults do not respect the adjacency rule: two neighbors can
        // die together, and a dead router sleeps forever regardless of who
        // is next to it.
        if (flov_->router_dead(m)) continue;
        const PowerState ms = state_of(m);
        if (ms == PowerState::kSleep || ms == PowerState::kWakeup) {
          std::ostringstream os;
          os << "rFLOV adjacency broken: routers " << id << " ("
             << to_string(s) << ") and " << m << " (" << to_string(ms)
             << ") are both gated";
          violation(now, os.str());
        }
      }
    }

    // Logical-pointer coherence (powered routers' views only; a gated
    // router's view is refreshed on wakeup).
    if (s != PowerState::kActive && s != PowerState::kDraining) continue;
    const NeighborhoodView& v = net_.router(id).view();
    for (Direction d : kMeshDirections) {
      const int di = dir_index(d);
      NodeId expected = g.neighbor(id, d);
      while (expected != kInvalidNode &&
             state_of(expected) == PowerState::kSleep) {
        expected = g.neighbor(expected, d);
      }
      if (!segment_settled(id, d, expected, now)) {
        psr_fail_streak_[id][di] = 0;
        continue;
      }
      if (v.logical[di] != expected) {
        // Two consecutive failing samples: a heal (retry / re-announce)
        // may be mid-flight on the first.
        if (++psr_fail_streak_[id][di] >= 2) {
          std::ostringstream os;
          os << "stale logical PSR at router " << id << " dir="
             << to_string(d) << ": points at " << v.logical[di]
             << ", true nearest powered router is " << expected;
          violation(now, os.str());
          psr_fail_streak_[id][di] = 0;
        }
        continue;
      }
      psr_fail_streak_[id][di] = 0;

      // gFLOV forbidden logical pairs, flagged only when persistent: both
      // FSMs stable a full settle window yet still paired means the
      // arbitration/priority signals were lost beyond recovery.
      if (!restricted && s == PowerState::kDraining &&
          expected != kInvalidNode && !flov_->router_dead(id) &&
          !flov_->router_dead(expected)) {
        const PowerState es = state_of(expected);
        if ((es == PowerState::kDraining || es == PowerState::kWakeup) &&
            now - last_fsm_change_[id] >= opts_.settle_window &&
            now - last_fsm_change_[expected] >= opts_.settle_window) {
          std::ostringstream os;
          os << "gFLOV forbidden pair stuck: router " << id
             << " Draining with logical neighbor " << expected << " "
             << to_string(es) << " dir=" << to_string(d);
          violation(now, os.str());
        }
      }
    }
  }
}

}  // namespace flov
