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
    : net_(net),
      flov_(flov),
      fault_(fault),
      opts_(opts),
      nvc_(net.params().total_vcs()) {
  FLOV_CHECK(opts_.check_interval >= 1, "verifier interval must be >= 1");
  const int n = net_.num_nodes();
  if (flov_) {
    prev_state_.assign(n, PowerState::kActive);
    last_fsm_change_.assign(n, 0);
    psr_fail_streak_.assign(n, {0, 0, 0, 0});
  } else {
    opts_.check_credits = false;  // meaningful only with the FLOV handover
    opts_.check_psr = false;
  }
  for (NodeId id = 0; id < n; ++id) {
    Router& r = net_.router(id);
    for (Direction d : kMeshDirections) {
      mesh_wires_.push_back(r.flit_out(d));
      credit_wires_.push_back(r.credit_in(d));
    }
    local_wires_.push_back(r.flit_in(Direction::Local));
    local_wires_.push_back(r.flit_out(Direction::Local));
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
  if (violations_ == kMaxLoggedViolations) {
    std::fprintf(stderr,
                 "[verifier] %llu violations logged; further state dumps "
                 "and incident records are suppressed\n",
                 static_cast<unsigned long long>(kMaxLoggedViolations));
  }
  if (violations_ < kMaxLoggedViolations && flov_) flov_->dump_state(now);
  if (violations_ < kMaxLoggedViolations && opts_.sink) {
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
  const std::uint64_t id = rec.packet_id;
  const std::size_t word = static_cast<std::size_t>(id >> 6);
  if (word >= ejected_.size()) {
    ejected_.resize(std::max(word + 1, 2 * ejected_.size()));
  }
  const std::uint64_t bit = std::uint64_t{1} << (id & 63);
  if ((ejected_[word] & bit) == 0) {
    ejected_[word] |= bit;
    return;
  }
  const int n = ++repeat_ejects_.try_emplace(id, 1).first->second;
  std::ostringstream os;
  os << "packet " << rec.packet_id << " (src=" << rec.src
     << " dest=" << rec.dest << ") ejected " << n << " times";
  violation(rec.eject_cycle, os.str());
}

void InvariantVerifier::track_fsm_changes(Cycle now) {
  const int n = net_.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    const PowerState s = state_of(id);
    if (s != prev_state_[id]) {
      prev_state_[id] = s;
      last_fsm_change_[id] = now;
      psr_dirty_ = true;
    }
  }
}

void InvariantVerifier::step(Cycle now) {
  if (flov_) track_fsm_changes(now);
  if (now % opts_.check_interval != 0) return;
  checks_run_++;
  run_checks(now, prev_state_);
}

void InvariantVerifier::final_check(Cycle now) {
  checks_run_++;
  // No FSM tracking here: live states against the stamps left by step().
  std::vector<PowerState> live(prev_state_.size());
  for (std::size_t id = 0; id < live.size(); ++id) {
    live[id] = state_of(static_cast<NodeId>(id));
  }
  run_checks(now, live);
  if (opts_.sink && violations_ > kMaxLoggedViolations) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("kind", "verifier_violation_overflow");
    w.kv("suppressed", violations_ - kMaxLoggedViolations);
    w.end_object();
    opts_.sink->add(w.take());
  }
}

void InvariantVerifier::run_checks(Cycle now,
                                   const std::vector<PowerState>& states) {
  if (opts_.check_conservation || opts_.check_credits) snapshot();
  if (opts_.check_conservation) {
    check_conservation(now);
    if (net_.params().reliable) check_delivery(now);
  }
  if (opts_.check_credits) check_credits(now);
  if (opts_.check_psr) check_psr(now, states);
}

void InvariantVerifier::snapshot() {
  const MeshHotState& hot = net_.hot_state();
  std::uint64_t inside = 0;
#ifndef NDEBUG
  // Router::buffered_flits DCHECKs each router's cached resident count and
  // stage masks against a recount.
  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    (void)net_.router(id).buffered_flits();
  }
#endif
  if (!opts_.check_credits) {
    // Conservation only (Baseline, RP): plain sums over the same records.
    for (const InputVc& vc : hot.in_vc) inside += vc.buffer.size();
    for (const FlovLatch& l : hot.latch) inside += l.flit.has_value() ? 1 : 0;
    for (const Channel<Flit>* w : mesh_wires_) {
      if (w != nullptr) inside += w->in_flight();
    }
    for (const Channel<Flit>* w : local_wires_) inside += w->in_flight();
    inside_flits_ = inside;
    return;
  }

  if (segment_modes_ != hot.mode) rebuild_segments();
  // Occupancy needs no reset: every input port row is written below.
  std::fill(seg_flits_.begin(), seg_flits_.end(), 0);
  std::fill(seg_returning_.begin(), seg_returning_.end(), 0);
  // Locals, not members: the counter stores below must not make the
  // compiler reload every table pointer.
  const int nvc = nvc_;
  std::int32_t* flits = seg_flits_.data();
  std::int32_t* returning = seg_returning_.data();
  std::int32_t* occupied = seg_occupied_.data();

  // Input buffers, [node][port][vc]: each port's occupancy lands in the
  // row of the segment it ends (or the spare row).
  const InputVc* vc = hot.in_vc.data();
  for (const std::int32_t row : buffer_row_) {
    for (int v = 0; v < nvc; ++v) {
      const int occ = vc[v].occupancy();
      inside += static_cast<std::uint64_t>(occ);
      occupied[row + v] = occ;
    }
    vc += nvc;
  }
  // Latches and mesh wires, [node][dir]: a flit on them is in flight on
  // the segment through that node.
  for (std::size_t i = 0; i < hot.latch.size(); ++i) {
    const std::optional<Flit>& f = hot.latch[i].flit;
    if (!f.has_value()) continue;
    ++inside;
    flits[latch_row_[i] + f->vc]++;
  }
  for (std::size_t i = 0; i < mesh_wires_.size(); ++i) {
    const Channel<Flit>* w = mesh_wires_[i];
    if (w == nullptr || w->empty()) continue;
    inside += w->in_flight();
    std::int32_t* row = flits + wire_row_[i];
    w->for_each_in_flight([row](const Flit& f) { row[f.vc]++; });
  }
  for (const Channel<Flit>* w : local_wires_) inside += w->in_flight();
  for (std::size_t i = 0; i < credit_wires_.size(); ++i) {
    const Channel<Credit>* w = credit_wires_[i];
    if (w == nullptr || w->empty()) continue;
    std::int32_t* row = returning + wire_row_[i];
    w->for_each_in_flight([row](const Credit& cr) { row[cr.vc]++; });
  }
  inside_flits_ = inside;
}

void InvariantVerifier::rebuild_segments() {
  const MeshHotState& hot = net_.hot_state();
  const MeshGeometry& g = net_.geom();
  const int n = net_.num_nodes();
  segments_.clear();
  auto powered = [&](NodeId id) {
    return hot.mode[id] == RouterMode::kPipeline;
  };
  for (NodeId u = 0; u < n; ++u) {
    if (!powered(u)) continue;
    for (Direction d : kMeshDirections) {
      // Nearest powered (pipeline-datapath) router: the one whose input
      // buffer u's output credits track across the sleeping run.
      NodeId c = g.neighbor(u, d);
      while (c != kInvalidNode && !powered(c)) c = g.neighbor(c, d);
      if (c != kInvalidNode) segments_.push_back({u, c, d});
    }
  }
  // Everything no segment claims maps to the spare row past the last one.
  const std::int32_t spare =
      static_cast<std::int32_t>(segments_.size()) * nvc_;
  wire_row_.assign(static_cast<std::size_t>(n) * kNumMeshDirs, spare);
  latch_row_.assign(static_cast<std::size_t>(n) * kNumMeshDirs, spare);
  buffer_row_.assign(static_cast<std::size_t>(n) * kNumPorts, spare);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto [u, c, d] = segments_[s];
    const auto row = static_cast<std::int32_t>(s) * nvc_;
    for (NodeId r = u; r != c; r = g.neighbor(r, d)) {
      wire_row_[r * kNumMeshDirs + dir_index(d)] = row;
      if (r != u) latch_row_[r * kNumMeshDirs + dir_index(d)] = row;
    }
    buffer_row_[c * kNumPorts + dir_index(opposite(d))] = row;
  }
  const std::size_t cells = static_cast<std::size_t>(spare + nvc_);
  seg_out_credits_.resize(cells);
  seg_flits_.resize(cells);
  seg_returning_.resize(cells);
  seg_occupied_.resize(cells);
  segment_modes_ = hot.mode;
}

void InvariantVerifier::rebuild_psr_table(
    const std::vector<PowerState>& states) {
  const MeshGeometry& g = net_.geom();
  const int n = net_.num_nodes();
  psr_expected_.resize(static_cast<std::size_t>(n) * kNumMeshDirs);
  psr_horizon_.resize(static_cast<std::size_t>(n) * kNumMeshDirs);
  for (NodeId id = 0; id < n; ++id) {
    for (Direction d : kMeshDirections) {
      NodeId expected = g.neighbor(id, d);
      while (expected != kInvalidNode &&
             states[expected] == PowerState::kSleep) {
        expected = g.neighbor(expected, d);
      }
      // Latest FSM change from `id` up to `expected` inclusive (to the mesh
      // edge when no powered router lies that way).
      Cycle horizon = 0;
      for (NodeId cur = id; cur != kInvalidNode; cur = g.neighbor(cur, d)) {
        horizon = std::max(horizon, last_fsm_change_[cur]);
        if (cur == expected) break;
      }
      psr_expected_[id * kNumMeshDirs + dir_index(d)] = expected;
      psr_horizon_[id * kNumMeshDirs + dir_index(d)] = horizon;
    }
  }
  psr_states_ = states;
  psr_dirty_ = false;
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
  const std::uint64_t inside = inside_flits_;
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
  const MeshHotState& hot = net_.hot_state();
  const int depth = net_.params().buffer_depth;
  const int nvc = nvc_;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const OutputVcState* out =
        &hot.out_vc[(static_cast<std::size_t>(segments_[s].u) * kNumPorts +
                     dir_index(segments_[s].d)) * nvc];
    for (int v = 0; v < nvc; ++v) {
      seg_out_credits_[s * nvc + v] = out[v].credits;
    }
  }
  const std::int32_t* credits = seg_out_credits_.data();
  const std::int32_t* flits = seg_flits_.data();
  const std::int32_t* returning = seg_returning_.data();
  const std::int32_t* occupied = seg_occupied_.data();
  const std::size_t cells = segments_.size() * nvc;
  // Non-short-circuit ors keep the first pass branch-free (vectorized);
  // the reporting pass runs only when some (segment, VC) is broken.
  auto broken = [&](std::size_t i) {
    const int sum = credits[i] + flits[i] + returning[i] + occupied[i];
    return (sum > depth) | (exact & (sum < depth)) | (credits[i] < 0) |
           (occupied[i] < 0);
  };
  int any = 0;
  for (std::size_t i = 0; i < cells; ++i) any |= broken(i);
  if (any == 0) return;
  for (std::size_t i = 0; i < cells; ++i) {
    if (!broken(i)) continue;
    const CreditSegment& seg = segments_[i / nvc];
    std::ostringstream os;
    os << "credit conservation broken on segment " << seg.u << " -> "
       << seg.c << " dir=" << to_string(seg.d) << " vc=" << i % nvc
       << ": credits=" << credits[i] << " flits_in_flight=" << flits[i]
       << " credits_in_flight=" << returning[i]
       << " occupied=" << occupied[i] << " (depth=" << depth << ", "
       << (exact ? "exact" : "bound") << ")";
    violation(now, os.str());
  }
}

void InvariantVerifier::check_psr(Cycle now,
                                  const std::vector<PowerState>& states) {
  if (psr_dirty_ || states != psr_states_) rebuild_psr_table(states);
  const MeshGeometry& g = net_.geom();
  const bool restricted = flov_->mode() == FlovMode::kRestricted;

  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    const PowerState s = states[id];

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
        const PowerState ms = states[m];
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
      const NodeId expected = psr_expected_[id * kNumMeshDirs + di];
      // Settled: every FSM from `id` to `expected` quiet a full window.
      if (now < opts_.settle_window ||
          now - psr_horizon_[id * kNumMeshDirs + di] < opts_.settle_window) {
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
        const PowerState es = states[expected];
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
