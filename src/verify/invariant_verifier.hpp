// Runtime invariant verifier: a per-cycle observer that proves the
// simulator's protocol-level conservation laws as it runs.
//
// Checks (each individually switchable):
//   * Flit conservation — every injected flit is either still inside the
//     fabric, ejected exactly once, or accounted to an injected flit-drop
//     fault. Checked as an exact per-cycle equation over NI counters,
//     channel occupancy and router buffers; packet-level duplicate ejection
//     is caught via an ejection observer.
//   * Credit conservation — for every powered router U and direction d,
//     per VC: U's output credits + flits in flight on the segment toward
//     the nearest powered router C + credits in flight back + C's occupied
//     input slots == buffer_depth. Holds exactly at every cycle boundary,
//     including across FLOV sleep/wake credit handovers; downgraded to an
//     upper bound when flit-drop faults are armed (a dropped flit's credit
//     is legitimately lost forever).
//   * PSR coherence — logical[d] points at the true nearest non-sleeping
//     router; rFLOV never gates two adjacent routers; gFLOV never keeps a
//     Draining–Draining or Draining–Wakeup logical pair. Pointer checks
//     respect signal latency: they only fire on neighborhoods whose power
//     FSMs have been stable for `settle_window` cycles, and require two
//     consecutive failing samples (handshake heals are in flight in
//     between).
//
// A violation prints one stderr line, dumps the offending neighborhood and
// records a "verifier_violation" incident, then either aborts via
// FLOV_CHECK (fatal=true, the default) or is counted (for tests that
// assert the verifier fires). Only the first 200 violations get a state
// dump and an incident record; final_check then adds one
// "verifier_violation_overflow" incident with the number suppressed.
// violations() counts every one.
//
// Cost model: every check is one full, exact walk. It reads each router's
// input-VC records and FLOV latches from the Network's hot-state slab, and
// each flit and credit channel, once and in node order, folding them into
// verifier-owned per-segment counters; conservation, credit conservation
// and the PSR rules are then evaluated on those counters. Two tables that
// depend only on the topology's current state are cached: the credit
// segments (rebuilt when any router's datapath mode changes) and each
// powered router's expected PSR pointers with their settle horizons
// (rebuilt when any router's power state changes).
//
// Exactness contract (tests/verifier_test.cpp pins the streams):
//   * the same predicates fire with the same violation texts, in the same
//     order, at the same cycles; the PSR pointer check keeps its
//     two-consecutive-samples streak rule;
//   * checks_run() counts one per checked cycle plus one per final_check;
//   * final_check does not track FSM changes: it reads live power states
//     against the last-change stamps the per-cycle steps left;
//   * conservation is recounted from ground truth (buffers, latches,
//     channels, NI counters), never from the cached FabricCounters, which
//     are then held to that recount (the drift check);
//   * nothing is sampled, skipped or walked incrementally.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "noc/power_state.hpp"

namespace flov {

namespace telemetry {
class StructuredSink;
}

class FlovNetwork;
class FaultInjector;
class NocSystem;

struct VerifierOptions {
  Cycle check_interval = 1;  ///< run the per-cycle checks every N cycles
  /// FSM-quiet time required before PSR pointer/pair checks may flag.
  Cycle settle_window = 64;
  bool check_conservation = true;
  bool check_credits = true;
  bool check_psr = true;
  bool fatal = true;  ///< abort on violation (else: count and continue)
  /// Structured incident sink (run manifest "incidents" section): every
  /// violation is also recorded as a JSON object with the coordinates and
  /// power mode of each non-powered router. Non-owning; may be null.
  telemetry::StructuredSink* sink = nullptr;

  static VerifierOptions from_config(const Config& cfg) {
    VerifierOptions o;
    o.check_interval = cfg.get_int("verify.check_interval", o.check_interval);
    o.settle_window = cfg.get_int("verify.settle_window", o.settle_window);
    o.check_conservation =
        cfg.get_bool("verify.check_conservation", o.check_conservation);
    o.check_credits = cfg.get_bool("verify.check_credits", o.check_credits);
    o.check_psr = cfg.get_bool("verify.check_psr", o.check_psr);
    o.fatal = cfg.get_bool("verify.fatal", o.fatal);
    return o;
  }
};

class InvariantVerifier {
 public:
  /// Full verifier for a FLOV system (conservation + credits + PSRs); the
  /// conservation-only form below, fed the scheme's armed injector, for
  /// any other scheme. Registers itself as an ejection observer on every NI.
  InvariantVerifier(NocSystem& sys, VerifierOptions opts = {});

  /// Conservation-only verifier for any bare Network (Baseline; RP parks
  /// routers and voids credits by design, so only flit conservation is a
  /// meaningful invariant there). `fault` (optional): the scheme's armed
  /// injector, so faulted flit drops balance the conservation equation.
  InvariantVerifier(Network& net, VerifierOptions opts = {},
                    const FaultInjector* fault = nullptr);

  /// Run the armed checks; call once per cycle after the system stepped.
  void step(Cycle now);

  /// Ejection observer (public so tests can replay records directly).
  void observe_eject(const PacketRecord& rec);

  /// One unconditional full sweep (used after quiescing a run); closes the
  /// incident log with the overflow record when violations were suppressed.
  void final_check(Cycle now);

  /// Violations that get a state dump and an incident record.
  static constexpr std::uint64_t kMaxLoggedViolations = 200;

  std::uint64_t violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  const std::string& last_violation() const { return last_violation_; }

 private:
  /// Every public constructor lands here; `flov` null selects the
  /// conservation-only form.
  InvariantVerifier(Network& net, FlovNetwork* flov,
                    const FaultInjector* fault, VerifierOptions opts);

  /// One check: read the fabric once, then every armed predicate.
  void run_checks(Cycle now, const std::vector<PowerState>& states);
  /// The single read: counts every flit inside the fabric and, with credit
  /// checks armed, folds each wire, latch and downstream buffer into the
  /// counters of the credit segment it belongs to.
  void snapshot();
  void check_conservation(Cycle now);
  /// Reliable-delivery bookkeeping (noc.reliable only): per NI, every
  /// allocated sequence number is acked, declared dead, or still tracked in
  /// the retransmit buffer — no flow is ever silently forgotten.
  void check_delivery(Cycle now);
  void check_credits(Cycle now);
  void check_psr(Cycle now, const std::vector<PowerState>& states);
  void track_fsm_changes(Cycle now);
  /// Recomputes the credit segments from the current router modes.
  void rebuild_segments();
  /// Recomputes every expected PSR pointer and settle horizon from
  /// `states` and the last-change stamps.
  void rebuild_psr_table(const std::vector<PowerState>& states);
  PowerState state_of(NodeId id) const;
  void violation(Cycle now, const std::string& what);

  Network& net_;
  FlovNetwork* flov_ = nullptr;  ///< null for the conservation-only form
  const FaultInjector* fault_ = nullptr;
  VerifierOptions opts_;
  int nvc_ = 0;

  // --- wiring, fixed at construction, [node * 4 + d] / [node * 2 + k] ---
  /// The flit channel each router sends on toward d (null at an edge).
  std::vector<const Channel<Flit>*> mesh_wires_;
  /// The credit channel each router receives on for its output toward d
  /// (null at an edge).
  std::vector<const Channel<Credit>*> credit_wires_;
  /// Each router's injection and ejection flit channels.
  std::vector<const Channel<Flit>*> local_wires_;

  // --- ejection record ---
  /// Bit `id` set once packet `id` ejected (ids are dense: NIs number
  /// packets 1 + node + seq * nodes).
  std::vector<std::uint64_t> ejected_;
  /// Ejection count of each packet seen more than once.
  std::unordered_map<std::uint64_t, int> repeat_ejects_;

  // --- credit segments: segment s runs from powered router u toward d to
  // --- the nearest powered router c. Rebuilt when a router mode changes.
  struct CreditSegment {
    NodeId u;
    NodeId c;
    Direction d;
  };
  std::vector<CreditSegment> segments_;
  std::vector<RouterMode> segment_modes_;  ///< modes the table is valid for
  /// Offset (segment * nvc) of the counter row each record feeds; records
  /// no segment claims feed a spare row past the last segment.
  std::vector<std::int32_t> wire_row_;    ///< [node * 4 + d]
  std::vector<std::int32_t> latch_row_;   ///< [node * 4 + d]
  std::vector<std::int32_t> buffer_row_;  ///< [node * 5 + port]
  /// Per-check counters, [segment * nvc + vc]: u's output credits, flits
  /// and credits in flight on the segment, and c's occupied input slots.
  std::vector<std::int32_t> seg_out_credits_;
  std::vector<std::int32_t> seg_flits_;
  std::vector<std::int32_t> seg_returning_;
  std::vector<std::int32_t> seg_occupied_;
  std::uint64_t inside_flits_ = 0;  ///< snapshot's in-fabric flit count

  // --- PSR table: per (node, dir) the true nearest non-sleeping router and
  // --- the latest FSM change along the run up to it. Rebuilt when a power
  // --- state (or a last-change stamp) changes.
  std::vector<NodeId> psr_expected_;        ///< [node * 4 + d]
  std::vector<Cycle> psr_horizon_;          ///< [node * 4 + d]
  std::vector<PowerState> psr_states_;      ///< states the table is valid for
  bool psr_dirty_ = true;

  std::vector<PowerState> prev_state_;
  std::vector<Cycle> last_fsm_change_;
  /// Consecutive failing samples per (node, dir) pointer check.
  std::vector<std::array<int, kNumMeshDirs>> psr_fail_streak_;

  std::uint64_t violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::string last_violation_;
};

}  // namespace flov
