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
// A violation dumps the offending neighborhood and either aborts via
// FLOV_CHECK (fatal=true, the default) or is counted (for tests that
// assert the verifier fires).
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

  /// One unconditional full sweep (used after quiescing a run).
  void final_check(Cycle now);

  std::uint64_t violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  const std::string& last_violation() const { return last_violation_; }

 private:
  /// Every public constructor lands here; `flov` null selects the
  /// conservation-only form.
  InvariantVerifier(Network& net, FlovNetwork* flov,
                    const FaultInjector* fault, VerifierOptions opts);

  void check_conservation(Cycle now);
  /// Reliable-delivery bookkeeping (noc.reliable only): per NI, every
  /// allocated sequence number is acked, declared dead, or still tracked in
  /// the retransmit buffer — no flow is ever silently forgotten.
  void check_delivery(Cycle now);
  void check_credits(Cycle now);
  void check_psr(Cycle now);
  void track_fsm_changes(Cycle now);
  bool segment_settled(NodeId from, Direction d, NodeId to, Cycle now) const;
  PowerState state_of(NodeId id) const;
  void violation(Cycle now, const std::string& what);

  Network& net_;
  FlovNetwork* flov_ = nullptr;  ///< null for the conservation-only form
  const FaultInjector* fault_ = nullptr;
  VerifierOptions opts_;

  std::unordered_map<std::uint64_t, int> eject_counts_;
  std::vector<int> free_slots_scratch_;  ///< Router::input_free_slots scratch
  std::vector<PowerState> prev_state_;
  std::vector<Cycle> last_fsm_change_;
  /// Consecutive failing samples per (node, dir) pointer check.
  std::vector<std::array<int, kNumMeshDirs>> psr_fail_streak_;

  std::uint64_t violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::string last_violation_;
};

}  // namespace flov
