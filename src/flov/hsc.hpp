// HandShake Control logic (HSC) — one per router (paper Sections III/IV).
//
// Implements the power-state FSM (Active -> Draining -> Sleep -> Wakeup ->
// Active, Fig. 2) and the rFLOV/gFLOV handshake protocols:
//   * drain request/abort/done signalling with smaller-id arbitration for
//     simultaneous drains;
//   * rFLOV: handshakes with physical neighbors only, and refuses to drain
//     unless all physical neighbors are Active (no two adjacent routers
//     gated);
//   * gFLOV: handshakes with logical neighbors (nearest powered-on, relayed
//     across sleeping runs), forbids Draining–Draining and Draining–Wakeup
//     logical pairs (Wakeup priority), and defers wakeup while a logical
//     neighbor drains;
//   * wakeup with the Table-I 10-cycle power-on latency, triggered by the
//     core waking or by a WakeupTrigger for an incoming packet.
//
// Engineering addition (documented in DESIGN.md): a draining router aborts
// back to Active after `drain_abort_timeout` cycles. This breaks a corner
// case the paper does not address, where a draining router holds a packet
// whose sleeping destination defers its own wakeup *because of* the drain.
//
// Signal-loss tolerance (PROTOCOL.md §7, all [impl]): when the fault model
// is armed, handshake signals can be lost. The HSC recovers distributedly:
// overdue DrainDones cause bounded DrainReq/WakeupNotify retries, sleeping
// routers can periodically re-announce themselves, stale output-blocked
// PSR flags time out, and a powered absorber of a WakeupTrigger replies
// ActiveNotify so the requester's stale view heals. All of this is
// quiescent in a fault-free run: retries only fire when something is
// overdue, and the optional behaviours default off.
//
// Active set (docs/PERFORMANCE.md, "Control-plane active set"): the owner
// steps an HSC only while its flag in a WakeList is set. After a step the
// flag is cleared if quiescent() holds — a predicate over the FSM state
// alone, never the clock, so a quiescent HSC's step stays a no-op at every
// later cycle. Each entry point that can change that state (set_core_gated,
// kill, on_signal, trigger_wakeup, recovery_kick) re-arms the flag itself.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "flov/handshake_signals.hpp"
#include "noc/active_set.hpp"
#include "noc/noc_params.hpp"
#include "noc/power_state.hpp"

namespace flov {

class Router;
class SignalFabric;
class FlovNetwork;

enum class FlovMode : std::uint8_t {
  kRestricted = 0,  ///< rFLOV
  kGeneralized,     ///< gFLOV
};

class HandshakeController {
 public:
  HandshakeController(NodeId id, FlovMode mode, const NocParams& params,
                      Router* router, SignalFabric* fabric,
                      FlovNetwork* owner);

  NodeId id() const { return id_; }
  PowerState state() const { return state_; }
  bool core_gated() const { return core_gated_; }
  bool wakeup_pending() const { return wakeup_pending_; }

  void set_core_gated(bool gated, Cycle now);

  /// Hard fault (PROTOCOL.md §8): this router is permanently dead. Forces a
  /// drain to Sleep that can never abort, time out, or wake again; the
  /// FLOV bypass latches are assumed to survive (they are always-on
  /// circuitry separate from the gated pipeline), so traffic flies over the
  /// corpse and self-destined flits sink into the killed NI. Idempotent.
  void kill(Cycle now);
  bool dead() const { return dead_; }

  /// Per-cycle FSM evaluation (after routers and signal deliveries).
  void step(Cycle now);

  /// Active-set hook: the entry points below re-arm flag `index` of `list`
  /// (set once by the owner; null in HSC unit tests).
  void set_wake_target(WakeList* list, int index) {
    wake_ = list;
    wake_index_ = index;
  }

  /// True when step() is a no-op now and at every later cycle until an
  /// entry point re-arms this HSC: nothing owed, not mid-transition, no
  /// drain to start, no wake reason, no heartbeat and no PSR block to time
  /// out. Reads no clock, so the answer cannot go stale while skipped.
  bool quiescent() const;

  /// Signal arrival; returns true if this router absorbs it.
  bool on_signal(const HsMessage& msg, Cycle now);

  /// A neighbor holds a packet for this router's core (hold-for-wakeup).
  void trigger_wakeup(Cycle now);

  /// Watchdog recovery: re-arm and immediately re-send every outstanding
  /// DrainReq/WakeupNotify whose DrainDone never arrived. No-op unless the
  /// FSM is mid-transition with unanswered obligations.
  void recovery_kick(Cycle now);

  /// Writes the FSM state and outstanding handshake obligations to stderr
  /// (stall diagnostics).
  void dump(Cycle now) const;

  // Stats for tests/benches.
  std::uint64_t sleep_entries() const { return sleep_entries_; }
  std::uint64_t wake_completions() const { return wake_completions_; }
  std::uint64_t drain_aborts() const { return drain_aborts_; }
  std::uint64_t hs_resends() const { return hs_resends_; }
  std::uint64_t psr_block_clears() const { return psr_block_clears_; }
  /// Cycles spent power-gated (Sleep state) up to `now`.
  Cycle sleep_cycles(Cycle now) const {
    Cycle t = total_sleep_cycles_;
    if (state_ == PowerState::kSleep) t += now - state_since_;
    return t;
  }

 private:
  struct Expected {
    Direction dir;
    NodeId partner;
    bool done = false;
    Cycle last_sent = 0;  ///< last DrainReq/WakeupNotify toward partner
    int resends = 0;
  };
  struct Obligation {
    Direction dir;
    NodeId requester;
    std::uint32_t epoch = 0;  ///< echoed back in the DrainDone
  };

  bool can_start_drain(Cycle now) const;
  bool can_start_wakeup() const;
  void enter_draining(Cycle now);
  void abort_drain(Cycle now);
  void enter_sleep(Cycle now);
  void enter_wakeup(Cycle now);
  void enter_active(Cycle now);
  void service_obligations(Cycle now);
  /// Re-sends the drain/wakeup request to partners whose DrainDone is
  /// overdue (bounded by hs_retry_limit; disabled when hs_retry_timeout=0).
  void retry_expected(Cycle now, HsType type);
  /// Records/merges a DrainDone obligation toward `requester` (idempotent,
  /// so retried and duplicated requests do not stack).
  void add_obligation(Direction dir, NodeId requester, std::uint32_t epoch);
  void heartbeat_sleep_announce(Cycle now);
  void expire_stale_blocks(Cycle now);
  /// On a SleepNotify from a current handshake partner: pass the pending
  /// drain/wakeup leg on to the powered router beyond it.
  void retarget_expected(const HsMessage& msg, Cycle now);
  /// On an ActiveNotify from a router nearer than an un-done leg's partner:
  /// adopt it as the new partner (it now absorbs our retries).
  void adopt_nearer_partner(const HsMessage& msg, Direction from_dir,
                            Cycle now);
  /// True when `msg` is a state-bearing signal from a previous episode of
  /// the sender (per-direction epoch regression) and must be ignored.
  bool stale_signal(const HsMessage& msg, Direction from_dir);
  void update_psr(Direction from_dir, const HsMessage& msg, Cycle now);
  /// Handshake partner in direction `d` (physical for rFLOV, logical for
  /// gFLOV); kInvalidNode if none.
  NodeId partner(Direction d) const;
  void send(Cycle now, HsType type, Direction travel, NodeId target,
            NodeId logical_beyond = kInvalidNode);
  /// DrainDone variant: echoes the obligation's epoch, not epoch_.
  void send_done(Cycle now, Direction travel, NodeId target,
                 std::uint32_t epoch);
  void wake() {
    if (wake_) wake_->mark(wake_index_);
  }

  NodeId id_;
  FlovMode mode_;
  NocParams params_;
  Router* router_;
  SignalFabric* fabric_;
  FlovNetwork* owner_;
  WakeList* wake_ = nullptr;
  int wake_index_ = 0;

  PowerState state_ = PowerState::kActive;
  bool core_gated_ = false;
  bool dead_ = false;  ///< hard-faulted; terminal (see kill())
  Cycle state_since_ = 0;
  Cycle drain_deadline_ = kNeverCycle;
  /// Bumped on every Draining/Wakeup entry; stamped into requests so stale
  /// DrainDones (replies to an aborted episode) cannot complete this one.
  std::uint32_t epoch_ = 0;

  std::vector<Expected> expected_;
  std::vector<Obligation> owed_;

  bool wakeup_pending_ = false;
  bool wake_drained_ = false;
  Cycle power_on_ready_ = kNeverCycle;

  /// Cycle each direction's output_blocked flag was last (re)asserted.
  std::array<Cycle, kNumMeshDirs> blocked_since_{};
  /// Per-direction sender/epoch of the newest state-bearing signal seen:
  /// a delayed or duplicated signal from an EARLIER episode of the same
  /// router must not rewrite the PSRs (e.g. a stale SleepNotify unblocking
  /// a router that is mid-Wakeup lets a worm launch into its latches).
  std::array<NodeId, kNumMeshDirs> psr_owner_{};
  std::array<std::uint32_t, kNumMeshDirs> psr_epoch_{};

  std::uint64_t sleep_entries_ = 0;
  std::uint64_t wake_completions_ = 0;
  std::uint64_t drain_aborts_ = 0;
  std::uint64_t hs_resends_ = 0;
  std::uint64_t psr_block_clears_ = 0;
  Cycle total_sleep_cycles_ = 0;
};

}  // namespace flov
