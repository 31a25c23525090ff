// Common interface over a mesh network plus a power-gating scheme.
//
// The experiment harness drives Baseline / rFLOV / gFLOV / RP uniformly:
// it reports core (un)gating events from the OS model and steps the system
// one cycle at a time; the scheme decides how routers react. At the end of
// a run and on diagnostic paths it reads back what every scheme reports
// through the same interface; only the builder knows the concrete scheme.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "noc/network.hpp"

namespace flov {

class FaultInjector;
namespace telemetry {
class MetricsRegistry;
}

/// Handshake-protocol counters (zero for schemes without a handshake).
struct ProtocolStats {
  std::uint64_t sleeps = 0;         ///< completed Sleep entries
  std::uint64_t wakeups = 0;        ///< completed wakeups
  std::uint64_t drain_aborts = 0;
  Cycle sleep_cycles = 0;           ///< total router-cycles spent gated
  double avg_gated_routers = 0.0;   ///< sleep_cycles / elapsed cycles
  std::uint64_t hs_resends = 0;     ///< recovery re-sends (HSC retries)
  std::uint64_t trigger_resends = 0;
  std::uint64_t psr_block_clears = 0;
  std::uint64_t self_captures = 0;  ///< bypass self-destined captures
  std::uint64_t recoveries = 0;     ///< watchdog attempt_recovery calls
};

class NocSystem {
 public:
  virtual ~NocSystem() = default;

  /// Advances network + scheme machinery by one cycle.
  virtual void step(Cycle now) = 0;

  /// OS-level core power event (Section I: FLOV reacts to OS core gating).
  virtual void set_core_gated(NodeId core, bool gated, Cycle now) = 0;
  virtual bool core_gated(NodeId core) const = 0;

  /// Moves whenever some core_gated() value may have changed: every scheme
  /// bumps it on each write of its gating state (OS events, hard-fault
  /// deaths, quarantines). Readers that cache the gated set (the traffic
  /// generator) rescan only when it moved.
  std::uint64_t gating_version() const { return gating_version_; }

  /// True when `src` may inject new packets this cycle (false for gated
  /// cores, and for everyone during RP's reconfiguration stall).
  virtual bool injection_allowed(NodeId src) const = 0;

  /// Watchdog escalation hook: try to un-wedge a stalled fabric (e.g. by
  /// re-issuing lost handshake signals). Returns true if the scheme did
  /// anything worth granting a fresh progress window for; the default
  /// scheme has no recovery story.
  virtual bool attempt_recovery(Cycle now) {
    (void)now;
    return false;
  }

  /// True when routers run a handshake power-state machine (FLOV's HSC).
  /// Only then do runs emit series.gated_routers and the power_state field
  /// of stall incidents.
  virtual bool has_power_fsm() const { return false; }

  /// Numeric scheme power state of `node`'s router for observability
  /// surfaces (the ops-plane snapshot grids). FLOV schemes report their
  /// HSC PowerState; schemes without one report 0 (== kActive).
  virtual std::uint8_t power_state_code(NodeId node) const {
    (void)node;
    return 0;
  }

  virtual Network& network() = 0;
  virtual const Network& network() const = 0;

  virtual const char* name() const = 0;

  // --- what every scheme reports (end of run and diagnostics) ---
  virtual PowerTracker& power() = 0;
  virtual const PowerTracker& power() const = 0;
  /// The armed fault injector, or null when running fault-free.
  virtual const FaultInjector* fault_injector() const = 0;
  /// Per-node hard-fault flags (all zero until fault.hard_at_cycle).
  virtual const std::vector<char>& dead_mask() const = 0;
  virtual int dead_link_count() const = 0;  ///< dead directed links
  int dead_router_count() const {
    int n = 0;
    for (char c : dead_mask()) n += c != 0;
    return n;
  }
  /// Wakeup requests swallowed because their target died (FLOV only).
  virtual std::uint64_t wake_requests_dropped() const { return 0; }

  /// Routers currently power-gated: asleep or waking for FLOV, parked for
  /// RP, none for the baseline.
  virtual int gated_router_count() const { return 0; }

  /// Protocol counters at cycle `now`. Without a handshake the gated set
  /// is steady between reconfigurations, so the current count stands in
  /// for the time average.
  virtual ProtocolStats protocol_stats(Cycle now) const {
    (void)now;
    ProtocolStats s;
    s.avg_gated_routers = gated_router_count();
    return s;
  }

  /// Registers/updates the scheme's own metrics (its "flov.*" / "rp.*"
  /// keys and the "fault.*" keys of its armed injector) in `reg`.
  virtual void publish_metrics(telemetry::MetricsRegistry& reg,
                               Cycle now) const = 0;

  /// Stall diagnostics on stderr; the default dumps every router holding
  /// flits.
  virtual void dump_state(Cycle now) const {
    const Network& net = network();
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      const Router& r = net.router(id);
      if (!r.completely_empty()) r.dump_occupancy(now);
    }
  }

 protected:
  void note_gating_change() { ++gating_version_; }

 private:
  std::uint64_t gating_version_ = 0;
};

}  // namespace flov
