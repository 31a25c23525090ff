// Hop-by-hop delivery of out-of-band handshake signals.
//
// A signal injected at router A traveling direction d reaches A's neighbor
// one cycle later. Each receiver decides (via its handler) whether it
// absorbs the signal (powered routers do) or forwards it to the next router
// along d (sleeping routers do, after updating their PSRs). This reproduces
// both the 1-cycle-per-hop control-wire timing and the gFLOV relay
// behaviour without any router seeing non-local state.
#pragma once

#include <functional>
#include <vector>

#include "common/geometry.hpp"
#include "flov/handshake_signals.hpp"
#include "power/power_tracker.hpp"

namespace flov {

class FaultInjector;

class SignalFabric {
 public:
  /// Handler: invoked at `at` when a message arrives; returns true if the
  /// router absorbs the signal (stops propagation).
  using Handler = std::function<bool(NodeId at, const HsMessage&)>;

  SignalFabric(const MeshGeometry& geom, PowerTracker* power)
      : geom_(geom), power_(power) {}

  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Arms the fault model (non-owning; null = reliable wires). Every hop —
  /// initial send and each sleeping-router relay — rolls its own fate.
  void set_fault_injector(FaultInjector* f) { fault_ = f; }

  /// Injects a signal at `msg.from`, traveling `msg.travel`; first delivery
  /// happens next cycle at the adjacent router.
  void send(Cycle now, const HsMessage& msg);

  /// Delivers everything due at `now` (called once per cycle, after the
  /// routers have stepped).
  void step(Cycle now);

  bool idle() const { return queue_.empty(); }

 private:
  struct InFlight {
    Cycle deliver_at;
    NodeId next;  ///< router about to receive it
    HsMessage msg;
  };

  /// One hop toward `next`, subject to the fault model (drop/delay/dup).
  void enqueue_hop(Cycle now, NodeId next, const HsMessage& msg);

  const MeshGeometry& geom_;
  PowerTracker* power_;
  Handler handler_;
  FaultInjector* fault_ = nullptr;
  /// Unsorted when delay faults are armed; step() scans the whole queue.
  std::vector<InFlight> queue_;
  /// step()'s due list, kept across cycles so a quiet cycle allocates
  /// nothing.
  std::vector<InFlight> due_;
};

}  // namespace flov
