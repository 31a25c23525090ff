// FLOV system: mesh network + per-router HSCs + signal fabric + the
// credit-handover transactions performed at Sleep/Active transitions.
//
// The handover models the paper's credit copy ("the credit counts of its
// downstream router are copied to the upstream router"): at the cycle a
// router finishes gating, the nearest powered-on upstream router's credit
// counters for each flow direction are reloaded with the nearest powered-on
// downstream router's free-buffer counts, minus flits still in flight on
// the wire, and stale relay credits on the segment are voided. From then
// on credits relay hop-by-hop through the sleeping run with real 1-cycle
// latency — the "round-trip credit loop" cost the paper discusses is fully
// modeled; only the instantaneous copy at the transition edge is idealized.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "flov/hsc.hpp"
#include "flov/signal_fabric.hpp"
#include "noc/network.hpp"
#include "noc/system_iface.hpp"
#include "power/power_tracker.hpp"
#include "routing/flov_routing.hpp"

namespace flov {

class FlovNetwork final : public NocSystem {
 public:
  /// `faults`: optional fault model; all-zero (the default) injects nothing
  /// and installs no hooks (fault support is then zero-cost).
  FlovNetwork(const NocParams& params, FlovMode mode,
              const EnergyParams& energy, const FaultParams& faults = {});

  // --- NocSystem ---
  void step(Cycle now) override;
  bool attempt_recovery(Cycle now) override;
  void set_core_gated(NodeId core, bool gated, Cycle now) override;
  bool core_gated(NodeId core) const override {
    return hscs_[core]->core_gated();
  }
  bool injection_allowed(NodeId src) const override {
    return !hscs_[src]->core_gated();
  }
  Network& network() override { return *net_; }
  const Network& network() const override { return *net_; }
  bool has_power_fsm() const override { return true; }
  std::uint8_t power_state_code(NodeId node) const override {
    return static_cast<std::uint8_t>(hscs_[node]->state());
  }
  const char* name() const override {
    return mode_ == FlovMode::kRestricted ? "rFLOV" : "gFLOV";
  }
  PowerTracker& power() override { return *power_; }
  const PowerTracker& power() const override { return *power_; }
  const FaultInjector* fault_injector() const override { return fault_.get(); }
  /// Per-node hard-fault flags (flipped once at fault.hard_at_cycle; shared
  /// with every router's hold-for-wakeup test via Router::set_dead_mask).
  const std::vector<char>& dead_mask() const override { return dead_mask_; }
  int dead_link_count() const override { return dead_links_; }
  /// WakeupTriggers swallowed because the target is dead (each is a packet
  /// waiting on a corpse; the sender's retransmit/dead-declaration path is
  /// what eventually resolves it).
  std::uint64_t wake_requests_dropped() const override {
    return wake_requests_dropped_;
  }
  /// Routers asleep or waking up.
  int gated_router_count() const override;
  ProtocolStats protocol_stats(Cycle now) const override;
  /// Registers/updates the handshake-protocol and fault-injection metrics
  /// ("flov.*" / "fault.*") in `reg`.
  void publish_metrics(telemetry::MetricsRegistry& reg,
                       Cycle now) const override;
  /// HSC + occupancy dump of every non-quiescent router.
  void dump_state(Cycle now) const override;

  FlovMode mode() const { return mode_; }

  HandshakeController& hsc(NodeId id) { return *hscs_[id]; }
  const HandshakeController& hsc(NodeId id) const { return *hscs_[id]; }

  // --- hooks used by the HSCs ---
  /// Routers in the AON column never power-gate (Section V).
  bool gating_forbidden(NodeId id) const {
    return net_->geom().is_aon_column(id);
  }
  bool ni_idle(NodeId id) const { return net_->ni(id).idle(); }
  /// Gate the NI while the router datapath is unavailable: a re-activated
  /// core's packets queue (wakeup latency shows up as queuing delay) and
  /// are injected once the router is Active again.
  void set_ni_stalled(NodeId id, bool stalled) {
    net_->ni(id).set_injection_stalled(stalled);
  }
  /// No flits on the wire/latches between `from` (exclusive) and `to`
  /// (exclusive) along `dir`.
  bool path_clear(NodeId from, Direction dir, NodeId to) const;
  /// Credit-handover at Sleep entry of router `b`.
  void sleep_handover(NodeId b, Cycle now);
  /// Credit-handover + view refresh when router `w` turns Active.
  void wake_handover(NodeId w, Cycle now);
  /// Sends a WakeupTrigger from `requester` toward sleeping `target`
  /// (deduplicated: no-op if the target is already waking or triggered,
  /// until `trigger_retry_timeout` declares the trigger lost and re-arms).
  /// `requester == target` is the gated router's own self-capture path and
  /// flags the wakeup directly.
  void request_wakeup(NodeId requester, NodeId target, Cycle now);

  /// PROTOCOL.md §8: true once `id` hard-faulted.
  bool router_dead(NodeId id) const { return dead_mask_[id] != 0; }

 private:
  /// Nearest router in `dir` from `b` (exclusive) whose datapath is
  /// kPipeline; kInvalidNode if the line ends first.
  NodeId nearest_pipeline(NodeId b, Direction dir) const;
  /// In-flight flits per absolute VC on the path from `from` (exclusive
  /// latches, inclusive of `from`'s outgoing channel) up to `to`.
  std::vector<int> inflight_per_vc(NodeId from, Direction dir,
                                   NodeId to) const;
  /// Voids stale credits on every credit back-channel of the path
  /// `from` -> `to` along `dir`.
  void clear_credit_path(NodeId from, Direction dir, NodeId to);
  /// Recomputes `w`'s NeighborhoodView from current global state (models
  /// the state refresh a router receives upon wakeup).
  void refresh_view(NodeId w);
  void handover_flow(NodeId b, Direction flow, bool waking, Cycle now);
  /// Applies the armed hard faults once, at fault.hard_at_cycle: fate-hashed
  /// routers (AON column exempt) are killed (HSC forced-drain + NI sink),
  /// fate-hashed links get their poisoned-edge marks (the channel fault
  /// hooks do the actual flit killing). Serial — called before net_->step.
  void apply_hard_faults(Cycle now);

  NocParams params_;
  FlovMode mode_;
  MeshGeometry geom_;  ///< shared by routing/power (Network keeps its own copy)
  std::unique_ptr<PowerTracker> power_;
  std::unique_ptr<FlovRouting> routing_;
  std::unique_ptr<Network> net_;
  SignalFabric fabric_;
  std::unique_ptr<FaultInjector> fault_;
  std::vector<std::unique_ptr<HandshakeController>> hscs_;
  /// HSCs step() must visit this cycle. Each HSC re-arms its own flag from
  /// its entry points (and refresh_view() re-arms the refreshed router's);
  /// step() clears a flag once the HSC is quiescent().
  WakeList hsc_live_;
  /// One outstanding WakeupTrigger per sleeping target (reset at each
  /// Sleep entry); packet holders re-request every cycle otherwise. The
  /// timestamp re-arms the trigger after `trigger_retry_timeout` (loss
  /// recovery).
  std::vector<bool> trigger_sent_;
  std::vector<Cycle> trigger_sent_at_;
  /// Per-domain staging for wakeup requests raised inside Network::step when
  /// stepping domain-parallel: request_wakeup mutates HSC/fabric state shared
  /// across domains, so workers only record (requester, target) here and
  /// step() replays the requests between barriers through a k-way min-front
  /// merge by requester id: each stage is id-ascending (routers step in id
  /// order within a domain) and domains own disjoint id sets, so the replay
  /// equals serial callback order and the schedule stays bit-identical —
  /// for row bands AND for 2D tile grids, where domain order alone is not
  /// id order.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> staged_wakeups_;
  std::vector<std::size_t> wakeup_merge_pos_;  ///< merge scratch (no alloc)
  /// Scratch for Router::input_free_slots during handovers (control-plane
  /// serial code; reused to keep handovers allocation-free).
  std::vector<int> free_slots_scratch_;
  std::uint64_t trigger_resends_ = 0;
  std::uint64_t recoveries_ = 0;
  Cycle current_cycle_ = 0;
  /// Hard-fault state (all zero unless faults.hard_faults_armed()).
  std::vector<char> dead_mask_;
  int dead_links_ = 0;
  std::uint64_t wake_requests_dropped_ = 0;
};

}  // namespace flov
