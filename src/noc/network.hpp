// The k x k mesh: routers, network interfaces, and the channels that wire
// them. The Network is policy-free — power-gating schemes (flov/, rp/) wrap
// it and drive router modes, neighborhood views, and injection stalls.
//
// Hot state lives in a struct-of-arrays slab (noc/hot_state.hpp) owned
// here: routers, NIs and channels are stored by value in id-ordered
// vectors, and the fields Router::step touches every cycle are contiguous
// per-mesh arrays — a 64x64 sweep walks linear memory instead of chasing
// 4096 heap objects.
//
// With params.step_threads > 1 (or an explicit step_tiles_x/y grid) the
// mesh is statically partitioned into rectangular tile domains, each
// stepped by its own worker under a per-cycle barrier. Because every
// channel has latency >= 1, a send made at cycle t is only observable at
// t+1 (docs/PERFORMANCE.md, "The lookahead invariant"), so cross-domain
// traffic can be staged sender-side and merged at the barrier: the parallel
// schedule is bit-identical to serial by construction, not by sampling.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"
#include "noc/channel.hpp"
#include "noc/hot_state.hpp"
#include "noc/network_interface.hpp"
#include "noc/noc_params.hpp"
#include "noc/router.hpp"
#include "noc/routing_iface.hpp"
#include "noc/step_pool.hpp"
#include "power/power_tracker.hpp"
#include "telemetry/ops/profile.hpp"
#include "telemetry/trace.hpp"

namespace flov {

namespace telemetry {
class MetricsRegistry;
}

class Network {
 public:
  /// `routing` and `power` are borrowed (must outlive the network);
  /// `power` may be null for pure-functional tests.
  Network(const NocParams& params, RoutingFunction* routing,
          PowerTracker* power);

  const NocParams& params() const { return params_; }
  const MeshGeometry& geom() const { return geom_; }

  Router& router(NodeId id) { return routers_[id]; }
  const Router& router(NodeId id) const { return routers_[id]; }
  NetworkInterface& ni(NodeId id) { return nis_[id]; }
  const NetworkInterface& ni(NodeId id) const { return nis_[id]; }
  int num_nodes() const { return geom_.num_nodes(); }

  /// Tile-domain decomposition (1 domain == serial stepping).
  int num_domains() const { return num_domains_; }
  int domain_of(NodeId id) const { return node_domain_[id]; }
  int tiles_x() const { return tiles_x_; }
  int tiles_y() const { return tiles_y_; }

  /// Advances the fabric by one cycle. Active-set scheduled: routers and
  /// NIs whose step would provably be a no-op (power-gated with empty
  /// latches, or simply empty-handed — exactly the population FLOV
  /// maximizes) are skipped until an event re-arms them: a flit or credit
  /// send toward them, a packet enqueue, a mode switch, or a handshake-
  /// driven wake_router()/wake_ni(). Iteration stays in node-id order, and
  /// skipped VA ticks are replayed (Router::step), so results are
  /// bit-identical to stepping every component every cycle. With more than
  /// one domain, the domains run concurrently and the barrier then merges
  /// staged cross-domain sends, wake marks and ejection records — ejections
  /// via a k-way merge back into global node-id order, preserving
  /// bit-identity for any tile grid.
  void step(Cycle now);

  /// Re-arm hooks for scheme layers (FLOV credit handovers, recovery
  /// scrubs) that mutate router/NI state without going through a channel.
  /// Serial control-plane only (never from a domain worker).
  void wake_router(NodeId id) { router_live_.mark(id); }
  void wake_ni(NodeId id) { ni_live_.mark(id); }
  /// Counter hook for the fault layer: a flit was dropped on the wire after
  /// injection, so it will never reach an NI (keeps in_network_flits()
  /// exact under flit-drop faults). `sender` routes the increment to the
  /// sending router's domain shard — fault hooks run on the sender's
  /// worker during the parallel phase.
  void note_flit_dropped(NodeId sender) {
    counter_shards_[node_domain_[sender]].c.dropped_flits++;
  }

  void enqueue(const PacketDescriptor& pkt) { nis_[pkt.src].enqueue(pkt); }

  /// Installs THE primary ejection callback (replaces any previous one but
  /// keeps observers added with add_eject_callback). With multiple domains
  /// the callback runs at the barrier, replayed in node-id order — callers
  /// never need to be thread-safe.
  void set_eject_callback(std::function<void(const PacketRecord&)> cb);

  /// Adds a passive ejection observer notified after the primary callback
  /// (survives a later set_eject_callback; used by the invariant verifier).
  void add_eject_callback(std::function<void(const PacketRecord&)> cb);

  /// Flits currently inside the fabric: router buffers + FLOV latches +
  /// every flit channel (inter-router and local). With the NI counters this
  /// closes the conservation equation injected == ejected + in_network.
  /// O(1): incrementally maintained, FLOV_DCHECKed against the full walk.
  std::uint64_t in_network_flits() const;

  /// No flits anywhere: buffers, latches, channels, NI queues/streams. O(1).
  bool idle() const;

  /// No flits in flight (buffers/latches/channels/mid-injection streams);
  /// NI queues MAY hold packets — this is RP's drain condition, under
  /// which queued traffic accumulates (the Fig. 10 queuing delay). O(1).
  bool in_flight_empty() const;

  std::uint64_t total_injected_flits() const;
  std::uint64_t total_ejected_flits() const;
  std::uint64_t total_queued_packets() const;

  /// Ground-truth recounts by walking every component — what the O(1)
  /// getters above are debug-checked against. The invariant verifier MUST
  /// use these (a cached counter cannot witness its own drift).
  std::uint64_t recount_in_network_flits() const;
  bool recount_idle() const;
  bool recount_in_flight_empty() const;

  /// The cached aggregates (verifier drift check): an ordered fold of the
  /// per-domain shards. Integer addition in fixed domain order, so the
  /// result is exact and schedule-independent.
  FabricCounters counters() const;

  /// Registers/updates the fabric-level metrics ("net.*") in `reg`:
  /// the FabricCounters aggregates plus per-router sums (switch
  /// traversals, fly-overs, escape diversions, self-captures).
  void publish_metrics(telemetry::MetricsRegistry& reg) const;

  /// Read-only view of the hot-state slab, for observers that walk every
  /// router's buffers and latches in node order (the invariant verifier).
  const MeshHotState& hot_state() const { return hot_; }

  /// The inter-router flit channel leaving `node` toward `d` (null at mesh
  /// edges). Exposed for the FLOV credit-handover and for tests.
  Channel<Flit>* flit_channel(NodeId node, Direction d) {
    return flit_out_[node][dir_index(d)];
  }

 private:
  /// One rectangular tile domain: columns [x0, x1) x rows [y0, y1).
  struct DomainRect {
    int x0, x1, y0, y1;
  };

  /// Steps domain `dom`'s routers then NIs, in node-id order.
  void step_domain(int dom, Cycle now);
  /// Barrier-side merge: folds the staged boundary channel sends, drains
  /// the wake stages and replays ejections.
  void merge_staged();

  NocParams params_;
  MeshGeometry geom_;

  /// Struct-of-arrays hot state. Sized before any component is constructed
  /// and never resized afterwards (routers/NIs hold pointers into it).
  MeshHotState hot_;

  /// Channels by value, exact-reserved before wiring (components hold raw
  /// pointers — the vectors must never reallocate).
  std::vector<Channel<Flit>> flit_channels_;
  std::vector<Channel<Credit>> credit_channels_;
  std::vector<Router> routers_;
  std::vector<NetworkInterface> nis_;
  /// flit_out_[node][dir] aliases the channel owned by flit_channels_.
  std::vector<std::array<Channel<Flit>*, kNumPorts>> flit_out_;

  /// Active-set state: which routers/NIs must be stepped this cycle.
  /// Channel sends, enqueues, mode switches, and wake_*() re-arm entries;
  /// step() clears an entry once the component proves quiescent. During the
  /// parallel phase each domain only touches its own nodes' flags (distinct
  /// bytes — no race); cross-domain marks go through wake_stages_.
  WakeList router_live_;
  WakeList ni_live_;

  // --- domain decomposition (sized before any component is wired; the
  // --- shard pointers handed to NIs must never move) ---
  int num_domains_ = 1;
  int tiles_x_ = 1;
  int tiles_y_ = 1;
  std::vector<int> node_domain_;       ///< node -> domain
  std::vector<DomainRect> domain_rect_;
  /// Per-domain FabricCounters, each padded to its own cache line(s); each
  /// NI (and the fault-drop hook) writes only its own domain's shard.
  /// counters() folds them in domain order.
  std::vector<CounterShard> counter_shards_;
  /// Per-domain staged router wake marks for cross-domain channel sends;
  /// ORed into router_live_ at the barrier.
  std::vector<WakeList> wake_stages_;
  /// Per-domain ascending ids of the routers receiving on that domain's
  /// boundary channels: the only flags its wake stage can hold, so the
  /// barrier drains these instead of all N entries.
  std::vector<std::vector<NodeId>> stage_receivers_;
  /// Channels whose sender and receiver live in different domains; they
  /// run in staging mode and are merged (in wiring == deterministic order)
  /// at the barrier. Row splits put N/S links on the boundary, column
  /// splits E/W links — the generic sender/receiver domain test catches
  /// both.
  std::vector<Channel<Flit>*> boundary_flit_;
  std::vector<Channel<Credit>*> boundary_credit_;
  /// Per-domain ejection-record staging, tagged with the ejecting NI's node
  /// id: with >1 domain the NIs' primary callback appends here and the
  /// barrier replays user_eject_cb_ + eject_observers_ through a k-way
  /// min-front merge back into global node-id order (LatencyStats
  /// accumulates doubles — replay order must match serial exactly; with
  /// tile grids, concatenating stages in domain order is no longer
  /// id-sorted, so the merge is what preserves bit-identity).
  std::vector<std::vector<std::pair<NodeId, PacketRecord>>> eject_stage_;
  std::vector<std::size_t> eject_merge_pos_;  ///< merge scratch (no alloc)
  std::function<void(const PacketRecord&)> user_eject_cb_;
  std::vector<std::function<void(const PacketRecord&)>> eject_observers_;
  /// Workers for domains 1..num_domains-1 (domain 0 always steps on the
  /// calling thread); null when there is a single domain.
  std::unique_ptr<StepPool> pool_;
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
  /// The run's tracer while a parallel step is in flight; workers bind
  /// their domain's shard ring from it (published by the pool's epoch
  /// release/acquire pair).
  telemetry::Tracer* step_tracer_ = nullptr;
#endif
#if defined(FLYOVER_PROFILING) && FLYOVER_PROFILING
  /// The run's phase profiler while a parallel step is in flight; workers
  /// bind (profiler, their domain) so FLOV_PROFILE scopes attribute
  /// per-domain (published by the pool's epoch release/acquire pair).
  telemetry::PhaseProfiler* step_profiler_ = nullptr;
#endif
};

}  // namespace flov
