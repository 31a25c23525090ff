#include "fault/fault_wiring.hpp"

#include <optional>

#include "noc/network.hpp"
#include "noc/router.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace flov {

void arm_link_faults(Network& net, FaultInjector& fault) {
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (Direction d : kMeshDirections) {
      auto* ch = net.flit_channel(id, d);
      if (!ch) continue;
      const std::uint32_t link_key = link_fate_key(id, d);
      // On a drop, tell the network (the flit was counted as injected but
      // will never eject, and the cached in-network count must not keep
      // carrying it) and refund the sender's credit — the downstream
      // buffer never sees the flit, and a dead link that leaked a credit
      // per kill would wedge its output VC permanently.
      ch->set_fault_hook([f = &fault, n = &net, id, d, link_key](
                             Cycle now, Flit& flit) -> std::optional<Cycle> {
        const std::optional<Cycle> fate = f->flit_fate(flit, link_key, now);
        if (!fate.has_value()) {
          n->note_flit_dropped(id);
          n->router(id).refund_output_credit(d, flit.vc, now);
          FLOV_TRACE(telemetry::kTraceFault,
                     telemetry::TraceEventType::kFaultFlitDrop, now, id,
                     flit.packet_id, flit.flit_index);
          return fate;
        }
        // Survivors can still take a soft error: one payload bit flips in
        // transit. Routing metadata is untouched — the flit delivers, the
        // packet is just marked corrupted.
        if (const std::uint64_t flip = f->payload_flip_mask(flit, link_key)) {
          flit.payload ^= flip;
          FLOV_TRACE(telemetry::kTraceFault,
                     telemetry::TraceEventType::kFaultPayloadFlip, now, id,
                     flit.packet_id, flit.flit_index);
        }
        if (*fate > 0) {
          FLOV_TRACE(telemetry::kTraceFault,
                     telemetry::TraceEventType::kFaultFlitDelay, now, id,
                     flit.packet_id, *fate);
        }
        return fate;
      });
    }
  }
}

void arm_kill_accounting(Network& net, FaultInjector& fault) {
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    net.router(id).set_kill_callback(
        [f = &fault, n = &net, id](const Flit& fl) {
          f->note_hard_killed(fl);
          n->note_flit_dropped(id);
        });
  }
}

void publish_link_fault_metrics(telemetry::MetricsRegistry& reg,
                                const FaultInjector& fault, int dead_routers,
                                int dead_links) {
  const FaultInjector::Counters& f = fault.counters();
  reg.counter("fault.flits_dropped") += f.flits_dropped;
  reg.counter("fault.flits_delayed") += f.flits_delayed;
  if (fault.hard_at() > 0) {
    // Hard-fault keys only exist when the hard knobs are armed.
    reg.counter("fault.hard_killed_flits") += f.hard_killed;
    reg.gauge("fault.dead_routers") = static_cast<double>(dead_routers);
    reg.gauge("fault.dead_links") = static_cast<double>(dead_links);
  }
}

int mark_dead_links(const Network& net, const FaultInjector& fault,
                    std::vector<char>& mask) {
  mask.assign(static_cast<std::size_t>(net.num_nodes()) * 4, 0);
  int dead = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (Direction d : kMeshDirections) {
      if (net.geom().neighbor(id, d) == kInvalidNode) continue;
      const std::uint32_t key = link_fate_key(id, d);
      if (fault.link_dies(key)) {
        mask[key] = 1;
        dead++;
      }
    }
  }
  return dead;
}

}  // namespace flov
