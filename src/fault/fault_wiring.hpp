// Shared glue between a FaultInjector and a Network's link channels.
//
// Every scheme (FLOV, RP, Baseline) arms faults the same way: each
// inter-router flit channel gets a fate hook keyed by
// link_key = node * 4 + dir_index(dir) (the sender side of the directed
// link), and dropped flits are reported back to the network so its cached
// in-flight count stays truthful. Local NI channels and credit wires stay
// reliable: credit loss without a credit-recovery protocol would be an
// unrecoverable leak, not an interesting fault.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "fault/fault_injector.hpp"

namespace flov {

class Network;
namespace telemetry {
class MetricsRegistry;
}

/// Directed-link fate key of `node`'s outgoing channel toward `d`.
inline std::uint32_t link_fate_key(NodeId node, Direction d) {
  return static_cast<std::uint32_t>(node) * 4u +
         static_cast<std::uint32_t>(dir_index(d));
}

/// Installs the per-flit fault hook on every inter-router flit channel.
void arm_link_faults(Network& net, FaultInjector& fault);

/// Accounts every flit a dead router destroys: the injector's hard-kill
/// counter plus the network's cached in-flight count.
void arm_kill_accounting(Network& net, FaultInjector& fault);

/// Registers the flit-link fault metrics every scheme shares:
/// fault.flits_dropped/delayed and, once hard faults are armed,
/// fault.hard_killed_flits/dead_routers/dead_links.
void publish_link_fault_metrics(telemetry::MetricsRegistry& reg,
                                const FaultInjector& fault, int dead_routers,
                                int dead_links);

/// Evaluates the hard-fault fate of every directed inter-router link and
/// writes the link_key-indexed mask (size num_nodes * 4). Returns the
/// number of dead directed links.
int mark_dead_links(const Network& net, const FaultInjector& fault,
                    std::vector<char>& mask);

}  // namespace flov
