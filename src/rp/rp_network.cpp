#include "rp/rp_network.hpp"

#include "fault/fault_wiring.hpp"
#include "noc/router.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

RpNetwork::RpNetwork(NocParams params, const EnergyParams& energy,
                     FabricManagerConfig fm_cfg, std::vector<bool> always_on,
                     const FaultParams& faults)
    : params_(params), geom_(params.width, params.height) {
  params_.enable_escape_diversion = false;  // up*/down* is deadlock-free
  power_ = std::make_unique<PowerTracker>(geom_, energy,
                                          /*flov_hardware=*/false);
  routing_ = std::make_unique<TableRouting>(geom_);
  net_ = std::make_unique<Network>(params_, routing_.get(), power_.get());
  if (always_on.empty()) always_on.assign(geom_.num_nodes(), false);
  always_on_ = always_on;
  fm_cfg.wakeup_latency = params_.wakeup_latency;
  fm_ = std::make_unique<FabricManager>(net_.get(), routing_.get(), fm_cfg,
                                        std::move(always_on));
  dead_mask_.assign(geom_.num_nodes(), 0);
  if (faults.any()) {
    fault_ = std::make_unique<FaultInjector>(faults, net_->num_nodes());
    arm_link_faults(*net_, *fault_);
    arm_kill_accounting(*net_, *fault_);
  }
}

void RpNetwork::step(Cycle now) {
  if (fault_ && fault_->hard_faults_strike(now)) apply_hard_faults(now);
  // The FM steps FIRST: a gating change reported this cycle must assert
  // the injection stall before any NI starts a packet under stale tables
  // (e.g. toward a just-reactivated core whose router is still parked).
  const std::uint64_t quarantined = fm_->quarantined();
  fm_->step(now);
  // A quarantine marks the cut-off routers' cores gated.
  if (fm_->quarantined() != quarantined) note_gating_change();
  net_->step(now);
}

void RpNetwork::apply_hard_faults(Cycle now) {
  std::vector<char> dead_links;
  dead_links_ = mark_dead_links(*net_, *fault_, dead_links);
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    if (!fault_->router_dies(id) || always_on_[id]) continue;
    dead_mask_[id] = 1;
    // Worm-coherent death: the router finishes worms already in progress
    // (an instant black hole would strand tail-less fragments downstream),
    // eats new ones whole, then goes dark; routing keeps pointing at it
    // until the FM's survival reconfiguration lands.
    net_->router(id).begin_death(now);
    net_->ni(id).kill(now);
    net_->wake_router(id);
  }
  fm_->on_hard_fault(dead_mask_, dead_links, now);
  note_gating_change();  // the FM folds every dead core into its gated set
}

int RpNetwork::gated_router_count() const {
  int n = 0;
  for (NodeId i = 0; i < geom_.num_nodes(); ++i) {
    if (!fm_->router_powered(i)) ++n;
  }
  return n;
}

void RpNetwork::publish_metrics(telemetry::MetricsRegistry& reg) const {
  reg.counter("rp.reconfigurations") += fm_->reconfigurations();
  reg.counter("rp.purged_packets") += fm_->purged_packets();
  reg.gauge("rp.parked_routers") = static_cast<double>(gated_router_count());
  reg.gauge("rp.last_reconfig_duration") =
      static_cast<double>(fm_->last_reconfig_duration());
  if (fault_) {
    publish_link_fault_metrics(reg, *fault_, dead_router_count(), dead_links_);
    if (fault_->hard_at() > 0) {
      reg.counter("rp.quarantined") += fm_->quarantined();
    }
  }
}

}  // namespace flov
