// Baseline system: plain YX mesh, no router power-gating (the paper's
// "Baseline"). Core gating still stops that core's traffic, but every
// router stays powered, so static power is flat.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault_injector.hpp"
#include "noc/network.hpp"
#include "noc/system_iface.hpp"
#include "power/power_tracker.hpp"
#include "routing/yx_routing.hpp"

namespace flov {

class BaselineNetwork final : public NocSystem {
 public:
  /// `faults`: optional fault model (flit-link fates + hard deaths only —
  /// there is no handshake fabric). The baseline has no reconfiguration
  /// mechanism, so a dead router simply eats every YX path through it;
  /// end-to-end recovery (noc.reliable) is what accounts for the loss.
  BaselineNetwork(NocParams params, const EnergyParams& energy,
                  const FaultParams& faults = {});

  void step(Cycle now) override;
  void set_core_gated(NodeId core, bool gated, Cycle now) override {
    (void)now;
    if (dead_mask_[core]) return;  // a dead node's gating is permanent
    gated_[core] = gated;
    note_gating_change();
  }
  bool core_gated(NodeId core) const override { return gated_[core]; }
  bool injection_allowed(NodeId src) const override { return !gated_[src]; }
  Network& network() override { return *net_; }
  const Network& network() const override { return *net_; }
  const char* name() const override { return "Baseline"; }
  PowerTracker& power() override { return *power_; }
  const PowerTracker& power() const override { return *power_; }
  const FaultInjector* fault_injector() const override { return fault_.get(); }
  const std::vector<char>& dead_mask() const override { return dead_mask_; }
  int dead_link_count() const override { return dead_links_; }
  void publish_metrics(telemetry::MetricsRegistry& reg,
                       Cycle now) const override {
    (void)now;
    publish_metrics(reg);
  }
  /// Registers/updates the fault metrics in `reg` (no-op fault-free).
  void publish_metrics(telemetry::MetricsRegistry& reg) const;

 private:
  void apply_hard_faults(Cycle now);

  NocParams params_;
  MeshGeometry geom_;
  std::unique_ptr<PowerTracker> power_;
  std::unique_ptr<YxRouting> routing_;
  std::unique_ptr<Network> net_;
  std::vector<bool> gated_;
  std::unique_ptr<FaultInjector> fault_;
  std::vector<char> dead_mask_;
  int dead_links_ = 0;
};

}  // namespace flov
