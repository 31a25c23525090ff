// Constructs a NocSystem for any of the four evaluated schemes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "noc/system_iface.hpp"
#include "power/energy_model.hpp"
#include "power/power_tracker.hpp"
#include "rp/fabric_manager.hpp"

namespace flov {

enum class Scheme {
  kBaseline = 0,  ///< no router power-gating, YX routing
  kRFlov,         ///< restricted FLOV
  kGFlov,         ///< generalized FLOV
  kRp,            ///< Router Parking (aggressive FM policy)
};

const char* to_string(Scheme s);
Scheme scheme_from_string(const std::string& name);

/// All four schemes, in presentation order.
inline constexpr Scheme kAllSchemes[] = {Scheme::kBaseline, Scheme::kRp,
                                         Scheme::kRFlov, Scheme::kGFlov};

struct BuiltSystem {
  std::unique_ptr<NocSystem> system;
  PowerTracker* power = nullptr;  ///< owned by the system
};

/// `always_on`: routers RP must never park (MCs); ignored by other schemes
/// (FLOV keeps its AON column on regardless).
/// `faults`: fault-injection model, honored by every scheme. FLOV arms both
/// the handshake fabric and the flit links; RP and Baseline have no
/// handshake fabric, so only the flit-link fates (transient drop/delay and
/// the hard router/link deaths of PROTOCOL.md §8) apply there.
/// `rp_cfg`: RP's fabric-manager settings (e.g. the epoch gap full-system
/// runs batch core sleeps with); ignored by other schemes.
BuiltSystem build_system(Scheme scheme, const NocParams& params,
                         const EnergyParams& energy,
                         std::vector<bool> always_on = {},
                         const FaultParams& faults = {},
                         const FabricManagerConfig& rp_cfg = {});

}  // namespace flov
