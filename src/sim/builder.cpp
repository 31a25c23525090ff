#include "sim/builder.hpp"

#include "common/log.hpp"
#include "flov/flov_network.hpp"
#include "rp/rp_network.hpp"
#include "sim/baseline_network.hpp"

namespace flov {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return "Baseline";
    case Scheme::kRFlov: return "rFLOV";
    case Scheme::kGFlov: return "gFLOV";
    case Scheme::kRp: return "RP";
  }
  return "?";
}

Scheme scheme_from_string(const std::string& name) {
  if (name == "baseline" || name == "Baseline") return Scheme::kBaseline;
  if (name == "rflov" || name == "rFLOV") return Scheme::kRFlov;
  if (name == "gflov" || name == "gFLOV") return Scheme::kGFlov;
  if (name == "rp" || name == "RP") return Scheme::kRp;
  FLOV_CHECK(false, "unknown scheme: " + name);
  return Scheme::kBaseline;
}

BuiltSystem build_system(Scheme scheme, const NocParams& params,
                         const EnergyParams& energy,
                         std::vector<bool> always_on,
                         const FaultParams& faults,
                         const FabricManagerConfig& rp_cfg) {
  BuiltSystem out;
  switch (scheme) {
    case Scheme::kBaseline:
      out.system = std::make_unique<BaselineNetwork>(params, energy, faults);
      break;
    case Scheme::kRFlov:
      out.system = std::make_unique<FlovNetwork>(params, FlovMode::kRestricted,
                                                 energy, faults);
      break;
    case Scheme::kGFlov:
      out.system = std::make_unique<FlovNetwork>(
          params, FlovMode::kGeneralized, energy, faults);
      break;
    case Scheme::kRp:
      out.system = std::make_unique<RpNetwork>(params, energy, rp_cfg,
                                               std::move(always_on), faults);
      break;
  }
  out.power = &out.system->power();
  return out;
}

}  // namespace flov
