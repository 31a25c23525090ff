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
                         const FaultParams& faults) {
  BuiltSystem out;
  switch (scheme) {
    case Scheme::kBaseline: {
      auto sys = std::make_unique<BaselineNetwork>(params, energy, faults);
      out.power = &sys->power();
      out.system = std::move(sys);
      break;
    }
    case Scheme::kRFlov: {
      auto sys = std::make_unique<FlovNetwork>(params, FlovMode::kRestricted,
                                               energy, faults);
      out.power = &sys->power();
      out.system = std::move(sys);
      break;
    }
    case Scheme::kGFlov: {
      auto sys = std::make_unique<FlovNetwork>(params, FlovMode::kGeneralized,
                                               energy, faults);
      out.power = &sys->power();
      out.system = std::move(sys);
      break;
    }
    case Scheme::kRp: {
      auto sys = std::make_unique<RpNetwork>(params, energy,
                                             FabricManagerConfig{},
                                             std::move(always_on), faults);
      out.power = &sys->power();
      out.system = std::move(sys);
      break;
    }
  }
  return out;
}

}  // namespace flov
