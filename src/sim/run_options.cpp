#include "sim/run_options.hpp"

#include <algorithm>

namespace flov {

SyntheticExperimentConfig parse_run_options(const Config& cfg,
                                            SyntheticExperimentConfig ex) {
  const std::string retired = cfg.retired_key_error();
  if (!retired.empty()) throw ConfigError(retired);
  ex.noc = NocParams::from_config(cfg, ex.noc);
  // threads= is shorthand for noc.step_threads=, tiles=TXxTY for
  // noc.step_tiles_x/y= (intra-run domain workers / explicit tile grid).
  ex.noc.step_threads =
      static_cast<int>(cfg.get_int("threads", ex.noc.step_threads));
  ex.noc.apply_tiles_shorthand(cfg.get_string("tiles", ""));
  ex.noc.validate();
  ex.energy = EnergyParams::from_config(cfg, ex.energy);
  ex.faults = FaultParams::from_config(cfg, ex.faults);
  ex.verifier = VerifierOptions::from_config(cfg, ex.verifier);
  ex.verify = cfg.get_bool("verify", ex.verify);
  ex.telemetry = telemetry::TelemetryOptions::from_config(cfg, ex.telemetry);
  ex.warmup = cfg.get_int("warmup", ex.warmup);
  ex.measure = cfg.get_int("cycles", ex.measure);
  ex.timeline_window = cfg.get_int("timeline", ex.timeline_window);
  ex.drain_max = cfg.get_int("drain", ex.drain_max);
  ex.max_cycles_hard = cfg.get_int("sim.max_cycles_hard", ex.max_cycles_hard);
  return ex;
}

SyntheticExperimentConfig sim_cli_base() {
  SyntheticExperimentConfig ex;  // the struct's 10k warm-up + 90k cycles
  ex.scheme = Scheme::kGFlov;
  return ex;
}

SyntheticExperimentConfig sweep_cli_base() {
  SyntheticExperimentConfig ex;
  ex.measure = 40000;
  return ex;
}

SyntheticExperimentConfig certify_cli_base() {
  SyntheticExperimentConfig ex;
  ex.scheme = Scheme::kGFlov;
  ex.warmup = 500;
  ex.measure = 2500;
  ex.drain_max = 30000;
  ex.max_cycles_hard = 200000;
  ex.noc.reliable = true;
  ex.verifier.fatal = false;
  return ex;
}

Config manifest_config(const Config& cfg, const FaultParams* faults) {
  Config out;
  for (const std::string& k : cfg.keys()) {
    const bool kept = std::ranges::count(kVolatileConfigKeys, k) == 0;
    if (kept) out.set(k, cfg.get_string(k));
  }
  if (faults != nullptr) faults->echo_to_config(out);
  return out;
}

}  // namespace flov
