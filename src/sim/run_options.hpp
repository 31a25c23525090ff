// Run options shared by every driver: one parser from key=value pairs to a
// SyntheticExperimentConfig, and the one table of keys that cannot change
// a result. Keys only one driver knows stay in that driver: the sweep's
// list axes, certify's k= and campaign keys, the sim CLI's changes= and
// trace_out=.
#pragma once

#include <string>

#include "common/config.hpp"
#include "fault/fault_model.hpp"
#include "sim/experiment.hpp"

namespace flov {

/// Keys that cannot change a result. Every manifest drops them from its
/// config and sweep_point_fingerprint reads no field they set, so manifests
/// are byte-identical and checkpoints resume at any value of them.
inline constexpr const char* kVolatileConfigKeys[] = {
    // Parallelism: bit-identical at any value (docs/PERFORMANCE.md).
    "threads", "tiles", "jobs", "noc.step_threads", "noc.step_tiles_x",
    "noc.step_tiles_y",
    // Run plumbing: resume, progress lines and the ops plane.
    "resume", "progress", "serve", "ops_stream", "ops.period", "profile",
    "profile_out",
    // Output paths.
    "checkpoint", "certificate", "manifest", "json", "csv", "incidents_out",
    "trace_out"};

/// `base` overlaid with every run-option key that is set: noc.* plus the
/// threads= / tiles= shorthands, energy.*, fault.*, verify.* and verify,
/// telemetry.*, warmup, cycles, timeline, drain and sim.max_cycles_hard.
/// Throws ConfigError for a retired key or a malformed value.
SyntheticExperimentConfig parse_run_options(const Config& cfg,
                                            SyntheticExperimentConfig base);

/// Each driver's base. sim: gFLOV, 10k warm-up + 90k cycles. sweep: 40k
/// cycles. certify: gFLOV, 500 + 2500 cycles, drain 30k, cap 200k,
/// noc.reliable on (its packet accounting is the Bernoulli trial) and
/// verify.fatal off (violations are counted, not fatal).
SyntheticExperimentConfig sim_cli_base();
SyntheticExperimentConfig sweep_cli_base();
SyntheticExperimentConfig certify_cli_base();

/// A manifest's config: `cfg` without the kVolatileConfigKeys, then, when
/// `faults` is given, every resolved fault.* knob (defaulted ones too)
/// echoed, so two runs can never silently differ on one.
Config manifest_config(const Config& cfg, const FaultParams* faults = nullptr);

}  // namespace flov
