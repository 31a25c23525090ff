// The shared run-options parser and the volatile-key table
// (sim/run_options.hpp): each driver's base resolves to the config it
// always had, no table key reaches a manifest or a checkpoint
// fingerprint, and malformed values are config errors, not crashes.
#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/run_options.hpp"

namespace flov {
namespace {

struct DriverBase {
  const char* name;
  SyntheticExperimentConfig (*base)();
  std::uint64_t fingerprint;  ///< each CLI's config with no key set
};

// Literals from the drivers as they were before they shared a parser
// (each CLI's own key-reading code, run on an empty Config).
const DriverBase kDrivers[] = {
    {"sim", sim_cli_base, 0x50d851c371dd616aull},
    {"sweep", sweep_cli_base, 0x1baf0c017bb9ae92ull},
    {"certify", certify_cli_base, 0x7f71d4a62efd8f3aull},
};

TEST(RunOptions, DriverBasesKeepTheirFingerprints) {
  for (const DriverBase& d : kDrivers) {
    EXPECT_EQ(sweep_point_fingerprint(parse_run_options(Config{}, d.base())),
              d.fingerprint)
        << d.name;
  }
}

TEST(RunOptions, VolatileKeysChangeNeitherManifestNorFingerprint) {
  Config plain;
  plain.set("noc.width", std::string("6"));
  plain.set("fault.flit_drop_rate", std::string("0.01"));
  const FaultParams faults = FaultParams::from_config(plain);
  const std::string plain_manifest =
      manifest_config(plain, &faults).to_string();
  for (const char* key : kVolatileConfigKeys) {
    Config cfg = plain;
    cfg.set(key, std::string(key == std::string("tiles") ? "2x1" : "2"));
    EXPECT_EQ(manifest_config(cfg, &faults).to_string(), plain_manifest)
        << key;
    for (const DriverBase& d : kDrivers) {
      EXPECT_EQ(sweep_point_fingerprint(parse_run_options(cfg, d.base())),
                sweep_point_fingerprint(parse_run_options(plain, d.base())))
          << key << " on " << d.name;
    }
  }
}

TEST(RunOptions, ManifestConfigEchoesEveryFaultKnob) {
  Config cfg;
  cfg.set("fault.seed", std::string("9"));
  const FaultParams faults = FaultParams::from_config(cfg);
  const Config m = manifest_config(cfg, &faults);
  EXPECT_EQ(m.get_int("fault.seed"), 9);
  EXPECT_TRUE(m.has("fault.signal_drop_rate"));  // defaulted, still echoed
  EXPECT_FALSE(manifest_config(cfg).has("fault.signal_drop_rate"));
}

TEST(RunOptions, CertifyDefaultsGiveWayToExplicitKeys) {
  const SyntheticExperimentConfig dflt =
      parse_run_options(Config{}, certify_cli_base());
  EXPECT_TRUE(dflt.noc.reliable);
  EXPECT_FALSE(dflt.verifier.fatal);
  Config cfg;
  cfg.set("noc.reliable", std::string("0"));
  cfg.set("verify.fatal", std::string("1"));
  cfg.set("cycles", std::string("700"));
  const SyntheticExperimentConfig ex =
      parse_run_options(cfg, certify_cli_base());
  EXPECT_FALSE(ex.noc.reliable);
  EXPECT_TRUE(ex.verifier.fatal);
  EXPECT_EQ(ex.measure, 700u);
  EXPECT_EQ(ex.drain_max, 30000u);  // untouched defaults stay
}

// Expects a ConfigError whose message names `key`.
template <typename F>
void expect_config_error(F&& f, const std::string& key) {
  try {
    f();
    ADD_FAILURE() << "no ConfigError for " << key;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(RunOptions, MalformedValuesAreConfigErrors) {
  Config cfg;
  cfg.set("inj", std::string("0.02,x"));
  cfg.set("changes", std::string("5,abc"));
  cfg.set("seeds", std::string("5x"));
  cfg.set("gated", std::string("0.1,,0.2"));
  cfg.set("seed", std::string("18446744073709551615"));  // 64-bit seeds
  EXPECT_EQ(static_cast<std::uint64_t>(cfg.get_int("seed")), ~0ull);
  cfg.set("seed", std::string("18446744073709551616"));
  expect_config_error([&] { cfg.get_int("seed"); }, "seed");
  expect_config_error([&] { cfg.get_double_list("inj", ""); }, "inj");
  expect_config_error([&] { cfg.get_int_list("changes", ""); }, "changes");
  expect_config_error([&] { cfg.get_int_list("seeds", ""); }, "seeds");
  expect_config_error([&] { cfg.get_double_list("gated", ""); }, "gated");
  EXPECT_EQ(cfg.get_double_list("absent", "0.02,0.06"),
            (std::vector<double>{0.02, 0.06}));
  EXPECT_TRUE(cfg.get_int_list("absent", "").empty());

  for (const char* bad : {"tiles=2", "tiles=2xq", "threads=0", "cycles=5x",
                          "noc.width=1", "retries=2", "retry_backoff_ms=9"}) {
    const std::string tok = bad;
    const std::string key = tok.substr(0, tok.find('='));
    Config c;
    c.set(key, tok.substr(tok.find('=') + 1));
    expect_config_error([&] { parse_run_options(c, sim_cli_base()); }, key);
  }
}

}  // namespace
}  // namespace flov
