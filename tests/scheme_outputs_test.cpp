// Pinned outputs of every scheme under run_synthetic.
//
// Each case runs one scheme on an 8x8 mesh and FNV-1a-hashes everything
// the run reports about itself: the serialized MetricsRegistry, every
// structured incident record, and the gating / dead-state / fault fields
// of the RunResult. The literals below were printed by a build that
// predates the shared NocSystem reporting interface, so a refactor of the
// scheme plumbing (metric key sets, incident shapes, which outputs exist
// only for FLOV) must leave them byte-identical.
//
// Setups:
//   * clean    — fault-free, gated, metrics sampled every 500 cycles,
//                verifier on (pins series.gated_routers being FLOV-only);
//   * hard     — reliable delivery with hard router/link deaths plus soft
//                payload and PSR flips, verifier non-fatal (pins the
//                fault.*/rp.*/flov.* key sets, hard_fault_summary and
//                packet_dead incidents);
//   * stalling — lossy handshake fabric with the recovery knobs off and a
//                short watchdog (pins the watchdog_stall incident shape,
//                whose power_state field is FLOV-only);
//   * parked   — hard router/link deaths under reliable delivery with the
//                sleep re-announce, PSR block timeout and handshake retry
//                knobs all off, so dead routers' HSCs sit still in Sleep
//                (pins the path where the HSC active set skips them, plus
//                the gating changes of Baseline deaths and RP quarantines).
// The hard setup also raises verifier_violation incidents on FLOV (the
// PSR flips), which pins that incident's FLOV-only power_state field and
// the verifier's log cap: ~900-1,500 violations leave 200 records and one
// verifier_violation_overflow record.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "sim/experiment.hpp"
#include "telemetry/json.hpp"

namespace flov {
namespace {

enum class Setup { kClean, kHard, kStalling, kParked };

const char* setup_name(Setup s) {
  switch (s) {
    case Setup::kClean: return "clean";
    case Setup::kHard: return "hard";
    case Setup::kStalling: return "stalling";
    case Setup::kParked: return "parked";
  }
  return "?";
}

bool is_flov(Scheme s) {
  return s == Scheme::kRFlov || s == Scheme::kGFlov;
}

SyntheticExperimentConfig make_config(Scheme scheme, Setup setup) {
  SyntheticExperimentConfig ex;
  ex.noc.width = 8;
  ex.noc.height = 8;
  ex.scheme = scheme;
  ex.pattern = "uniform";
  ex.warmup = 500;
  ex.measure = 2500;
  ex.seed = 11;
  switch (setup) {
    case Setup::kClean:
      ex.inj_rate_flits = 0.04;
      ex.gated_fraction = 0.4;
      ex.telemetry.metrics_window = 500;
      break;
    case Setup::kHard:
      ex.inj_rate_flits = 0.05;
      // RP parks sources, and a parked source cannot retransmit, so only
      // the FLOV schemes combine gating with hard faults here.
      ex.gated_fraction = is_flov(scheme) ? 0.3 : 0.0;
      ex.noc.reliable = true;
      ex.noc.retx_timeout = 64;
      ex.noc.hs_retry_timeout = 32;
      ex.noc.hs_retry_limit = 16;
      ex.noc.trigger_retry_timeout = 64;
      ex.noc.sleep_reannounce_interval = 128;
      ex.noc.psr_block_timeout = 192;
      ex.drain_max = 30000;
      ex.max_cycles_hard = 200000;
      ex.verifier.fatal = false;
      ex.verifier.settle_window = 512;
      ex.faults.hard_router_pct = 0.10;
      ex.faults.hard_link_pct = 0.04;
      ex.faults.hard_at_cycle = ex.warmup + ex.measure / 3;
      ex.faults.soft_flit_flip_rate = 0.01;
      ex.faults.soft_psr_flip_rate = 0.01;
      ex.faults.seed = 11;
      break;
    case Setup::kStalling:
      // Half the handshake signals are lost and nothing re-sends them, so
      // FLOV wakeups wedge until the watchdog's recovery re-issues them.
      // RP and the baseline have no handshake: they see only the flit
      // drops (a transient-only fault key set).
      ex.inj_rate_flits = 0.05;
      ex.gated_fraction = 0.7;
      ex.measure = 10000;
      ex.watchdog = 1024;
      ex.max_cycles_hard = 100000;
      ex.verify = false;
      ex.faults.signal_drop_rate = 0.5;
      ex.faults.flit_drop_rate = 0.001;
      ex.faults.seed = 11;
      break;
    case Setup::kParked:
      // The hard setup's deaths without its recovery knobs (all default
      // off): nothing re-announces, re-sends or times out, so a dead
      // router's HSC has no work left once it reaches Sleep. RP stays
      // ungated for the same reason as in the hard setup.
      ex.inj_rate_flits = 0.05;
      ex.gated_fraction = scheme == Scheme::kRp ? 0.0 : 0.3;
      ex.noc.reliable = true;
      ex.noc.retx_timeout = 64;
      ex.drain_max = 30000;
      ex.max_cycles_hard = 200000;
      ex.verifier.fatal = false;
      ex.verifier.settle_window = 512;
      ex.faults.hard_router_pct = 0.10;
      // Twice the hard setup's link deaths: enough to cut 7 live routers
      // off RP's up*/down* root, which the fabric manager quarantines.
      ex.faults.hard_link_pct = 0.08;
      ex.faults.hard_at_cycle = ex.warmup + ex.measure / 3;
      ex.faults.seed = 11;
      break;
  }
  return ex;
}

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  }
  void add(std::uint64_t v) { add(std::to_string(v)); }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(std::string(buf));
  }
};

std::uint64_t output_hash(const RunResult& r) {
  Fnv1a f;
  telemetry::JsonWriter w;
  r.metrics->write_json(w);
  f.add(w.take());
  for (const std::string& rec : r.incidents->records()) f.add(rec);
  f.add(static_cast<std::uint64_t>(r.gated_routers_end));
  f.add(r.avg_gated_routers);
  f.add(r.protocol_sleeps);
  f.add(r.protocol_wakeups);
  f.add(r.hs_resends);
  f.add(r.trigger_resends);
  f.add(r.self_captures);
  f.add(static_cast<std::uint64_t>(r.dead_routers));
  f.add(static_cast<std::uint64_t>(r.dead_links));
  f.add(r.wake_requests_dropped);
  f.add(r.flits_dropped_by_faults);
  f.add(r.payload_flips);
  f.add(r.psr_flips);
  f.add(r.packets_corrupted);
  f.add(r.watchdog_recoveries);
  f.add(r.verifier_violations);
  f.add(static_cast<std::uint64_t>(r.aborted));
  f.add(static_cast<std::uint64_t>(r.cycles_run));
  return f.h;
}

std::uint64_t pinned_hash(Scheme s, Setup setup) {
  // Index: [setup][scheme in kAllSchemes order: Baseline, RP, rFLOV, gFLOV].
  static constexpr std::uint64_t kPinned[4][4] = {
      // clean
      {0x98a7e8ce10798ba1ull, 0xbdba2cc011a0898full, 0x6d7f0bc0d03f7246ull,
       0xf46df7ec608ee174ull},
      // hard
      {0x403e823dc4970650ull, 0x8e03593f33200b39ull, 0x9f7901eb7a215f07ull,
       0xda3777ca87eab2b1ull},
      // stalling
      {0x22daf9f61ad64fb7ull, 0x9103ff8d70009f82ull, 0xded0778266c220e3ull,
       0xe0958a0b34b4afc3ull},
      // parked
      {0x65e2dee4f05a8bcfull, 0x8be1ab55367aaf7dull, 0xdc445503520a38e6ull,
       0x9fea483fdaafbdd7ull},
  };
  int col = 0;
  for (Scheme k : kAllSchemes) {
    if (k == s) break;
    ++col;
  }
  return kPinned[static_cast<int>(setup)][col];
}

using Param = std::tuple<Scheme, Setup>;

class SchemeOutputs : public ::testing::TestWithParam<Param> {};

TEST_P(SchemeOutputs, MatchPinnedHash) {
  const auto [scheme, setup] = GetParam();
  const RunResult r = run_synthetic(make_config(scheme, setup));
  ASSERT_TRUE(r.metrics);
  ASSERT_TRUE(r.incidents);
  const std::uint64_t got = output_hash(r);
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016llxull",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, pinned_hash(scheme, setup))
      << to_string(scheme) << "/" << setup_name(setup) << " hashes to "
      << hex;
}

INSTANTIATE_TEST_SUITE_P(
    All, SchemeOutputs,
    ::testing::Combine(::testing::ValuesIn(kAllSchemes),
                       ::testing::Values(Setup::kClean, Setup::kHard,
                                         Setup::kStalling, Setup::kParked)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             setup_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace flov
