// Invariant-verifier unit tests: the verifier must stay silent on healthy
// runs (all four schemes) and must abort — with a FLOV_CHECK death — when
// handed a fabric whose conservation laws were deliberately broken.
// Also covers the drain-abort-timeout promotion into NocParams/Config
// (PROTOCOL.md §2) and the new recovery knobs' config plumbing, pins the
// exact violation streams of non-fatal runs, and checks the log cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "fault/fault_model.hpp"
#include "flov/flov_network.hpp"
#include "sim/experiment.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {
namespace {

NocParams small_mesh() {
  NocParams p;
  p.width = 4;
  p.height = 4;
  return p;
}

// --- healthy runs stay silent -------------------------------------------

TEST(Verifier, CleanOnExistingScenariosAllSchemes) {
  for (Scheme s : kAllSchemes) {
    SyntheticExperimentConfig cfg;
    cfg.noc = small_mesh();
    cfg.scheme = s;
    cfg.inj_rate_flits = 0.05;
    cfg.gated_fraction = s == Scheme::kBaseline ? 0.0 : 0.4;
    cfg.warmup = 2000;
    cfg.measure = 8000;
    const RunResult r = run_synthetic(cfg);  // verify defaults to on
    EXPECT_EQ(r.verifier_violations, 0u) << to_string(s);
    EXPECT_GT(r.verifier_checks, 0u) << to_string(s);
    EXPECT_EQ(r.watchdog_recoveries, 0u) << to_string(s);
  }
}

TEST(Verifier, CountsInsteadOfAbortingWhenNonFatal) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  InvariantVerifier verifier(sys, vo);
  PacketRecord rec;
  rec.packet_id = 42;
  rec.src = 0;
  rec.dest = 5;
  verifier.observe_eject(rec);
  EXPECT_EQ(verifier.violations(), 0u);
  verifier.observe_eject(rec);
  EXPECT_EQ(verifier.violations(), 1u);
  EXPECT_NE(verifier.last_violation().find("ejected 2 times"),
            std::string::npos);
}

// --- deliberate corruption must die (FLOV_CHECK fatal = throws) ----------

/// Runs `f` expecting a FLOV_CHECK failure; returns its message.
template <typename F>
std::string expect_fatal(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "corruption went undetected";
  return {};
}

TEST(VerifierDeath, DoubleEjectAborts) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);  // fatal by default
  PacketRecord rec;
  rec.packet_id = 7;
  verifier.observe_eject(rec);
  const std::string msg =
      expect_fatal([&] { verifier.observe_eject(rec); });
  EXPECT_NE(msg.find("ejected 2 times"), std::string::npos) << msg;
}

TEST(VerifierDeath, CreditOverReturnAborts) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  // A credit nobody earned: over-return on router 5's East credit wire.
  Channel<Credit>* wire = sys.network().router(5).credit_in(Direction::East);
  ASSERT_NE(wire, nullptr);
  wire->send(0, Credit{0});
  const std::string msg = expect_fatal([&] { verifier.step(0); });
  EXPECT_NE(msg.find("credit conservation broken"), std::string::npos) << msg;
}

TEST(VerifierDeath, VanishedFlitAborts) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  PacketDescriptor pd;
  pd.src = 0;
  pd.dest = 3;  // straight east across row 0
  pd.size_flits = 4;
  sys.network().enqueue(pd);
  Channel<Flit>* wire = sys.network().flit_channel(0, Direction::East);
  ASSERT_NE(wire, nullptr);
  Cycle now = 0;
  while (wire->empty() && now < 50) {
    sys.step(now);
    verifier.step(now);
    ++now;
  }
  ASSERT_FALSE(wire->empty()) << "flit never reached the wire";
  wire->clear();  // unaccounted loss: not a registered fault
  const std::string msg = expect_fatal([&] { verifier.step(now); });
  EXPECT_NE(msg.find("flit conservation broken"), std::string::npos) << msg;
}

// --- drain-abort timeout: param promotion + regression (PROTOCOL.md §2) --

TEST(DrainAbort, TimeoutIsConfigurableViaConfig) {
  Config cfg;
  cfg.set("noc.drain_abort_timeout", 123ll);
  cfg.set("noc.hs_retry_timeout", 11ll);
  cfg.set("noc.hs_retry_limit", 3ll);
  cfg.set("noc.trigger_retry_timeout", 44ll);
  cfg.set("noc.sleep_reannounce_interval", 55ll);
  cfg.set("noc.psr_block_timeout", 66ll);
  const NocParams p = NocParams::from_config(cfg);
  EXPECT_EQ(p.drain_abort_timeout, 123u);
  EXPECT_EQ(p.hs_retry_timeout, 11u);
  EXPECT_EQ(p.hs_retry_limit, 3);
  EXPECT_EQ(p.trigger_retry_timeout, 44u);
  EXPECT_EQ(p.sleep_reannounce_interval, 55u);
  EXPECT_EQ(p.psr_block_timeout, 66u);
  EXPECT_EQ(NocParams{}.drain_abort_timeout, 2048u);  // Table-I era default
}

TEST(DrainAbort, StalledDrainAbortsWithinTimeout) {
  NocParams p = small_mesh();
  p.drain_idle_threshold = 4;
  p.drain_abort_timeout = 64;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  // Hotspot: row 1 and column 3 flood node 7, congesting the 5 -> 6 -> 7
  // path. Gating core 5 mid-congestion starts a drain that cannot empty
  // router 5's buffers; the deadline must kick it back to Active instead
  // of wedging in Draining forever.
  Cycle now = 0;
  for (; now < 2000; ++now) {
    if (now % 2 == 0) {
      for (NodeId s : {4, 3, 11, 15}) {
        PacketDescriptor pd;
        pd.src = s;
        pd.dest = 7;
        pd.size_flits = 4;
        pd.gen_cycle = now;
        sys.network().enqueue(pd);
      }
    }
    if (now == 200) sys.set_core_gated(5, true, now);
    sys.step(now);
    verifier.step(now);
    if (sys.hsc(5).drain_aborts() > 0) break;
  }
  EXPECT_GE(sys.hsc(5).drain_aborts(), 1u)
      << "drain neither completed nor hit the abort deadline";
  EXPECT_EQ(verifier.violations(), 0u);
}

// --- pinned violation streams -------------------------------------------
//
// What the verifier reports is part of a run's result: the same predicates
// must fire, with the same text, at the same cycles, whatever walk computes
// them. These literals were printed by the per-segment reference walk; a
// faster walk must reproduce every line exactly.

/// Every "[verifier] cycle N: ..." line `f` writes to stderr, in order (the
/// state dumps in between are dropped).
template <typename F>
std::vector<std::string> violation_lines(F&& f) {
  ::testing::internal::CaptureStderr();
  f();
  std::istringstream err(::testing::internal::GetCapturedStderr());
  std::vector<std::string> lines;
  for (std::string line; std::getline(err, line);) {
    if (line.rfind("[verifier] cycle ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

/// FNV-1a over the lines, each followed by a separator byte.
std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& s : lines) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Soft PSR flips with every recovery knob on: the handshake fabric
/// corrupts logical PSRs faster than recovery heals them, so the pointer
/// check fires on a long, scheme-specific stream of stale-PSR samples.
SyntheticExperimentConfig soft_psr_flip_run(Scheme scheme) {
  SyntheticExperimentConfig ex;
  ex.noc.width = 8;
  ex.noc.height = 8;
  ex.noc.reliable = true;
  ex.noc.retx_timeout = 64;
  ex.noc.hs_retry_timeout = 32;
  ex.noc.hs_retry_limit = 16;
  ex.noc.trigger_retry_timeout = 64;
  ex.noc.sleep_reannounce_interval = 128;
  ex.noc.psr_block_timeout = 192;
  ex.scheme = scheme;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.05;
  ex.gated_fraction = 0.3;
  ex.warmup = 500;
  ex.measure = 3000;
  ex.seed = 11;
  ex.drain_max = 30000;
  ex.verifier.settle_window = 512;
  ex.verifier.fatal = false;
  ex.faults.soft_psr_flip_rate = 0.01;
  ex.faults.seed = 11;
  return ex;
}

void expect_soft_psr_stream(Scheme scheme, std::uint64_t count,
                            std::uint64_t hash) {
  RunResult r;
  const std::vector<std::string> lines = violation_lines(
      [&] { r = run_synthetic(soft_psr_flip_run(scheme)); });
  EXPECT_EQ(r.verifier_violations, lines.size());
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("stale logical PSR"), std::string::npos) << l;
  }
  EXPECT_EQ(lines.size(), count) << to_string(scheme);
  EXPECT_EQ(fnv1a(lines), hash)
      << to_string(scheme) << " stream hashes to " << hex(fnv1a(lines));
}

TEST(PinnedViolations, SoftPsrFlipStreamRFlov) {
  expect_soft_psr_stream(Scheme::kRFlov, 581u, 0x1d2657732e52c22cull);
}

TEST(PinnedViolations, SoftPsrFlipStreamGFlov) {
  expect_soft_psr_stream(Scheme::kGFlov, 1068u, 0x7e0d6baf1d2da0e4ull);
}

TEST(VerifierLog, CapsStateDumpsAndIncidentRecords) {
  // 1068 violations: every one counted and printed as a stderr line, only
  // the first kMaxLoggedViolations dumped and recorded, then one overflow
  // record carrying the rest.
  ::testing::internal::CaptureStderr();
  const RunResult r = run_synthetic(soft_psr_flip_run(Scheme::kGFlov));
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::uint64_t cap = InvariantVerifier::kMaxLoggedViolations;
  ASSERT_GT(r.verifier_violations, cap);
  std::uint64_t recorded = 0, overflows = 0;
  std::string overflow;
  for (const std::string& rec : r.incidents->records()) {
    if (rec.find("\"kind\":\"verifier_violation\"") != std::string::npos) {
      ++recorded;
    }
    if (rec.find("\"kind\":\"verifier_violation_overflow\"") !=
        std::string::npos) {
      ++overflows;
      overflow = rec;
    }
  }
  EXPECT_EQ(recorded, cap);
  EXPECT_EQ(overflows, 1u);
  EXPECT_NE(overflow.find("\"suppressed\":" +
                          std::to_string(r.verifier_violations - cap)),
            std::string::npos)
      << overflow;
  // Every violation keeps its stderr line; the indented state dumps stop
  // after the first `cap` of them.
  std::uint64_t lines = 0;
  bool dumped_before_cap = false, dumped_after_cap = false;
  std::istringstream is(err);
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("[verifier] cycle ", 0) == 0) {
      ++lines;
    } else if (line.rfind("  ", 0) == 0) {
      (lines <= cap ? dumped_before_cap : dumped_after_cap) = true;
    }
  }
  EXPECT_EQ(lines, r.verifier_violations);
  EXPECT_TRUE(dumped_before_cap);
  EXPECT_FALSE(dumped_after_cap);
}

TEST(PinnedViolations, StalePsrFiresAtSettleBoundary) {
  // Router 4's East pointer is put back on router 5 shortly after 5 falls
  // asleep (after the sleep announcement has updated it), inside the
  // settle window of the run 4 -> 6, whose last state change is 5's. The
  // first settled sample comes exactly settle_window cycles after that
  // change, the first violation one sample later, and then every second
  // sample (the streak resets).
  NocParams p = small_mesh();
  p.drain_idle_threshold = 8;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  InvariantVerifier verifier(sys, vo);
  sys.set_core_gated(5, true, 0);
  Cycle slept = 0;
  const std::vector<std::string> lines = violation_lines([&] {
    for (Cycle now = 0; now < 200; ++now) {
      sys.step(now);
      if (slept == 0 && sys.hsc(5).state() == PowerState::kSleep) {
        slept = now;
      }
      if (slept > 0 && now == slept + 16) {
        sys.network().router(4).view().logical[dir_index(Direction::East)] =
            5;
      }
      verifier.step(now);
    }
  });
  // Asleep at cycle 10, settled from 10 + 64: first violation at 75.
  EXPECT_EQ(slept, 10u);
  EXPECT_EQ(verifier.violations(), lines.size());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(),
            "[verifier] cycle 75: stale logical PSR at router 4 dir=E: "
            "points at 5, true nearest powered router is 6");
  EXPECT_EQ(lines.size(), 63u);
  EXPECT_EQ(fnv1a(lines), 0x037764fe3ad761b6ull)
      << "stream hashes to " << hex(fnv1a(lines));
}

TEST(PinnedViolations, CreditLeakStream) {
  // A credit lost on its way back to router 5 (the under-return twin of
  // VerifierDeath.CreditOverReturnAborts, which a Debug router would catch
  // first), left to run: the 5 -> 6 segment stays one credit short while
  // traffic keeps crossing it, until core 6 is gated and the handover
  // resynthesizes router 5's East credits. Traffic elsewhere keeps other
  // segments busy and must stay clean.
  NocParams p = small_mesh();
  p.drain_idle_threshold = 8;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  InvariantVerifier verifier(sys, vo);
  Channel<Credit>* wire = sys.network().router(5).credit_in(Direction::East);
  auto send = [&](NodeId s, NodeId d, Cycle now) {
    PacketDescriptor pd;
    pd.src = s;
    pd.dest = d;
    pd.size_flits = 4;
    pd.gen_cycle = now;
    sys.network().enqueue(pd);
  };
  bool leaked = false;
  const std::vector<std::string> lines = violation_lines([&] {
    for (Cycle now = 0; now < 600; ++now) {
      if (now < 200 && now % 9 == 0) {
        send(4, 7, now);
        send(8, 11, now);
        send(12, 0, now);
        send(3, 15, now);
      }
      if (now == 250) sys.set_core_gated(6, true, now);
      sys.step(now);
      verifier.step(now);
      if (!leaked && !wire->empty()) {
        wire->clear();
        leaked = true;
      }
    }
  });
  ASSERT_TRUE(leaked);
  EXPECT_EQ(verifier.violations(), lines.size());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(),
            "[verifier] cycle 13: credit conservation broken on segment 5 "
            "-> 6 dir=E vc=0: credits=2 flits_in_flight=0 "
            "credits_in_flight=1 occupied=2 (depth=6, exact)");
  EXPECT_EQ(lines.back(),
            "[verifier] cycle 251: credit conservation broken on segment 5 "
            "-> 6 dir=E vc=0: credits=5 flits_in_flight=0 "
            "credits_in_flight=0 occupied=0 (depth=6, exact)");
  EXPECT_EQ(lines.size(), 239u);
  EXPECT_EQ(fnv1a(lines), 0xafdaeac6884c39bcull)
      << "stream hashes to " << hex(fnv1a(lines));
}

}  // namespace
}  // namespace flov
