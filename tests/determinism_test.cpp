// Determinism guarantees the parallel sweep runner and the active-set
// scheduler rest on:
//   * the same config + seed always produces the same results (every run
//     owns its RNGs and network — no hidden global state),
//   * a jobs=N pool returns per-point results identical to the jobs=1
//     serial loop, in the same (submission) order,
//   * the network's O(1) cached counters agree with ground-truth recounts
//     at every probe point (the active-set fast path never desyncs).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"

namespace flov {
namespace {

SyntheticExperimentConfig small_config(Scheme s, double gated,
                                       std::uint64_t seed) {
  SyntheticExperimentConfig ex;
  ex.noc.width = 4;
  ex.noc.height = 4;
  ex.scheme = s;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.05;
  ex.gated_fraction = gated;
  ex.warmup = 500;
  ex.measure = 3000;
  ex.seed = seed;
  return ex;
}

// Every field that the figure tables/CSVs consume; exact equality — these
// runs must be bit-identical, not statistically close.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.breakdown.router, b.breakdown.router);
  EXPECT_EQ(a.breakdown.link, b.breakdown.link);
  EXPECT_EQ(a.breakdown.serialization, b.breakdown.serialization);
  EXPECT_EQ(a.breakdown.contention, b.breakdown.contention);
  EXPECT_EQ(a.breakdown.flov, b.breakdown.flov);
  EXPECT_EQ(a.power.static_mw, b.power.static_mw);
  EXPECT_EQ(a.power.dynamic_mw, b.power.dynamic_mw);
  EXPECT_EQ(a.power.total_mw, b.power.total_mw);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.injected_flits, b.injected_flits);
  EXPECT_EQ(a.ejected_flits, b.ejected_flits);
  EXPECT_EQ(a.escape_packets, b.escape_packets);
  EXPECT_EQ(a.gated_routers_end, b.gated_routers_end);
  EXPECT_EQ(a.avg_gated_routers, b.avg_gated_routers);
  EXPECT_EQ(a.protocol_sleeps, b.protocol_sleeps);
  EXPECT_EQ(a.protocol_wakeups, b.protocol_wakeups);
  EXPECT_EQ(a.verifier_violations, b.verifier_violations);
}

TEST(Determinism, SameConfigSameSeedTwiceIsBitIdentical) {
  for (Scheme s : kAllSchemes) {
    const SyntheticExperimentConfig ex = small_config(s, 0.4, 7);
    const RunResult a = run_synthetic(ex);
    const RunResult b = run_synthetic(ex);
    SCOPED_TRACE(to_string(s));
    expect_identical(a, b);
  }
}

TEST(Determinism, ParallelSweepMatchesSerialSweepPerPoint) {
  std::vector<SyntheticExperimentConfig> points;
  for (Scheme s : kAllSchemes) {
    for (double gated : {0.0, 0.5}) {
      points.push_back(small_config(s, gated, 3));
    }
  }
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions pooled;
  pooled.jobs = 4;
  const std::vector<RunResult> a = run_sweep(points, serial);
  const std::vector<RunResult> b = run_sweep(points, pooled);
  ASSERT_EQ(a.size(), points.size());
  ASSERT_EQ(b.size(), points.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

TEST(Determinism, SweepProgressReportsEveryPointOnce) {
  std::vector<SyntheticExperimentConfig> points(
      4, small_config(Scheme::kGFlov, 0.3, 5));
  SweepOptions opts;
  opts.jobs = 2;
  int calls = 0;
  int last_done = 0;
  opts.progress = [&](int done, int total) {
    calls++;
    EXPECT_EQ(total, 4);
    EXPECT_GT(done, last_done);  // serialized, monotone
    last_done = done;
  };
  run_sweep(points, opts);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(last_done, 4);
}

TEST(Determinism, ParallelRunRethrowsLowestIndexError) {
  for (int trial = 0; trial < 3; ++trial) {
    try {
      parallel_run(8, 4, [](int i) {
        if (i == 2 || i == 5) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2");
    }
  }
}

// --- intra-run domain-parallel stepping (noc.step_threads) ---
//
// The parallel schedule is deterministic BY CONSTRUCTION (>= 1-cycle channel
// latency means a send at cycle t is first observable at t+1, so tile
// domains stepped concurrently see exactly the serial cycle-t state); these
// tests pin the construction down: threads=N must be bit-identical to
// threads=1, not merely statistically equivalent.

SyntheticExperimentConfig sized_config(Scheme s, int k, double gated,
                                       std::uint64_t seed, int threads) {
  SyntheticExperimentConfig ex = small_config(s, gated, seed);
  ex.noc.width = k;
  ex.noc.height = k;
  ex.noc.step_threads = threads;
  return ex;
}

TEST(Determinism, ThreadedStepMatchesSerial8x8AllSchemes) {
  for (Scheme s : kAllSchemes) {
    const RunResult serial = run_synthetic(sized_config(s, 8, 0.4, 7, 1));
    for (int threads : {2, 4}) {
      const RunResult par = run_synthetic(sized_config(s, 8, 0.4, 7, threads));
      SCOPED_TRACE(std::string(to_string(s)) + " threads=" +
                   std::to_string(threads));
      expect_identical(serial, par);
    }
  }
}

TEST(Determinism, ThreadedStepMatchesSerial16x16) {
  for (Scheme s : kAllSchemes) {
    SyntheticExperimentConfig ex = sized_config(s, 16, 0.3, 13, 1);
    ex.warmup = 200;
    ex.measure = 1200;  // short: 16x16 runs 16x the 4x4 work per cycle
    const RunResult serial = run_synthetic(ex);
    ex.noc.step_threads = 4;
    const RunResult par = run_synthetic(ex);
    SCOPED_TRACE(to_string(s));
    expect_identical(serial, par);
  }
}

TEST(Determinism, ThreadedStepMatchesSerialUnderFaultInjection) {
  // Flit fates are pure hashes of (seed, packet, link[, flit, cycle]) so
  // they cannot depend on the worker schedule; prove it end to end.
  SyntheticExperimentConfig ex = sized_config(Scheme::kGFlov, 8, 0.5, 21, 1);
  // A dropped announcement in this static gating scenario legitimately
  // leaves a PSR stale forever (nothing re-announces without churn), so the
  // PSR check would flag the fault model, not a bug. Conservation and
  // credit checks stay on — those must hold under loss.
  ex.verifier.check_psr = false;
  ex.faults.seed = 21;
  ex.faults.flit_drop_rate = 0.0005;
  ex.faults.flit_delay_rate = 0.001;
  ex.faults.signal_drop_rate = 0.001;
  const RunResult serial = run_synthetic(ex);
  for (int threads : {2, 4}) {
    ex.noc.step_threads = threads;
    const RunResult par = run_synthetic(ex);
    SCOPED_TRACE(threads);
    expect_identical(serial, par);
    EXPECT_EQ(serial.flits_dropped_by_faults, par.flits_dropped_by_faults);
  }
}

TEST(Determinism, ThreadedHardFaultRunManifestBytesMatchSerial) {
  // Hard faults (routers DIE mid-run) + the reliable-delivery layer on
  // top, threads=4 vs threads=1: fate hashes are schedule-independent and
  // the incident/metric emission order is pinned to node-id order, so the
  // whole run manifest — metrics, incidents, counters — must byte-match.
  SyntheticExperimentConfig ex = sized_config(Scheme::kGFlov, 8, 0.3, 31, 1);
  ex.noc.reliable = true;
  ex.noc.retx_timeout = 64;
  ex.drain_max = 20000;
  ex.max_cycles_hard = 100000;
  ex.verifier.fatal = false;
  ex.verifier.settle_window = 512;
  ex.faults.seed = 31;
  ex.faults.hard_router_pct = 0.08;
  ex.faults.hard_link_pct = 0.04;
  ex.faults.hard_at_cycle = ex.warmup + ex.measure / 3;

  const auto manifest_of = [](const RunResult& r) {
    telemetry::RunManifest m;
    m.name = "determinism_test";
    m.scheme = r.scheme;
    m.seed = 31;
    m.metrics = r.metrics.get();
    m.incidents = r.incidents.get();
    return m.to_json();  // volatile fields left at defaults on both sides
  };
  const RunResult serial = run_synthetic(ex);
  ASSERT_GT(serial.dead_routers, 0);
  ASSERT_FALSE(serial.aborted);
  for (int threads : {2, 4}) {
    ex.noc.step_threads = threads;
    const RunResult par = run_synthetic(ex);
    SCOPED_TRACE(threads);
    expect_identical(serial, par);
    EXPECT_EQ(serial.packets_acked, par.packets_acked);
    EXPECT_EQ(serial.packets_dead, par.packets_dead);
    EXPECT_EQ(serial.retransmits, par.retransmits);
    EXPECT_EQ(serial.dead_routers, par.dead_routers);
    EXPECT_EQ(serial.dead_links, par.dead_links);
    EXPECT_EQ(manifest_of(serial), manifest_of(par));
  }
}

TEST(Determinism, ThreadCountAboveMeshHeightClampsAndStaysIdentical) {
  // step_threads > height cannot create more row bands than rows; the
  // clamped pool must still match serial exactly.
  const RunResult serial = run_synthetic(sized_config(Scheme::kRp, 4, 0.3, 9, 1));
  const RunResult par = run_synthetic(sized_config(Scheme::kRp, 4, 0.3, 9, 16));
  expect_identical(serial, par);
}

// --- 2D tile domains (noc.step_tiles_x/y, CLI tiles=TXxTY) ---
//
// Row bands are the auto policy; explicit tile grids additionally stage
// East/West boundary channels and break the "domain order == node-id
// order" property row bands had, which the barrier-side k-way merges must
// compensate for. Byte-identical manifests are the strongest equality we
// can assert: metrics, latency stats (order-sensitive floating point),
// incidents and counters all have to match.

std::string manifest_json(const RunResult& r, std::uint64_t seed) {
  telemetry::RunManifest m;
  m.name = "determinism_test";
  m.scheme = r.scheme;
  m.seed = seed;
  m.metrics = r.metrics.get();
  m.incidents = r.incidents.get();
  return m.to_json();  // volatile fields left at defaults on both sides
}

TEST(Determinism, TileGridMatchesRowBandsAndSerial8x8AllSchemes) {
  // Fault-seeded: fates are pure hashes of (seed, packet, link, ...) so no
  // tiling may perturb them (see ThreadedStepMatchesSerialUnderFaultInjection
  // for why check_psr is off under signal loss).
  for (Scheme s : kAllSchemes) {
    SyntheticExperimentConfig ex = sized_config(s, 8, 0.4, 17, 1);
    ex.verifier.check_psr = false;
    ex.faults.seed = 17;
    ex.faults.flit_drop_rate = 0.0005;
    ex.faults.signal_drop_rate = 0.001;
    const RunResult serial = run_synthetic(ex);
    const std::string serial_manifest = manifest_json(serial, 17);
    ex.noc.step_threads = 4;  // auto policy: 4 row bands
    const RunResult rows = run_synthetic(ex);
    {
      SCOPED_TRACE(std::string(to_string(s)) + " rows threads=4");
      expect_identical(serial, rows);
      EXPECT_EQ(serial_manifest, manifest_json(rows, 17));
    }
    const std::pair<int, int> grids[] = {{2, 2}, {4, 1}, {2, 4}};
    for (const auto& [tx, ty] : grids) {
      ex.noc.step_tiles_x = tx;
      ex.noc.step_tiles_y = ty;
      const RunResult tiles = run_synthetic(ex);
      SCOPED_TRACE(std::string(to_string(s)) + " tiles=" +
                   std::to_string(tx) + "x" + std::to_string(ty));
      expect_identical(serial, tiles);
      EXPECT_EQ(serial_manifest, manifest_json(tiles, 17));
    }
  }
}

TEST(Determinism, TileGridMatchesSerial16x16AllSchemes) {
  for (Scheme s : kAllSchemes) {
    SyntheticExperimentConfig ex = sized_config(s, 16, 0.3, 23, 1);
    ex.warmup = 200;
    ex.measure = 1200;  // short: 16x16 runs 16x the 4x4 work per cycle
    ex.verifier.check_psr = false;
    ex.faults.seed = 23;
    ex.faults.flit_drop_rate = 0.0003;
    const RunResult serial = run_synthetic(ex);
    const std::string serial_manifest = manifest_json(serial, 23);
    const std::pair<int, int> grids[] = {{2, 2}, {4, 2}};
    for (const auto& [tx, ty] : grids) {
      ex.noc.step_tiles_x = tx;
      ex.noc.step_tiles_y = ty;
      const RunResult tiles = run_synthetic(ex);
      SCOPED_TRACE(std::string(to_string(s)) + " tiles=" +
                   std::to_string(tx) + "x" + std::to_string(ty));
      expect_identical(serial, tiles);
      EXPECT_EQ(serial_manifest, manifest_json(tiles, 23));
    }
  }
}

TEST(Determinism, TileCountAboveMeshDimsClampsAndStaysIdentical) {
  // tiles=16x2 on a 4x4 mesh clamps the columns to the mesh width (4x2 =
  // 8 single-row-pair domains); the clamped grid must still match serial.
  SyntheticExperimentConfig ex = sized_config(Scheme::kGFlov, 4, 0.3, 9, 1);
  const RunResult serial = run_synthetic(ex);
  ex.noc.step_tiles_x = 16;
  ex.noc.step_tiles_y = 2;
  const RunResult par = run_synthetic(ex);
  expect_identical(serial, par);
}

TEST(Determinism, CachedCountersMatchRecountsDuringGatedRun) {
  // Drive a gFLOV run manually and probe the cached aggregates against the
  // ground-truth walks while routers gate, drain, sleep, and wake — in
  // Debug builds the getters also self-check via FLOV_DCHECK every call.
  SyntheticExperimentConfig ex = small_config(Scheme::kGFlov, 0.5, 11);
  ex.verifier.check_interval = 64;  // tight verifier cadence
  const RunResult r = run_synthetic(ex);
  EXPECT_EQ(r.verifier_violations, 0u);
  EXPECT_GT(r.packets_measured, 0u);
}

}  // namespace
}  // namespace flov
