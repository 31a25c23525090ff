// Scalability study (beyond the paper's 8x8, supporting its Section I/II
// argument): FLOV's distributed handshake reconfigures in O(neighborhood)
// time regardless of mesh size, while RP's centralized fabric manager
// stalls the whole network for a Phase-I that grows with the router count
// (route computation for N routers + table distribution across the mesh).
//
// For each mesh size we apply one gating change mid-run and report:
//   * RP reconfiguration duration and its latency-spike peak,
//   * gFLOV's spike peak (none expected) and its average transition time,
//   * steady-state average latency for both.
#include <algorithm>
#include <chrono>
#include <memory>

#include "bench_util.hpp"
#include "flov/flov_network.hpp"
#include "rp/rp_network.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"

namespace {

using namespace flov;

struct Result {
  double avg_latency = 0;
  double peak_window = 0;
  Cycle reconfig_duration = 0;  // RP only
};

template <typename System>
Result drive(System& sys, const NocParams& p, Cycle change_at, Cycle total,
             std::uint64_t seed) {
  MeshGeometry g(p.width, p.height);
  auto pattern = TrafficPattern::create("uniform", g);
  SyntheticTraffic traffic(&sys, pattern.get(), 0.02, p.packet_size, seed);
  GatingScenario scen = GatingScenario::epochs(g, 0.15, {change_at}, seed);
  LatencyStats stats(3, 1000);
  stats.set_measure_from(5000);
  sys.network().set_eject_callback(
      [&](const PacketRecord& r) { stats.record(r); });
  for (Cycle now = 0; now < total; ++now) {
    scen.apply(sys, now);
    traffic.step(now);
    sys.step(now);
  }
  Result r;
  r.avg_latency = stats.avg_latency();
  if (const TimeSeries* ts = stats.timeline()) {
    for (const auto& pt : ts->points()) {
      r.peak_window = std::max(r.peak_window, pt.mean);
    }
  }
  return r;
}

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::stoi(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flov::bench;
  Config cfg;
  cfg.parse_args(argc, argv);
  const Cycle total = cfg.get_int("measure", 30000) + 10000;
  // threads= : comma list of per-run domain-worker counts
  //            (noc.step_threads); each value adds a full row set.
  // tiles=TXxTY : explicit tile-domain grid (default: auto row bands).
  // Results are bit-identical at any value; only wall time changes.
  const std::vector<int> threads_list =
      parse_int_list(cfg.get_string("threads", "1"));
  const int nthreads = static_cast<int>(threads_list.size());
  const std::string tiles = cfg.get_string("tiles", "");
  // Budget the cell pool against the intra-run workers so the bench does
  // not oversubscribe (jobs x threads ~ core count).
  const int max_threads =
      *std::max_element(threads_list.begin(), threads_list.end());
  const int jobs = resolve_jobs(static_cast<int>(cfg.get_int("jobs", 0)),
                                max_threads);
  ManifestSink sink(argc, argv, "bench_scalability");

  // sizes= : comma list of mesh edge lengths. The 32/64 rows are the
  // "interactive large mesh" cells the SoA hot path + tile domains target;
  // trim the list (sizes=4,8,12,16) for a quick look.
  const std::vector<int> sizes =
      parse_int_list(cfg.get_string("sizes", "4,8,12,16,32,64"));
  const int nsizes = static_cast<int>(sizes.size());

  // One pooled task per (threads, mesh size, system) cell; each builds and
  // drives its own network end to end.
  struct Row {
    Result rp, gf;
    Cycle rp_reconfig = 0;
    double rp_wall = 0.0, gf_wall = 0.0;
  };
  std::vector<Row> rows(static_cast<std::size_t>(nthreads * nsizes));
  parallel_run(2 * nsizes * nthreads, jobs, [&](int i) {
    const int cell = i / 2;
    const int k = sizes[cell % nsizes];
    NocParams p;
    p.width = k;
    p.height = k;
    p.step_threads = threads_list[cell / nsizes];
    p.apply_tiles_shorthand(tiles);
    const auto start = std::chrono::steady_clock::now();
    if (i % 2 == 0) {
      // RP: Phase-I grows with the router count (route computation at the
      // FM plus per-router table distribution) — c1 + c2 * N.
      FabricManagerConfig fm;
      fm.phase1_latency = 400 + 5 * k * k;
      auto rp = std::make_unique<RpNetwork>(p, EnergyParams{}, fm);
      rows[cell].rp = drive(*rp, p, /*change_at=*/20000, total, 11);
      rows[cell].rp_reconfig = rp->fabric_manager().last_reconfig_duration();
      rp.reset();  // teardown (joins step workers) counts toward wall time
      rows[cell].rp_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    } else {
      auto gf = std::make_unique<FlovNetwork>(p, FlovMode::kGeneralized,
                                              EnergyParams{});
      rows[cell].gf = drive(*gf, p, 20000, total, 11);
      gf.reset();
      rows[cell].gf_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
    }
  });

  print_header(
      "Scalability — one gating change mid-run, distributed gFLOV vs "
      "centralized RP");
  std::printf("(tiles: %s)\n", tiles.empty() ? "auto" : tiles.c_str());
  std::printf("%-8s %7s | %12s %12s %14s %9s | %12s %12s %9s\n", "mesh",
              "threads", "RP latency", "RP peak", "RP reconfig", "RP wall",
              "gFLOV lat", "gFLOV peak", "gF wall");

  for (int ti = 0; ti < nthreads; ++ti) {
    for (int i = 0; i < nsizes; ++i) {
      const Row& row = rows[static_cast<std::size_t>(ti * nsizes + i)];
      const int k = sizes[i];
      std::printf(
          "%-8s %7d | %12.2f %12.2f %14llu %8.2fs | %12.2f %12.2f %8.2fs\n",
          (std::to_string(k) + "x" + std::to_string(k)).c_str(),
          threads_list[ti], row.rp.avg_latency, row.rp.peak_window,
          static_cast<unsigned long long>(row.rp_reconfig), row.rp_wall,
          row.gf.avg_latency, row.gf.peak_window, row.gf_wall);
    }
  }
  std::printf("\nRP's stall (and the latency spike behind it) grows with the "
              "mesh; gFLOV's distributed handshake does not.\n");

  if (sink.enabled()) {
    // Reuse the sweep-manifest shape: one point per (threads, mesh, scheme)
    // cell, with the bench figures as per-point gauges (wall_seconds
    // included — this artifact records performance, it is not a
    // determinism gate).
    std::vector<SyntheticExperimentConfig> points;
    std::vector<RunResult> results;
    for (int ti = 0; ti < nthreads; ++ti) {
      for (int i = 0; i < nsizes; ++i) {
        const Row& row = rows[static_cast<std::size_t>(ti * nsizes + i)];
        for (int s = 0; s < 2; ++s) {
          SyntheticExperimentConfig ex;
          ex.noc.width = sizes[i];
          ex.noc.height = sizes[i];
          ex.noc.step_threads = threads_list[ti];
          ex.noc.apply_tiles_shorthand(tiles);
          ex.pattern = "uniform";
          ex.inj_rate_flits = 0.02;
          ex.seed = 11;
          points.push_back(ex);
          RunResult r;
          const Result& res = s == 0 ? row.rp : row.gf;
          r.scheme = s == 0 ? "RP" : "gFLOV";
          r.avg_latency = res.avg_latency;
          r.metrics = std::make_shared<telemetry::MetricsRegistry>();
          r.metrics->gauge("bench.avg_latency") = res.avg_latency;
          r.metrics->gauge("bench.peak_window") = res.peak_window;
          r.metrics->gauge("bench.step_threads") = threads_list[ti];
          r.metrics->gauge("bench.step_tiles_x") = ex.noc.step_tiles_x;
          r.metrics->gauge("bench.step_tiles_y") = ex.noc.step_tiles_y;
          r.metrics->gauge("bench.wall_seconds") =
              s == 0 ? row.rp_wall : row.gf_wall;
          if (s == 0) {
            r.metrics->gauge("bench.rp_reconfig_cycles") =
                static_cast<double>(row.rp_reconfig);
          }
          results.push_back(std::move(r));
        }
      }
    }
    SweepOptions so;
    so.jobs = jobs;
    sink.write(points, results, so);
  }
  return 0;
}
