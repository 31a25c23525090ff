// Micro-benchmarks (google-benchmark): simulator throughput and the cost of
// the core building blocks. These are engineering benchmarks for the
// simulator itself, not paper figures.
//
// Besides the normal console output, `json=<path>` writes a machine-
// readable BENCH_sweep.json with per-benchmark throughput plus wall-clock
// and cycles/sec for a short figure-style sweep (see scripts/
// bench_compare.py for diffing two such files):
//   bench_micro json=BENCH_sweep.json sweep_measure=4000 jobs=2
// google-benchmark's own --benchmark_* flags pass through unchanged.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "flov/flov_network.hpp"
#include "noc/arbiter.hpp"
#include "noc/network.hpp"
#include "routing/updown.hpp"
#include "routing/yx_routing.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {
namespace {

void BM_RoundRobinArbiter(benchmark::State& state) {
  RoundRobinArbiter arb(static_cast<int>(state.range(0)));
  std::vector<bool> req(state.range(0), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.arbitrate(req));
  }
}
BENCHMARK(BM_RoundRobinArbiter)->Arg(4)->Arg(16);

void BM_Rng(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(64));
  }
}
BENCHMARK(BM_Rng);

void BM_UpDownRouteBuild(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  MeshGeometry g(k, k);
  Rng rng(5);
  std::vector<bool> powered(g.num_nodes(), true);
  for (int i = 0; i < g.num_nodes(); ++i) powered[i] = !rng.next_bool(0.3);
  powered[0] = true;
  for (auto _ : state) {
    UpDownRoutes r(g, powered);
    benchmark::DoNotOptimize(r.root());
  }
}
BENCHMARK(BM_UpDownRouteBuild)->Arg(8)->Arg(16);

/// Cycles/second of the whole mesh under load (the headline simulator
/// throughput number): one iteration = one network cycle. `vnets` sets the
/// VCs per port: 1 vnet = 4 VCs (synthetic traffic), 3 vnets = 12 VCs (the
/// CMP configuration, Table I). Packets rotate over the vnets without an
/// extra RNG draw, so every vnet count sees the same packet stream.
void BM_NetworkCycle(benchmark::State& state) {
  NocParams p;
  p.width = 8;
  p.height = 8;
  p.num_vnets = static_cast<int>(state.range(0));
  MeshGeometry g(8, 8);
  YxRouting routing(g);
  Network net(p, &routing, nullptr);
  net.set_eject_callback([](const PacketRecord&) {});
  Rng rng(3);
  Cycle now = 0;
  int next_vnet = 0;
  for (auto _ : state) {
    // Keep ~0.05 flits/node/cycle of uniform traffic flowing.
    for (NodeId s = 0; s < 64; ++s) {
      if (!rng.next_bool(0.0125)) continue;
      PacketDescriptor d;
      d.src = s;
      d.dest = static_cast<NodeId>(rng.next_below(64));
      if (d.dest == s) continue;
      d.vnet = static_cast<VnetId>(next_vnet);
      next_vnet = (next_vnet + 1) % p.num_vnets;
      d.size_flits = 4;
      d.gen_cycle = now;
      net.enqueue(d);
    }
    net.step(now++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCycle)->Arg(1)->Arg(3)->ArgName("vnets");

/// One gFLOV cycle on a k x k mesh with `gated_fraction` of the cores off
/// and 4-flit packets offered at 0.005 per node per cycle, timed after
/// `warmup` untimed cycles.
void run_gflov_cycles(benchmark::State& state, int k, double gated_fraction,
                      Cycle warmup) {
  NocParams p;
  p.width = k;
  p.height = k;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  const NodeId n = k * k;
  Rng rng(7);
  for (NodeId i = 0; i < n; ++i) {
    if (rng.next_bool(gated_fraction)) sys.set_core_gated(i, true, 0);
  }
  Cycle now = 0;
  sys.network().set_eject_callback([](const PacketRecord&) {});
  auto cycle = [&] {
    for (NodeId s = 0; s < n; ++s) {
      if (sys.core_gated(s) || !rng.next_bool(0.005)) continue;
      NodeId d = static_cast<NodeId>(rng.next_below(n));
      if (d == s || sys.core_gated(d)) continue;
      PacketDescriptor pd;
      pd.src = s;
      pd.dest = d;
      pd.size_flits = 4;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
    }
    sys.step(now++);
  };
  while (now < warmup) cycle();
  for (auto _ : state) cycle();
  state.SetItemsProcessed(state.iterations());
}

/// Full experiment throughput including gating machinery: one iteration =
/// one 8x8 gFLOV cycle with `gate_pct`% of the cores off. The gated
/// fraction is exactly the population the active-set scheduler skips, so
/// throughput should GROW with the gating level.
void BM_GFlovCycle(benchmark::State& state) {
  run_gflov_cycles(state, 8, static_cast<double>(state.range(0)) / 100.0,
                   /*warmup=*/0);
}
BENCHMARK(BM_GFlovCycle)->Arg(40)->Arg(50)->ArgName("gate_pct");

/// BM_GFlovCycle on a 32x32 mesh (serial stepping). At this size the
/// per-node serial control plane — HSC walk, gating scan — would dominate
/// unless it follows protocol activity instead of the node count. The
/// first 2000 cycles (gating transitions, the fabric filling up) run
/// untimed: a 32x32 fabric takes that long to reach its steady load, and
/// timing the transient made the per-cycle cost depend on how many
/// iterations the timer happened to pick.
void BM_GFlovCycle32(benchmark::State& state) {
  run_gflov_cycles(state, 32, static_cast<double>(state.range(0)) / 100.0,
                   /*warmup=*/2000);
}
BENCHMARK(BM_GFlovCycle32)->Arg(40)->ArgName("gate_pct");

/// Cost of one invariant-verifier check on the BM_GFlovCycle/gate_pct:40
/// fabric: one iteration = one gFLOV cycle, of which only
/// InvariantVerifier::step is timed (every check armed, every cycle). The
/// fabric first runs 2000 untimed cycles so the gating transitions (and the
/// verifier's table rebuilds they trigger) are over.
void BM_VerifierStep(benchmark::State& state) {
  NocParams p;
  p.width = 8;
  p.height = 8;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  Rng rng(7);
  for (NodeId n = 0; n < 64; ++n) {
    if (rng.next_bool(0.4)) sys.set_core_gated(n, true, 0);
  }
  sys.network().set_eject_callback([](const PacketRecord&) {});
  InvariantVerifier verifier(sys);
  Cycle now = 0;
  auto cycle = [&] {
    for (NodeId s = 0; s < 64; ++s) {
      if (sys.core_gated(s) || !rng.next_bool(0.005)) continue;
      NodeId d = static_cast<NodeId>(rng.next_below(64));
      if (d == s || sys.core_gated(d)) continue;
      PacketDescriptor pd;
      pd.src = s;
      pd.dest = d;
      pd.size_flits = 4;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
    }
    sys.step(now);
  };
  while (now < 2000) {
    cycle();
    verifier.step(now++);
  }
  for (auto _ : state) {
    cycle();
    const auto t0 = std::chrono::steady_clock::now();
    verifier.step(now++);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(verifier.violations());
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifierStep)->UseManualTime();

/// Console reporter that additionally captures every run so main() can
/// write the machine-readable JSON (works across google-benchmark versions
/// — only iterations + accumulated real time are consumed).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    std::int64_t iterations = 0;
    double real_time_s = 0.0;  ///< accumulated over all iterations
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      Entry e;
      e.name = r.benchmark_name();
      e.iterations = static_cast<std::int64_t>(r.iterations);
      e.real_time_s = r.real_accumulated_time;
      entries.push_back(std::move(e));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  std::vector<Entry> entries;
};

struct SweepPointTiming {
  std::string scheme;
  double gated = 0.0;
  double wall_s = 0.0;
  double cycles_per_sec = 0.0;
};

}  // namespace
}  // namespace flov

int main(int argc, char** argv) {
  using namespace flov;
  using Clock = std::chrono::steady_clock;

  // Split argv: our key=value settings vs google-benchmark's --flags
  // (Config ignores tokens without '=' and we only read our own keys, so
  // parsing everything once is safe).
  Config cfg;
  cfg.parse_args(argc, argv);
  std::vector<char*> bm_args;
  bm_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) bm_args.push_back(argv[i]);
  }
  const std::string json_path = cfg.get_string("json", "");
  const Cycle sweep_measure = cfg.get_int("sweep_measure", 4000);
  const Cycle sweep_warmup = cfg.get_int("sweep_warmup", 1000);
  const int jobs = cfg.get_int("jobs", 1);

  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (json_path.empty()) return 0;

  // Short figure-style sweep, timed per point: 4 schemes x 3 gating levels
  // at the paper's low injection rate.
  std::vector<SyntheticExperimentConfig> points;
  std::vector<SweepPointTiming> timings;
  for (double f : {0.0, 0.4, 0.8}) {
    for (Scheme s : kAllSchemes) {
      SyntheticExperimentConfig ex;
      ex.scheme = s;
      ex.pattern = "uniform";
      ex.inj_rate_flits = 0.02;
      ex.gated_fraction = f;
      ex.warmup = sweep_warmup;
      ex.measure = sweep_measure;
      points.push_back(ex);
      timings.push_back({std::string(to_string(s)), f, 0.0, 0.0});
    }
  }
  const auto sweep_start = Clock::now();
  parallel_run(static_cast<int>(points.size()), jobs, [&](int i) {
    const auto t0 = Clock::now();
    (void)run_synthetic(points[static_cast<std::size_t>(i)]);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    timings[static_cast<std::size_t>(i)].wall_s = secs;
    timings[static_cast<std::size_t>(i)].cycles_per_sec =
        static_cast<double>(points[static_cast<std::size_t>(i)].warmup +
                            points[static_cast<std::size_t>(i)].measure) /
        secs;
  });
  const double sweep_wall =
      std::chrono::duration<double>(Clock::now() - sweep_start).count();

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < reporter.entries.size(); ++i) {
    const auto& e = reporter.entries[i];
    const double per_iter_ns =
        e.iterations > 0 ? e.real_time_s * 1e9 / static_cast<double>(e.iterations) : 0.0;
    const double items_per_sec =
        e.real_time_s > 0 ? static_cast<double>(e.iterations) / e.real_time_s : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"per_iter_ns\": %.2f, \"items_per_second\": %.2f}%s\n",
                 e.name.c_str(), static_cast<long long>(e.iterations),
                 per_iter_ns, items_per_sec,
                 i + 1 < reporter.entries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sweep\": {\n");
  std::fprintf(f, "    \"jobs\": %d,\n    \"warmup\": %llu,\n"
               "    \"measure\": %llu,\n    \"total_wall_s\": %.3f,\n",
               jobs, static_cast<unsigned long long>(sweep_warmup),
               static_cast<unsigned long long>(sweep_measure), sweep_wall);
  std::fprintf(f, "    \"points\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    std::fprintf(f,
                 "      {\"scheme\": \"%s\", \"gated\": %.2f, "
                 "\"wall_s\": %.3f, \"cycles_per_sec\": %.1f}%s\n",
                 t.scheme.c_str(), t.gated, t.wall_s, t.cycles_per_sec,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  benchmark::Shutdown();
  return 0;
}
