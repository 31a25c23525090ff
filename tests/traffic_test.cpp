// Traffic pattern / gating scenario / synthetic injection tests.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "sim/baseline_network.hpp"
#include "sim/builder.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"

namespace flov {
namespace {

TEST(TrafficPattern, FactoryKnowsAllNames) {
  MeshGeometry g(8, 8);
  for (const char* name : {"uniform", "tornado", "transpose", "bitcomplement",
                           "neighbor", "hotspot"}) {
    auto p = TrafficPattern::create(name, g);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_STREQ(p->name(), name);
  }
  EXPECT_THROW(TrafficPattern::create("bogus", g), std::logic_error);
}

TEST(TrafficPattern, UniformNeverPicksSelfOrInactive) {
  MeshGeometry g(8, 8);
  UniformPattern u(g);
  Rng rng(5);
  std::vector<bool> mask(64, true);
  mask[10] = mask[20] = mask[30] = false;
  const ActiveNodes active(mask);
  for (int i = 0; i < 2000; ++i) {
    const NodeId d = u.dest(7, active, rng);
    ASSERT_NE(d, 7);
    ASSERT_NE(d, kInvalidNode);
    ASSERT_TRUE(active[d]);
  }
}

TEST(TrafficPattern, UniformCoversAllActiveDestinations) {
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  Rng rng(7);
  const ActiveNodes active(std::vector<bool>(16, true));
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(u.dest(0, active, rng));
  EXPECT_EQ(seen.size(), 15u);
}

TEST(TrafficPattern, UniformRankLookupMatchesTwoPassScanDrawForDraw) {
  // Reference: the count-then-walk scan over the mask, one next_below draw
  // per packet. The rank lookup must pick the same node from the same draw
  // for every source (active or not), so seeded runs do not move.
  MeshGeometry g(8, 8);
  UniformPattern u(g);
  Rng mask_rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> mask(64);
    for (int n = 0; n < 64; ++n) mask[n] = mask_rng.next_bool(0.6);
    const ActiveNodes active(mask);
    Rng a(100 + trial);
    Rng b(100 + trial);
    for (NodeId src = 0; src < 64; ++src) {
      int count = 0;
      for (NodeId n = 0; n < 64; ++n) count += (mask[n] && n != src) ? 1 : 0;
      NodeId want = kInvalidNode;
      if (count > 0) {
        int pick = static_cast<int>(b.next_below(count));
        for (NodeId n = 0; n < 64 && want == kInvalidNode; ++n) {
          if (mask[n] && n != src && pick-- == 0) want = n;
        }
      }
      ASSERT_EQ(u.dest(src, active, a), want) << "src " << src;
    }
  }
}

TEST(TrafficPattern, UniformNoActiveDestReturnsInvalid) {
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  Rng rng(1);
  std::vector<bool> mask(16, false);
  mask[3] = true;
  EXPECT_EQ(u.dest(3, ActiveNodes(mask), rng), kInvalidNode);
}

TEST(TrafficPattern, TornadoHalfRingOffset) {
  MeshGeometry g(8, 8);
  TornadoPattern t(g);
  Rng rng(1);
  const ActiveNodes active(std::vector<bool>(64, true));
  // (x, y) -> ((x + 3) mod 8, y) for k = 8.
  EXPECT_EQ(t.dest(g.id(0, 2), active, rng), g.id(3, 2));
  EXPECT_EQ(t.dest(g.id(6, 5), active, rng), g.id(1, 5));
}

TEST(TrafficPattern, TornadoSkipsGatedTarget) {
  MeshGeometry g(8, 8);
  TornadoPattern t(g);
  Rng rng(1);
  std::vector<bool> mask(64, true);
  mask[g.id(3, 2)] = false;
  EXPECT_EQ(t.dest(g.id(0, 2), ActiveNodes(mask), rng), kInvalidNode);
}

TEST(TrafficPattern, TransposeAndBitComplement) {
  MeshGeometry g(8, 8);
  TransposePattern tr(g);
  BitComplementPattern bc(g);
  Rng rng(1);
  const ActiveNodes active(std::vector<bool>(64, true));
  EXPECT_EQ(tr.dest(g.id(2, 5), active, rng), g.id(5, 2));
  EXPECT_EQ(bc.dest(5, active, rng), 58);  // ~5 & 63
  EXPECT_EQ(tr.dest(g.id(3, 3), active, rng), kInvalidNode);  // self
}

TEST(TrafficPattern, NeighborWrapsRow) {
  MeshGeometry g(4, 4);
  NeighborPattern n(g);
  Rng rng(1);
  const ActiveNodes active(std::vector<bool>(16, true));
  EXPECT_EQ(n.dest(g.id(3, 1), active, rng), g.id(0, 1));
}

TEST(TrafficPattern, HotspotBiasesCorners) {
  MeshGeometry g(8, 8);
  HotspotPattern h(g, 0.5);
  Rng rng(3);
  const ActiveNodes active(std::vector<bool>(64, true));
  int corner_hits = 0;
  const std::set<NodeId> corners{0, 7, 56, 63};
  for (int i = 0; i < 4000; ++i) {
    const NodeId d = h.dest(27, active, rng);
    corner_hits += corners.count(d);
  }
  // ~50% directed + uniform residue: far above the uniform 4/63 share.
  EXPECT_GT(corner_hits, 1500);
}

TEST(GatingScenario, FractionGatesExpectedCount) {
  MeshGeometry g(8, 8);
  for (double f : {0.0, 0.1, 0.5, 0.8}) {
    auto s = GatingScenario::uniform_fraction(g, f, 42);
    ASSERT_EQ(s.events().size(), 1u);
    int gated = 0;
    for (bool b : s.events()[0].gated) gated += b;
    EXPECT_EQ(gated, static_cast<int>(f * 64 + 0.5));
  }
}

TEST(GatingScenario, SeedDeterminism) {
  MeshGeometry g(8, 8);
  auto a = GatingScenario::uniform_fraction(g, 0.5, 9);
  auto b = GatingScenario::uniform_fraction(g, 0.5, 9);
  auto c = GatingScenario::uniform_fraction(g, 0.5, 10);
  EXPECT_EQ(a.events()[0].gated, b.events()[0].gated);
  EXPECT_NE(a.events()[0].gated, c.events()[0].gated);
}

TEST(GatingScenario, EpochsChangeTheSet) {
  MeshGeometry g(8, 8);
  auto s = GatingScenario::epochs(g, 0.1, {50000, 60000}, 1);
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_EQ(s.events()[1].at, 50000u);
  EXPECT_NE(s.events()[0].gated, s.events()[1].gated);
}

TEST(GatingScenario, ApplyDrivesSystem) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{});
  MeshGeometry g(4, 4);
  auto s = GatingScenario::epochs(g, 0.25, {100}, 3);
  s.apply(sys, 0);
  int gated0 = 0;
  for (NodeId n = 0; n < 16; ++n) gated0 += sys.core_gated(n);
  EXPECT_EQ(gated0, 4);
  s.apply(sys, 100);
  int gated1 = 0;
  for (NodeId n = 0; n < 16; ++n) gated1 += sys.core_gated(n);
  EXPECT_EQ(gated1, 4);  // same fraction, different set
}

TEST(SyntheticTraffic, RateMatchesConfiguredInjection) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{});
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  SyntheticTraffic t(&sys, &u, /*inj_rate_flits=*/0.2, /*packet_size=*/4, 7);
  for (Cycle c = 0; c < 20000; ++c) t.step(c);
  // Expected packets: 16 nodes * 0.05 pkt/cyc * 20000 = 16000.
  EXPECT_NEAR(static_cast<double>(t.generated_packets()), 16000, 500);
}

TEST(SyntheticTraffic, GatedCoresGenerateNothing) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{});
  for (NodeId n = 0; n < 15; ++n) sys.set_core_gated(n, true, 0);
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  SyntheticTraffic t(&sys, &u, 0.2, 4, 7);
  for (Cycle c = 0; c < 5000; ++c) t.step(c);
  // Only node 15 is active, and it has no active destination.
  EXPECT_EQ(t.generated_packets(), 0u);
}

TEST(SyntheticTraffic, FollowsGatingChangesMadeAfterConstruction) {
  // The generator caches the active set and rescans it only when the
  // system's gating version moves, so every scheme's set_core_gated must
  // move it.
  for (Scheme s : kAllSchemes) {
    NocParams p;
    p.width = 4;
    p.height = 4;
    BuiltSystem built = build_system(s, p, EnergyParams{});
    NocSystem& sys = *built.system;
    MeshGeometry g(4, 4);
    UniformPattern u(g);
    SyntheticTraffic t(&sys, &u, 0.2, 4, 7);
    for (Cycle c = 0; c < 100; ++c) t.step(c);
    EXPECT_GT(t.generated_packets(), 0u) << to_string(s);
    const std::uint64_t version = sys.gating_version();
    for (NodeId n = 0; n < 15; ++n) sys.set_core_gated(n, true, 100);
    EXPECT_NE(sys.gating_version(), version) << to_string(s);
    // Only node 15 is left active, and it has no active destination.
    const std::uint64_t before = t.generated_packets();
    for (Cycle c = 100; c < 1100; ++c) t.step(c);
    EXPECT_EQ(t.generated_packets(), before) << to_string(s);
  }
}

}  // namespace
}  // namespace flov
