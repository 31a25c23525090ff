// Router Parking tests: parking policy, fabric-manager reconfiguration
// protocol, table routing over the parked mesh.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rp/rp_network.hpp"

namespace flov {
namespace {

NocParams small_params() {
  NocParams p;
  p.width = 4;
  p.height = 4;
  return p;
}

PacketDescriptor pkt(NodeId s, NodeId d, int size = 4, Cycle gen = 0) {
  PacketDescriptor p;
  p.src = s;
  p.dest = d;
  p.size_flits = size;
  p.gen_cycle = gen;
  return p;
}

// ----------------------------------------------------------------- policy

TEST(ParkingPolicy, NothingGatedNothingParked) {
  MeshGeometry g(4, 4);
  std::vector<bool> gated(16, false), aon(16, false);
  const auto powered = compute_parked_set(g, gated, aon, RpPolicy::kAggressive);
  for (bool on : powered) EXPECT_TRUE(on);
}

TEST(ParkingPolicy, AggressiveParksIsolatedGatedCore) {
  MeshGeometry g(4, 4);
  std::vector<bool> gated(16, false), aon(16, false);
  gated[5] = true;
  const auto powered = compute_parked_set(g, gated, aon, RpPolicy::kAggressive);
  EXPECT_FALSE(powered[5]);
  for (NodeId n = 0; n < 16; ++n) {
    if (n != 5) EXPECT_TRUE(powered[n]) << n;
  }
}

TEST(ParkingPolicy, ConnectivityPreserved) {
  MeshGeometry g(4, 4);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bool> gated(16, false), aon(16, false);
    int on = 16;
    for (int i = 0; i < 16; ++i) {
      gated[i] = rng.next_bool(0.6);
      on -= gated[i];
    }
    if (on == 0) gated[0] = false;  // at least one endpoint
    const auto powered =
        compute_parked_set(g, gated, aon, RpPolicy::kAggressive);
    std::vector<bool> endpoints(16);
    for (int i = 0; i < 16; ++i) endpoints[i] = !gated[i];
    EXPECT_TRUE(endpoints_connected(g, powered, endpoints));
    // Active endpoints are never parked.
    for (int i = 0; i < 16; ++i) {
      if (!gated[i]) EXPECT_TRUE(powered[i]) << i;
    }
  }
}

TEST(ParkingPolicy, AlwaysOnRespected) {
  MeshGeometry g(4, 4);
  std::vector<bool> gated(16, true), aon(16, false);
  gated[9] = false;
  aon[0] = aon[3] = aon[12] = aon[15] = true;
  const auto powered = compute_parked_set(g, gated, aon, RpPolicy::kAggressive);
  for (NodeId n : {0, 3, 12, 15, 9}) EXPECT_TRUE(powered[n]) << n;
}

TEST(ParkingPolicy, ConservativeParksSubsetOfAggressive) {
  MeshGeometry g(4, 4);
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> gated(16, false), aon(16, false);
    for (int i = 0; i < 16; ++i) gated[i] = rng.next_bool(0.5);
    gated[0] = false;
    const auto agg = compute_parked_set(g, gated, aon, RpPolicy::kAggressive);
    const auto cons =
        compute_parked_set(g, gated, aon, RpPolicy::kConservative);
    int agg_parked = 0, cons_parked = 0;
    for (int i = 0; i < 16; ++i) {
      agg_parked += !agg[i];
      cons_parked += !cons[i];
    }
    EXPECT_LE(cons_parked, agg_parked);
  }
}

TEST(ParkingPolicy, EndpointConnectivityHelper) {
  MeshGeometry g(4, 4);
  std::vector<bool> powered(16, true), endpoints(16, false);
  endpoints[0] = endpoints[15] = true;
  EXPECT_TRUE(endpoints_connected(g, powered, endpoints));
  // Cut the mesh along column 1.
  for (NodeId n : {1, 5, 9, 13}) powered[n] = false;
  EXPECT_FALSE(endpoints_connected(g, powered, endpoints));
}

// ---------------------------------------------------------- fabric manager

TEST(FabricManager, ReconfigurationStallsAndResumes) {
  RpNetwork sys(small_params(), EnergyParams{});
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  run(10);
  EXPECT_FALSE(sys.fabric_manager().stalled());
  sys.set_core_gated(5, true, now);
  run(5);
  EXPECT_TRUE(sys.fabric_manager().stalled());
  EXPECT_FALSE(sys.injection_allowed(0));
  // Phase I is >= 750 cycles; after ~900 everything resumed.
  run(900);
  EXPECT_FALSE(sys.fabric_manager().stalled());
  EXPECT_TRUE(sys.injection_allowed(0));
  EXPECT_EQ(sys.gated_router_count(), 1);
  EXPECT_EQ(sys.fabric_manager().reconfigurations(), 1u);
  EXPECT_GE(sys.fabric_manager().last_reconfig_duration(), 750u);
}

TEST(FabricManager, QueuedPacketsAgeThroughTheStall) {
  RpNetwork sys(small_params(), EnergyParams{});
  std::vector<PacketRecord> recs;
  sys.network().set_eject_callback(
      [&](const PacketRecord& r) { recs.push_back(r); });
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  sys.set_core_gated(5, true, now);
  run(3);  // reconfiguration begins
  ASSERT_TRUE(sys.fabric_manager().stalled());
  sys.network().enqueue(pkt(0, 15, 4, now));
  run(1200);
  ASSERT_EQ(recs.size(), 1u);
  // The packet waited out the >=750-cycle Phase I in its source queue.
  EXPECT_GE(recs[0].total_latency(), 700u);
}

TEST(FabricManager, UnparkOnCoreWake) {
  RpNetwork sys(small_params(), EnergyParams{});
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  sys.set_core_gated(5, true, now);
  run(1000);
  ASSERT_EQ(sys.gated_router_count(), 1);
  sys.set_core_gated(5, false, now);
  run(1000);
  EXPECT_EQ(sys.gated_router_count(), 0);
  EXPECT_EQ(sys.fabric_manager().reconfigurations(), 2u);
}

TEST(FabricManager, PurgesPacketsToParkedDestinations) {
  RpNetwork sys(small_params(), EnergyParams{});
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  sys.set_core_gated(5, true, now);
  run(2);
  // Generated after the gating event but before reconfiguration applied.
  sys.network().enqueue(pkt(0, 5));
  run(1000);
  EXPECT_EQ(sys.fabric_manager().purged_packets(), 1u);
}

TEST(FabricManager, PurgesPacketsQueuedAtParkedSources) {
  RpNetwork sys(small_params(), EnergyParams{});
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  sys.set_core_gated(5, true, now);
  run(2);
  // Leftovers in the just-gated node's own queue: its router is about to
  // park, so they can never enter the fabric. Without the source-side
  // purge they would be injected into the parked router once the stall
  // lifts — the "flit arrived at a parked router" fatal that large-mesh
  // scalability runs hit (at 24x24+, some gated node almost always has a
  // non-empty queue at the reconfiguration instant).
  sys.network().enqueue(pkt(5, 0));
  sys.network().enqueue(pkt(5, 10));
  run(1500);
  EXPECT_EQ(sys.fabric_manager().purged_packets(), 2u);
  EXPECT_EQ(sys.gated_router_count(), 1);
}

TEST(FabricManager, MinEpochGapBatchesChanges) {
  FabricManagerConfig cfg;
  cfg.min_epoch_gap = 5000;
  RpNetwork sys(small_params(), EnergyParams{}, cfg);
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  sys.set_core_gated(1, true, now);
  run(1000);
  ASSERT_EQ(sys.fabric_manager().reconfigurations(), 1u);
  // Three more gate events inside the epoch gap -> exactly one more
  // reconfiguration once the gap expires.
  sys.set_core_gated(2, true, now);
  run(100);
  sys.set_core_gated(4, true, now);
  run(100);
  sys.set_core_gated(6, true, now);
  run(7000);
  EXPECT_EQ(sys.fabric_manager().reconfigurations(), 2u);
  // Gated {1,2,4,6}: router 4 must stay powered or corner 0 (an active
  // endpoint) would be cut off — the FM parks only 3 of the 4.
  EXPECT_EQ(sys.gated_router_count(), 3);
}

TEST(RpRouting, TrafficAvoidsParkedRoutersAndDelivers) {
  RpNetwork sys(small_params(), EnergyParams{});
  std::vector<PacketRecord> recs;
  sys.network().set_eject_callback(
      [&](const PacketRecord& r) { recs.push_back(r); });
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  for (NodeId n : {5, 6, 9}) sys.set_core_gated(n, true, now);
  run(1500);
  ASSERT_EQ(sys.gated_router_count(), 3);
  // All-to-all among the remaining active cores.
  int count = 0;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s == d || sys.core_gated(s) || sys.core_gated(d)) continue;
      sys.network().enqueue(pkt(s, d));
      ++count;
    }
  }
  run(4000);
  EXPECT_EQ(static_cast<int>(recs.size()), count);
  // A parked router processed no flits.
  EXPECT_EQ(sys.network().router(5).flits_traversed(), 0u);
  EXPECT_EQ(sys.network().router(5).flits_flown_over(), 0u);
}

TEST(RpPower, ParkedRoutersDropToResidualLeakage) {
  RpNetwork sys(small_params(), EnergyParams{});
  Cycle now = 0;
  auto run = [&](Cycle n) {
    for (Cycle i = 0; i < n; ++i) sys.step(now++);
  };
  run(100);
  sys.power().begin_window(now);
  const auto base = sys.power().report(now + 1000);
  for (NodeId n : {5, 6}) sys.set_core_gated(n, true, now);
  run(1500);
  sys.power().begin_window(now);
  run(1000);
  const auto parked = sys.power().report(now);
  EXPECT_LT(parked.static_mw, base.static_mw);
}

}  // namespace
}  // namespace flov
