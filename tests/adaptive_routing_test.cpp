// adaptive_routing_test.cpp — Valiant / UGAL routing behaviour:
//   * UGAL falls back to the minimal route on an idle fabric,
//   * UGAL diverts onto non-minimal paths under an induced hotspot,
//   * Valiant paths stay deadlock-free and reach every NIC pair,
//   * congestion-aware spine selection spreads a fat-tree hot aggregate
//     across spines (static minimal pins it to one),
//   * the uplink queue-lag telemetry rises under load and is zero idle,
//   * detours never bypass edge VNI enforcement.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hsn/fabric.hpp"

namespace shs::hsn {
namespace {

constexpr Vni kVni = 555;

TimingConfig flat_timing() {
  TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

void authorize_all(Fabric& f, Vni vni) {
  for (std::size_t i = 0; i < f.node_count(); ++i) {
    const auto addr = static_cast<NicAddr>(i);
    ASSERT_TRUE(f.switch_for(addr)->authorize_vni(addr, vni).is_ok());
  }
}

std::vector<EndpointId> open_endpoints(Fabric& f, Vni vni) {
  std::vector<EndpointId> eps;
  for (std::size_t i = 0; i < f.node_count(); ++i) {
    auto ep = f.nic(static_cast<NicAddr>(i))
                  .alloc_endpoint(vni, TrafficClass::kBulkData);
    EXPECT_TRUE(ep.is_ok());
    eps.push_back(ep.value());
  }
  return eps;
}

/// 64 nodes, 16 edge switches, 4 groups — the fig14 dragonfly.
TopologyConfig dragonfly(RoutingPolicy policy) {
  TopologyConfig t;
  t.kind = TopologyKind::kDragonfly;
  t.nodes_per_switch = 4;
  t.switches_per_group = 4;
  t.routing = policy;
  return t;
}

/// 32 nodes, 4 leaves, 4 spines — the fig14 fat-tree.
TopologyConfig fat_tree(RoutingPolicy policy) {
  TopologyConfig t;
  t.kind = TopologyKind::kFatTree;
  t.nodes_per_switch = 8;
  t.spines = 4;
  t.routing = policy;
  return t;
}

TEST(AdaptiveRouting, UgalFallsBackToMinimalOnIdleFabric) {
  // One cross-group packet on an otherwise idle dragonfly: the UGAL
  // estimate must pick the minimal route (fewer hops, zero lag
  // everywhere), so hops and arrival match static minimal exactly.
  Packet got_minimal;
  Packet got_ugal;
  for (const auto policy :
       {RoutingPolicy::kMinimal, RoutingPolicy::kUgal}) {
    auto f = Fabric::create(64, flat_timing(), 0x1d1e, dragonfly(policy));
    authorize_all(*f, kVni);
    const auto eps = open_endpoints(*f, kVni);
    ASSERT_TRUE(
        f->nic(0).post_send(eps[0], 20, eps[20], 1, 4096, {}, 0).is_ok());
    auto pkt = f->nic(20).poll_rx(eps[20]);
    ASSERT_TRUE(pkt.is_ok());
    EXPECT_EQ(f->total_counters().routed_nonminimal, 0u);
    (policy == RoutingPolicy::kMinimal ? got_minimal : got_ugal) =
        pkt.value();
  }
  EXPECT_EQ(got_ugal.hops, got_minimal.hops);
  EXPECT_EQ(got_ugal.arrival_vt, got_minimal.arrival_vt);
}

TEST(AdaptiveRouting, UgalDivertsUnderInducedHotspot) {
  // Group 0 -> group 1 hotspot: every minimal route shares one global
  // link.  Once its queue lag exceeds the detour's extra hop cost, UGAL
  // must start taking Valiant paths — visible as routed_nonminimal > 0
  // and delivered packets with more than the 3 minimal hops.
  auto f = Fabric::create(64, flat_timing(), 0x1107,
                          dragonfly(RoutingPolicy::kUgal));
  authorize_all(*f, kVni);
  const auto eps = open_endpoints(*f, kVni);
  for (int k = 0; k < 32; ++k) {
    for (NicAddr src = 0; src < 16; ++src) {
      const NicAddr dst = 16 + src;
      ASSERT_TRUE(f->nic(src)
                      .post_send(eps[src], dst, eps[dst],
                                 static_cast<std::uint64_t>(k), 64 * 1024,
                                 {}, 0)
                      .is_ok());
    }
  }
  EXPECT_GT(f->total_counters().routed_nonminimal, 0u);
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);

  bool saw_detour_hops = false;
  for (NicAddr dst = 16; dst < 32; ++dst) {
    while (true) {
      auto pkt = f->nic(dst).poll_rx(eps[dst]);
      if (!pkt.is_ok()) break;
      EXPECT_LE(pkt.value().hops, 6);  // Valiant worst case
      saw_detour_hops |= pkt.value().hops > 3;
    }
  }
  EXPECT_TRUE(saw_detour_hops);
}

TEST(AdaptiveRouting, ValiantPathsReachEveryPairWithoutDrops) {
  struct Case {
    const char* name;
    TopologyConfig config;
    std::size_t nodes;
  };
  for (const Case& c : {Case{"fat-tree", fat_tree(RoutingPolicy::kValiant),
                             32},
                        Case{"dragonfly",
                             dragonfly(RoutingPolicy::kValiant), 64}}) {
    SCOPED_TRACE(c.name);
    auto f = Fabric::create(c.nodes, flat_timing(), 0x7a11, c.config);
    authorize_all(*f, kVni);
    const auto eps = open_endpoints(*f, kVni);
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < c.nodes; ++i) {
      for (std::size_t j = 0; j < c.nodes; j += 5) {
        if (i == j) continue;
        ASSERT_TRUE(f->nic(static_cast<NicAddr>(i))
                        .post_send(eps[i], static_cast<NicAddr>(j), eps[j],
                                   1, 1024, {}, 0)
                        .is_ok())
            << i << " -> " << j;
        auto pkt = f->nic(static_cast<NicAddr>(j)).poll_rx(eps[j]);
        ASSERT_TRUE(pkt.is_ok()) << i << " -> " << j;
        EXPECT_LE(pkt.value().hops, 6) << i << " -> " << j;
        ++delivered;
      }
    }
    EXPECT_EQ(f->total_counters().delivered, delivered);
    EXPECT_EQ(f->total_counters().dropped_total(), 0u);
    // Cross-group traffic on the dragonfly really detoured.
    if (c.config.kind == TopologyKind::kDragonfly) {
      EXPECT_GT(f->total_counters().routed_nonminimal, 0u);
    }
  }
}

TEST(AdaptiveRouting, UgalSpreadsFatTreeHotAggregateAcrossSpines) {
  // All of leaf 0 bursts to leaf 1.  Static minimal hashes the whole
  // aggregate onto one spine; congestion-aware spine selection must use
  // several.
  const auto spines_used = [](RoutingPolicy policy) {
    auto f = Fabric::create(32, flat_timing(), 0x5b1e, fat_tree(policy));
    authorize_all(*f, kVni);
    const auto eps = open_endpoints(*f, kVni);
    for (int k = 0; k < 16; ++k) {
      for (NicAddr src = 0; src < 8; ++src) {
        const NicAddr dst = 8 + src;
        EXPECT_TRUE(f->nic(src)
                        .post_send(eps[src], dst, eps[dst],
                                   static_cast<std::uint64_t>(k),
                                   64 * 1024, {}, 0)
                        .is_ok());
      }
    }
    EXPECT_EQ(f->total_counters().dropped_total(), 0u);
    std::set<SwitchId> used;
    for (SwitchId spine = 4; spine < 8; ++spine) {  // 4 leaves, then spines
      if (f->switch_at(0).uplink_counters(spine).packets > 0) {
        used.insert(spine);
      }
    }
    return used.size();
  };
  EXPECT_EQ(spines_used(RoutingPolicy::kMinimal), 1u);
  EXPECT_GE(spines_used(RoutingPolicy::kUgal), 2u);
}

TEST(AdaptiveRouting, QueueLagTelemetryTracksLoad) {
  auto f = Fabric::create(32, flat_timing(), 0x7e1e,
                          fat_tree(RoutingPolicy::kMinimal));
  authorize_all(*f, kVni);
  const auto eps = open_endpoints(*f, kVni);
  EXPECT_EQ(f->max_uplink_lag(0), 0);
  EXPECT_EQ(f->peak_uplink_lag(), 0);

  for (int k = 0; k < 16; ++k) {
    for (NicAddr src = 0; src < 8; ++src) {
      ASSERT_TRUE(f->nic(src)
                      .post_send(eps[src], 8 + src, eps[8 + src],
                                 static_cast<std::uint64_t>(k), 64 * 1024,
                                 {}, 0)
                      .is_ok());
    }
  }
  // The hot leaf-0 uplink's horizon now extends past virtual time 0.
  EXPECT_GT(f->max_uplink_lag(0), 0);
  EXPECT_GT(f->peak_uplink_lag(), 0);
  // Far enough in the future the backlog has drained.
  EXPECT_EQ(f->max_uplink_lag(3600 * kSecond), 0);
}

TEST(AdaptiveRouting, DetoursNeverBypassEdgeVniEnforcement) {
  // Unauthorized source and destination checks hold under every policy —
  // Valiant detours route through extra switches but enforcement stays
  // at the edges.
  for (const auto policy :
       {RoutingPolicy::kMinimal, RoutingPolicy::kValiant,
        RoutingPolicy::kUgal}) {
    SCOPED_TRACE(routing_policy_name(policy));
    auto f = Fabric::create(64, flat_timing(), 0x5ec2, dragonfly(policy));
    // Only NICs 0 and 20 join the tenant VNI.
    ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, kVni).is_ok());
    ASSERT_TRUE(f->switch_for(20)->authorize_vni(20, kVni).is_ok());
    auto ep0 = f->nic(0).alloc_endpoint(kVni, TrafficClass::kBulkData);
    auto ep20 = f->nic(20).alloc_endpoint(kVni, TrafficClass::kBulkData);
    auto ep40 = f->nic(40).alloc_endpoint(kVni, TrafficClass::kBulkData);

    // Authorized pair communicates.
    ASSERT_TRUE(f->nic(0)
                    .post_send(ep0.value(), 20, ep20.value(), 1, 4096, {},
                               0)
                    .is_ok());
    EXPECT_TRUE(f->nic(20).poll_rx(ep20.value()).is_ok());

    // Unauthorized source is refused at its own edge.
    auto stolen = f->nic(40).post_send(ep40.value(), 20, ep20.value(), 2,
                                       4096, {}, 0);
    EXPECT_EQ(stolen.code(), Code::kPermissionDenied);
    // Unauthorized *destination* is refused at the destination edge.
    auto leak =
        f->nic(0).post_send(ep0.value(), 40, ep40.value(), 3, 4096, {}, 0);
    EXPECT_EQ(leak.code(), Code::kPermissionDenied);
    EXPECT_EQ(f->total_counters().dropped_src_unauthorized, 1u);
    EXPECT_EQ(f->total_counters().dropped_dst_unauthorized, 1u);
  }
}

}  // namespace
}  // namespace shs::hsn
