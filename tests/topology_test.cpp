// topology_test.cpp — multi-switch fabric topologies: routing
// correctness (every NIC pair reachable under each topology),
// deterministic path selection for a fixed seed, cross-switch vs
// same-switch latency ordering, edge VNI enforcement across switches,
// and topology-aware pod placement through the full stack.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/stack.hpp"
#include "hsn/fabric.hpp"

namespace shs::hsn {
namespace {

constexpr Vni kVni = 777;

/// Deterministic timing (no jitter, no run bias) so latency comparisons
/// and path-equality checks are exact.
TimingConfig flat_timing() {
  TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

/// Authorizes `vni` for every NIC on its own edge switch.
void authorize_all(Fabric& f, Vni vni) {
  for (std::size_t i = 0; i < f.node_count(); ++i) {
    const auto addr = static_cast<NicAddr>(i);
    ASSERT_TRUE(f.switch_for(addr)->authorize_vni(addr, vni).is_ok());
  }
}

/// Opens one endpoint per NIC, all on `vni`.
std::vector<EndpointId> open_endpoints(Fabric& f, Vni vni) {
  std::vector<EndpointId> eps;
  for (std::size_t i = 0; i < f.node_count(); ++i) {
    auto ep = f.nic(static_cast<NicAddr>(i))
                  .alloc_endpoint(vni, TrafficClass::kBestEffort);
    EXPECT_TRUE(ep.is_ok());
    eps.push_back(ep.value());
  }
  return eps;
}

struct NamedTopology {
  const char* name;
  TopologyConfig config;
  std::size_t nodes;
  std::size_t expected_switches;
};

std::vector<NamedTopology> topologies_under_test() {
  TopologyConfig single;  // one switch regardless of size

  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 4;
  fat_tree.spines = 2;  // 12 nodes -> 3 leaves + 2 spines

  TopologyConfig dragonfly;
  dragonfly.kind = TopologyKind::kDragonfly;
  dragonfly.nodes_per_switch = 2;
  dragonfly.switches_per_group = 2;  // 12 nodes -> 6 edge, 3 groups

  return {{"single-switch", single, 12, 1},
          {"fat-tree", fat_tree, 12, 5},
          {"dragonfly", dragonfly, 12, 6}};
}

TEST(Topology, EveryNicPairReachable) {
  for (const NamedTopology& t : topologies_under_test()) {
    SCOPED_TRACE(t.name);
    auto f = Fabric::create(t.nodes, flat_timing(), 0x70b0, t.config);
    EXPECT_EQ(f->switch_count(), t.expected_switches);
    authorize_all(*f, kVni);
    const auto eps = open_endpoints(*f, kVni);

    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < t.nodes; ++i) {
      for (std::size_t j = 0; j < t.nodes; ++j) {
        if (i == j) continue;
        auto sent = f->nic(static_cast<NicAddr>(i))
                        .post_send(eps[i], static_cast<NicAddr>(j), eps[j],
                                   /*tag=*/i * 100 + j, /*size=*/256, {},
                                   /*vt=*/0);
        ASSERT_TRUE(sent.is_ok()) << "send " << i << " -> " << j;
        auto pkt = f->nic(static_cast<NicAddr>(j)).poll_rx(eps[j]);
        ASSERT_TRUE(pkt.is_ok()) << "recv " << i << " -> " << j;
        EXPECT_EQ(pkt.value().tag, i * 100 + j);
        const bool same_switch =
            f->home_switch(static_cast<NicAddr>(i)) ==
            f->home_switch(static_cast<NicAddr>(j));
        if (same_switch) {
          EXPECT_EQ(pkt.value().hops, 0) << i << " -> " << j;
        } else {
          EXPECT_GE(pkt.value().hops, 1) << i << " -> " << j;
          EXPECT_LE(pkt.value().hops, 3) << i << " -> " << j;
        }
        ++delivered;
      }
    }
    EXPECT_EQ(f->total_counters().delivered, delivered);
    EXPECT_EQ(f->total_counters().dropped_total(), 0u);
    if (t.expected_switches == 1) {
      EXPECT_EQ(f->cross_switch_bytes(), 0u);
    } else {
      EXPECT_GT(f->cross_switch_bytes(), 0u);
    }
  }
}

/// Replays a fixed cross-switch traffic pattern and returns the arrival
/// timestamps plus hop counts — the observable signature of the paths
/// taken.
std::vector<std::pair<SimTime, int>> path_signature(
    const TopologyConfig& topo, std::uint64_t seed) {
  auto f = Fabric::create(16, flat_timing(), seed, topo);
  authorize_all(*f, kVni);
  const auto eps = open_endpoints(*f, kVni);
  std::vector<std::pair<SimTime, int>> sig;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; j += 3) {
      if (i == j) continue;
      auto sent = f->nic(static_cast<NicAddr>(i))
                      .post_send(eps[i], static_cast<NicAddr>(j), eps[j],
                                 /*tag=*/1, /*size=*/4096, {}, /*vt=*/0);
      EXPECT_TRUE(sent.is_ok());
      auto pkt = f->nic(static_cast<NicAddr>(j)).poll_rx(eps[j]);
      EXPECT_TRUE(pkt.is_ok());
      sig.emplace_back(pkt.value().arrival_vt,
                       static_cast<int>(pkt.value().hops));
    }
  }
  return sig;
}

TEST(Topology, PathSelectionIsDeterministicForFixedSeed) {
  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 4;
  fat_tree.spines = 4;

  const auto a = path_signature(fat_tree, 0xfeed);
  const auto b = path_signature(fat_tree, 0xfeed);
  EXPECT_EQ(a, b);

  TopologyConfig dragonfly;
  dragonfly.kind = TopologyKind::kDragonfly;
  dragonfly.nodes_per_switch = 2;
  dragonfly.switches_per_group = 4;
  const auto c = path_signature(dragonfly, 0xbeef);
  const auto d = path_signature(dragonfly, 0xbeef);
  EXPECT_EQ(c, d);
}

TEST(Topology, CrossSwitchLatencyExceedsSameSwitch) {
  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 4;
  fat_tree.spines = 2;
  auto f = Fabric::create(8, flat_timing(), 0x1a7, fat_tree);
  authorize_all(*f, kVni);
  const auto eps = open_endpoints(*f, kVni);

  // NICs 0 and 1 share leaf 0; NIC 4 sits on leaf 1.
  ASSERT_EQ(f->home_switch(0), f->home_switch(1));
  ASSERT_NE(f->home_switch(0), f->home_switch(4));

  ASSERT_TRUE(
      f->nic(0).post_send(eps[0], 1, eps[1], 1, 4096, {}, 0).is_ok());
  auto same = f->nic(1).poll_rx(eps[1]);
  ASSERT_TRUE(same.is_ok());

  ASSERT_TRUE(
      f->nic(0).post_send(eps[0], 4, eps[4], 1, 4096, {}, 0).is_ok());
  auto cross = f->nic(4).poll_rx(eps[4]);
  ASSERT_TRUE(cross.is_ok());

  EXPECT_EQ(same.value().hops, 0);
  EXPECT_EQ(cross.value().hops, 2);  // leaf -> spine -> leaf
  EXPECT_GT(cross.value().arrival_vt, same.value().arrival_vt);
}

TEST(Topology, VniEnforcementHoldsAcrossSwitches) {
  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 2;
  fat_tree.spines = 1;
  auto f = Fabric::create(4, flat_timing(), 0x5ec, fat_tree);

  // Authorize only the source's edge port: the destination edge switch
  // must still drop the packet (edge enforcement on both ends).
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, kVni).is_ok());
  auto ep0 = f->nic(0).alloc_endpoint(kVni, TrafficClass::kBestEffort);
  auto ep2 = f->nic(2).alloc_endpoint(kVni, TrafficClass::kBestEffort);
  auto sent = f->nic(0).post_send(ep0.value(), 2, ep2.value(), 1, 64, {}, 0);
  EXPECT_EQ(sent.code(), Code::kPermissionDenied);
  // The drop is accounted where it happened: the destination edge switch.
  EXPECT_EQ(f->switch_for(2)->counters().dropped_dst_unauthorized, 1u);
  EXPECT_EQ(f->total_counters().dropped_dst_unauthorized, 1u);
  EXPECT_EQ(f->total_counters().delivered, 0u);

  // Unauthorized *source* is refused before any cross-switch hop.
  auto ep1 = f->nic(1).alloc_endpoint(kVni, TrafficClass::kBestEffort);
  auto sent2 =
      f->nic(1).post_send(ep1.value(), 2, ep2.value(), 1, 64, {}, 0);
  EXPECT_EQ(sent2.code(), Code::kPermissionDenied);
  EXPECT_EQ(f->switch_for(1)->counters().dropped_src_unauthorized, 1u);
}

TEST(Topology, SchedulerPrefersSameSwitchForSpreadGroups) {
  core::StackConfig cfg;
  cfg.nodes = 8;
  cfg.topology.kind = TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 4;
  cfg.topology.spines = 2;
  core::SlingshotStack stack(cfg);

  auto job = stack.submit_job({.name = "ranks",
                               .vni_annotation = "true",
                               .pods = 4,
                               .run_duration = 3600 * kSecond,
                               .spread_key = "ranks"});
  ASSERT_TRUE(job.is_ok());
  ASSERT_TRUE(stack.run_until(
      [&] {
        int running = 0;
        for (const auto& p : stack.pods_of_job(job.value())) {
          if (p.status.phase == k8s::PodPhase::kRunning) ++running;
        }
        return running == 4;
      },
      120 * kSecond));

  // Four pods, four distinct nodes, all attached to the same leaf switch.
  std::set<std::string> nodes;
  std::set<SwitchId> switches;
  for (const auto& p : stack.pods_of_job(job.value())) {
    nodes.insert(p.status.node);
    for (std::size_t n = 0; n < stack.node_count(); ++n) {
      if (stack.node(n).name == p.status.node) {
        switches.insert(stack.fabric().home_switch(stack.node(n).nic));
      }
    }
  }
  EXPECT_EQ(nodes.size(), 4u);
  EXPECT_EQ(switches.size(), 1u);
}

}  // namespace
}  // namespace shs::hsn
