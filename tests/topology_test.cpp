// topology_test.cpp — multi-switch fabric topologies: routing
// correctness (every NIC pair reachable under each topology),
// deterministic path selection for a fixed seed, cross-switch vs
// same-switch latency ordering, edge VNI enforcement across switches,
// topology-aware pod placement through the full stack, and the published
// routing-plan tables (pinned digests plus a BFS-reference property).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/stack.hpp"
#include "hsn/fabric.hpp"
#include "util/rng.hpp"

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

// ---------------------------------------------------------------------------
// Published routing-plan tables

/// The plan every switch currently routes by.
std::shared_ptr<const TopologyPlan> published(Fabric& f) {
  return f.plan();
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv_mix(std::uint64_t h, const std::vector<T>& table) {
  h = fnv_mix(h, table.size());
  for (const T x : table) {
    h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
  }
  return h;
}

/// FNV-1a over the flat tables and version of a published plan: any
/// change to a next hop, hop distance or candidate list changes it.
template <typename Plan>
std::uint64_t plan_digest(const Plan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, plan.version);
  h = fnv_mix(h, plan.next_hop);
  h = fnv_mix(h, plan.min_hops);
  h = fnv_mix(h, plan.cand_begin);
  h = fnv_mix(h, plan.cand);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct PinnedTopology {
  const char* name;
  TopologyConfig config;
  std::size_t nodes;
  std::uint64_t seed;
  std::pair<SwitchId, SwitchId> link;    ///< failed first, then restored
  SwitchId victim;                       ///< failed switch
  std::pair<SwitchId, SwitchId> link2;   ///< failed alongside the switch
  /// Digests after: pristine, link down, link restored (full restore),
  /// switch down, link+switch down, link restored (switch down), switch
  /// restored (full restore).
  std::vector<std::string> digests;
};

std::vector<PinnedTopology> pinned_topologies() {
  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 4;
  fat_tree.spines = 3;  // 32 nodes -> 8 leaves + spines 8..10

  TopologyConfig dragonfly;
  dragonfly.kind = TopologyKind::kDragonfly;
  dragonfly.nodes_per_switch = 4;
  dragonfly.switches_per_group = 4;  // 64 nodes -> 16 switches, 4 groups
  // (1, 4) is the global link between groups 0 and 1; (0, 2) is local.

  return {
      {"fat-tree-32", fat_tree, 32, 0xfa7, {0, 8}, 9, {1, 10},
       {"0xc30a68b12a38a2e2", "0xaf5f05c614fc21ae", "0xda34aecd8c844880",
        "0x4038c4f9ded935f7", "0xa2ed6a7cced4a14c", "0x56861dafb8164e49",
        "0xe236bae6f952668c"}},
      {"dragonfly-64", dragonfly, 64, 0xd2a6, {1, 4}, 6, {0, 2},
       {"0x800abc6b782ea834", "0x0f2c666c84439189", "0xc839e3eebf295766",
        "0x13532658766bc42a", "0xac47ab10c960e31a", "0x39f52e9e8dbf27d0",
        "0x4197a973ef367cc2"}},
      // 256 switches in 64 groups: the tenant-churn benchmark's fabric.
      {"dragonfly-1024", dragonfly, 1024, 7919, {1, 4}, 6, {0, 2},
       {"0xa42c93495cd0aeb9", "0xea8d58cc59b82150", "0x4103b73d277ea35b",
        "0xdac9faf017f7ae63", "0xf5b9868b23d5a560", "0xc4008dc936b69011",
        "0x66df84ccc419a127"}},
  };
}

/// Pins the published plan tables through a fail/restore sequence, for
/// every routing policy (the policy does not shape the tables, so all
/// three must match the same digests).  A deliberate routing change
/// re-pins from the digests the failure prints.
TEST(PlanTables, PublishedDigestsArePinned) {
  for (const PinnedTopology& t : pinned_topologies()) {
    for (const RoutingPolicy policy :
         {RoutingPolicy::kMinimal, RoutingPolicy::kValiant,
          RoutingPolicy::kUgal}) {
      SCOPED_TRACE(std::string(t.name) + "/" +
                   std::string(routing_policy_name(policy)));
      TopologyConfig config = t.config;
      config.routing = policy;
      auto f = Fabric::create(t.nodes, flat_timing(), t.seed, config);
      std::vector<std::string> got;
      auto record = [&] { got.push_back(hex(plan_digest(*published(*f)))); };
      record();
      ASSERT_TRUE(f->fail_link(t.link.first, t.link.second).is_ok());
      record();
      ASSERT_TRUE(f->restore_link(t.link.first, t.link.second).is_ok());
      record();
      ASSERT_TRUE(f->fail_switch(t.victim).is_ok());
      record();
      ASSERT_TRUE(f->fail_link(t.link2.first, t.link2.second).is_ok());
      record();
      ASSERT_TRUE(f->restore_link(t.link2.first, t.link2.second).is_ok());
      record();
      ASSERT_TRUE(f->restore_switch(t.victim).is_ok());
      record();
      EXPECT_EQ(got, t.digests);
      EXPECT_EQ(published(*f)->version, 6u);
    }
  }
}

/// Reference distances by Floyd-Warshall over the surviving directed
/// links; kUnreachableHops where no path exists.
std::vector<std::vector<int>> reference_hops(
    const std::vector<std::vector<SwitchId>>& adj) {
  const std::size_t n = adj.size();
  constexpr int kInf = TopologyPlan::kUnreachableHops;
  std::vector<std::vector<int>> d(n, std::vector<int>(n, kInf));
  for (std::size_t s = 0; s < n; ++s) {
    d[s][s] = 0;
    for (const SwitchId v : adj[s]) d[s][v] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i][k] == kInf) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (d[k][j] != kInf) d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

/// Random failure sets on small fabrics: the published plan's hop
/// distances match Floyd-Warshall over the survivors, every candidate
/// list is exactly the ascending set of neighbours one hop closer to the
/// destination, and every static next hop is one of those candidates (or
/// invalid when the destination is unreachable or the source is dead).
/// Restoring everything republishes the pristine tables.
TEST(PlanTables, ReplanMatchesFloydWarshallReference) {
  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 4;
  fat_tree.spines = 3;
  TopologyConfig dragonfly;
  dragonfly.kind = TopologyKind::kDragonfly;
  dragonfly.nodes_per_switch = 2;
  dragonfly.switches_per_group = 3;  // 72 nodes -> 36 switches, 12 groups

  const std::vector<std::pair<TopologyConfig, std::size_t>> fabrics = {
      {fat_tree, 32}, {dragonfly, 72}};
  for (const auto& [config, nodes] : fabrics) {
    SCOPED_TRACE(std::string(topology_kind_name(config.kind)));
    auto f = Fabric::create(nodes, flat_timing(), 0x5eed, config);
    const auto base = f->manager().base_plan();
    const std::size_t n = f->switch_count();
    std::vector<std::pair<SwitchId, SwitchId>> cables;
    for (const auto& link : base->links) {
      if (link.from < link.to) cables.emplace_back(link.from, link.to);
    }
    const auto pristine = published(*f);
    Rng rng(0xf10d + n);
    for (int trial = 0; trial < 24; ++trial) {
      SCOPED_TRACE(trial);
      std::set<std::pair<SwitchId, SwitchId>> dead_cables;
      std::set<SwitchId> dead_switches;
      const std::size_t want_links = 1 + rng.next() % 4;
      const std::size_t want_switches = rng.next() % 3;
      while (dead_cables.size() < want_links) {
        dead_cables.insert(cables[rng.next() % cables.size()]);
      }
      while (dead_switches.size() < want_switches) {
        dead_switches.insert(static_cast<SwitchId>(rng.next() % n));
      }
      for (const auto& [a, b] : dead_cables) {
        ASSERT_TRUE(f->fail_link(a, b).is_ok());
      }
      for (const SwitchId s : dead_switches) {
        ASSERT_TRUE(f->fail_switch(s).is_ok());
      }

      std::vector<std::vector<SwitchId>> adj(n);
      for (const auto& link : base->links) {
        const auto cable = std::minmax(link.from, link.to);
        if (dead_cables.contains({cable.first, cable.second}) ||
            dead_switches.contains(link.from) ||
            dead_switches.contains(link.to)) {
          continue;
        }
        adj[link.from].push_back(link.to);
      }
      for (auto& row : adj) std::sort(row.begin(), row.end());
      const auto ref = reference_hops(adj);

      const auto plan = published(*f);
      for (SwitchId s = 0; s < n; ++s) {
        for (SwitchId d = 0; d < n; ++d) {
          SCOPED_TRACE(std::to_string(s) + "->" + std::to_string(d));
          ASSERT_EQ(plan->hops_between(s, d), ref[s][d]);
          const auto cands = plan->candidates(s, d);
          const bool reachable =
              s != d && ref[s][d] != TopologyPlan::kUnreachableHops;
          std::vector<SwitchId> want;
          if (reachable) {
            for (const SwitchId v : adj[s]) {
              if (ref[v][d] == ref[s][d] - 1) want.push_back(v);
            }
          }
          ASSERT_EQ(std::vector<SwitchId>(cands.begin(), cands.end()), want);
          if (s == d) continue;
          if (reachable) {
            ASSERT_NE(std::find(want.begin(), want.end(), plan->next(s, d)),
                      want.end());
          } else {
            ASSERT_EQ(plan->next(s, d), kInvalidSwitch);
          }
        }
      }

      for (const auto& [a, b] : dead_cables) {
        ASSERT_TRUE(f->restore_link(a, b).is_ok());
      }
      for (const SwitchId s : dead_switches) {
        ASSERT_TRUE(f->restore_switch(s).is_ok());
      }
      const auto restored = published(*f);
      ASSERT_EQ(restored->next_hop, pristine->next_hop);
      ASSERT_EQ(restored->min_hops, pristine->min_hops);
      ASSERT_EQ(restored->cand_begin, pristine->cand_begin);
      ASSERT_EQ(restored->cand, pristine->cand);
    }
  }
}

}  // namespace
}  // namespace shs::hsn
