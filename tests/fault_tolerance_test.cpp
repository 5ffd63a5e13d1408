// fault_tolerance_test.cpp — data-plane fault tolerance across the stack:
// the FabricManager's re-plan routes around dead links/switches while VNI
// enforcement stays intact on detours, packets committed to dead elements
// in the pre-repair window drop and are counted, restore returns the
// fabric to pristine routing, and the scheduler treats switch health as a
// first-class input (no new binds behind dead switches; pods drained and
// replaced when their home switch dies).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/stack.hpp"
#include "hsn/fabric.hpp"

namespace shs::hsn {
namespace {

constexpr Vni kVni = 77;

TimingConfig flat_timing() {
  TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

/// 16 nodes on 4 leaves (switches 0-3) under 2 spines (switches 4-5).
std::unique_ptr<Fabric> make_fat_tree(std::uint64_t seed = 0xfa17) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kFatTree;
  topo.nodes_per_switch = 4;
  topo.spines = 2;
  auto f = Fabric::create(16, flat_timing(), seed, topo);
  for (NicAddr a = 0; a < 16; ++a) {
    EXPECT_TRUE(f->switch_for(a)->authorize_vni(a, kVni).is_ok());
  }
  return f;
}

/// 64 nodes, 4 per switch, 4 switches per group -> 4 groups (16 edge
/// switches).  The (group 0 -> group 1) gateway link is (1, 4).
std::unique_ptr<Fabric> make_dragonfly(std::uint64_t seed = 0xd2a6,
                                       RoutingPolicy routing =
                                           RoutingPolicy::kMinimal) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  topo.routing = routing;
  auto f = Fabric::create(64, flat_timing(), seed, topo);
  for (NicAddr a = 0; a < 64; ++a) {
    EXPECT_TRUE(f->switch_for(a)->authorize_vni(a, kVni).is_ok());
  }
  return f;
}

/// Sends one packet `src` -> `dst` and returns the switch-level result by
/// probing delivery at the destination endpoint.
bool send_one(Fabric& f, NicAddr src, EndpointId src_ep, NicAddr dst,
              EndpointId dst_ep, std::uint64_t tag = 1) {
  return f.nic(src)
      .post_send(src_ep, dst, dst_ep, tag, 4096, {}, /*vt=*/0)
      .is_ok();
}

TEST(FabricManager, SpineFailureReplansAllPairsReachable) {
  auto f = make_fat_tree();
  ASSERT_EQ(f->plan()->version, 0u);

  // Kill spine 4 (auto-repair is on for direct Fabric users).
  ASSERT_TRUE(f->fail_switch(4).is_ok());
  EXPECT_EQ(f->plan()->version, 1u);
  EXPECT_EQ(f->manager().replans(), 1u);
  EXPECT_EQ(f->switch_health(4), SwitchHealth::kFailed);
  EXPECT_FALSE(f->manager().repair_pending());

  // The repaired candidate sets route every leaf pair through spine 5
  // only.
  const auto plan = f->plan();
  for (SwitchId s = 0; s < 4; ++s) {
    for (SwitchId d = 0; d < 4; ++d) {
      if (s == d) continue;
      const auto cands = plan->candidates(s, d);
      ASSERT_EQ(cands.size(), 1u);
      EXPECT_EQ(cands[0], 5u);
      EXPECT_EQ(plan->next(s, d), 5u);
    }
  }

  // Every cross-leaf pair still delivers, with zero drops of any kind.
  std::vector<EndpointId> eps;
  for (NicAddr a = 0; a < 16; ++a) {
    eps.push_back(
        f->nic(a).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }
  for (NicAddr s = 0; s < 16; ++s) {
    const NicAddr d = (s + 4) % 16;  // always a different leaf
    EXPECT_TRUE(send_one(*f, s, eps[s], d, eps[d]));
  }
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);
  EXPECT_EQ(f->total_counters().delivered, 16u);
}

TEST(FabricManager, PreRepairWindowDropsAreCounted) {
  auto f = make_fat_tree();
  f->manager().set_auto_repair(false);

  std::vector<EndpointId> eps;
  for (NicAddr a = 0; a < 16; ++a) {
    eps.push_back(
        f->nic(a).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }

  // Spine 4 dies; the repaired tables have NOT been published yet, so
  // pairs whose static hash picked spine 4 lose their packets in flight.
  ASSERT_TRUE(f->fail_switch(4).is_ok());
  EXPECT_TRUE(f->manager().repair_pending());
  int refused = 0;
  for (NicAddr s = 0; s < 16; ++s) {
    const NicAddr d = (s + 4) % 16;
    if (!send_one(*f, s, eps[s], d, eps[d], 2)) ++refused;
  }
  const auto window = f->total_counters();
  EXPECT_GT(window.dropped_link_down, 0u);
  EXPECT_EQ(window.dropped_link_down, static_cast<std::uint64_t>(refused));
  EXPECT_EQ(window.dropped_total(), window.dropped_link_down);

  // Repair lands: the same pattern delivers fully; no new drops.
  f->manager().repair();
  EXPECT_FALSE(f->manager().repair_pending());
  for (NicAddr s = 0; s < 16; ++s) {
    const NicAddr d = (s + 4) % 16;
    EXPECT_TRUE(send_one(*f, s, eps[s], d, eps[d], 3));
  }
  EXPECT_EQ(f->total_counters().dropped_link_down,
            window.dropped_link_down);
}

TEST(FabricManager, DragonflyGlobalLinkDetourPreservesEnforcement) {
  auto f = make_dragonfly();
  std::vector<EndpointId> eps;
  for (NicAddr a = 0; a < 64; ++a) {
    eps.push_back(
        f->nic(a).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }

  // Baseline: group 0 -> group 1 rides the direct global link, 1-3 hops.
  ASSERT_TRUE(send_one(*f, 0, eps[0], 16, eps[16], 1));
  auto baseline = f->nic(16).poll_rx(eps[16]);
  ASSERT_TRUE(baseline.is_ok());
  const int min_hops = baseline.value().hops;

  // The (g0, g1) global link dies; the re-plan detours via group 2 or 3.
  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  EXPECT_FALSE(f->link_up(1, 4));
  ASSERT_TRUE(send_one(*f, 0, eps[0], 16, eps[16], 2));
  auto detoured = f->nic(16).poll_rx(eps[16]);
  ASSERT_TRUE(detoured.is_ok());
  EXPECT_GT(detoured.value().hops, min_hops);
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);

  // Enforcement is an edge property the detour cannot bypass:
  // (a) an unauthorized source is refused at its own edge switch;
  auto& intruder = f->nic(32);  // group 2 — en route of the detour
  ASSERT_TRUE(f->switch_for(32)->revoke_vni(32, kVni).is_ok());
  auto intruder_ep = f->nic(32).alloc_endpoint(kVni,
                                               TrafficClass::kBulkData);
  ASSERT_TRUE(intruder_ep.is_ok());
  EXPECT_FALSE(send_one(*f, 32, intruder_ep.value(), 16, eps[16], 3));
  EXPECT_EQ(f->total_counters().dropped_src_unauthorized, 1u);
  (void)intruder;

  // (b) a de-authorized destination drops at the destination edge, even
  // though the packet took the repaired detour to get there.
  ASSERT_TRUE(f->switch_for(17)->revoke_vni(17, kVni).is_ok());
  EXPECT_FALSE(send_one(*f, 0, eps[0], 17, eps[17], 4));
  EXPECT_EQ(f->total_counters().dropped_dst_unauthorized, 1u);
}

TEST(FabricManager, UgalDetoursAroundDeadMinimalHopPreRepair) {
  // UGAL, repaired tables withheld: NIC 4's edge switch (the group-0
  // gateway, switch 1) sees its one minimal first hop toward group 1 —
  // the (1, 4) global link — die.  The adaptive decision at the source
  // edge must take a live Valiant detour through a third group instead
  // of forwarding onto the known-dead hop.
  auto f = make_dragonfly(0xd2a6, RoutingPolicy::kUgal);
  f->manager().set_auto_repair(false);
  auto src_ep =
      f->nic(4).alloc_endpoint(kVni, TrafficClass::kBulkData).value();
  auto dst_ep =
      f->nic(16).alloc_endpoint(kVni, TrafficClass::kBulkData).value();

  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  ASSERT_TRUE(f->manager().repair_pending());
  EXPECT_TRUE(send_one(*f, 4, src_ep, 16, dst_ep, 1));
  auto pkt = f->nic(16).poll_rx(dst_ep);
  ASSERT_TRUE(pkt.is_ok());
  EXPECT_GE(pkt.value().hops, 4);  // two global hops: a real detour
  EXPECT_EQ(f->total_counters().dropped_link_down, 0u);
  EXPECT_GE(f->total_counters().routed_nonminimal, 1u);
}

TEST(FabricManager, EdgeSwitchDeathUnreachableUntilRestore) {
  auto f = make_fat_tree();
  std::vector<EndpointId> eps;
  for (NicAddr a = 0; a < 16; ++a) {
    eps.push_back(
        f->nic(a).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }

  // Leaf 1 (NICs 4-7) dies: its NICs are unreachable — the repaired plan
  // simply has no route toward switch 1.
  ASSERT_TRUE(f->fail_switch(1).is_ok());
  EXPECT_FALSE(send_one(*f, 0, eps[0], 4, eps[4], 1));
  EXPECT_GE(f->total_counters().dropped_no_route +
                f->total_counters().dropped_link_down,
            1u);
  // Injection *at* the dead switch drops too.
  EXPECT_FALSE(send_one(*f, 4, eps[4], 0, eps[0], 2));
  EXPECT_GE(f->total_counters().dropped_link_down, 1u);

  // Restore: routing returns and traffic flows both ways again.
  ASSERT_TRUE(f->restore_switch(1).is_ok());
  EXPECT_EQ(f->switch_health(1), SwitchHealth::kHealthy);
  EXPECT_TRUE(send_one(*f, 0, eps[0], 4, eps[4], 3));
  EXPECT_TRUE(send_one(*f, 4, eps[4], 0, eps[0], 4));
}

TEST(FabricManager, RestoreRepublishesPristineRouting) {
  auto f = make_fat_tree();
  const auto pristine = f->plan();
  ASSERT_TRUE(f->fail_switch(4).is_ok());
  ASSERT_TRUE(f->restore_switch(4).is_ok());
  const auto restored = f->plan();
  EXPECT_EQ(restored->version, 2u);
  EXPECT_EQ(f->manager().replans(), 2u);
  // Byte-identical routing state after a full fail/restore cycle.
  EXPECT_EQ(restored->next_hop, pristine->next_hop);
  EXPECT_EQ(restored->min_hops, pristine->min_hops);
  EXPECT_EQ(restored->cand_begin, pristine->cand_begin);
  EXPECT_EQ(restored->cand, pristine->cand);
  EXPECT_TRUE(f->link_up(0, 4));
  EXPECT_EQ(f->manager().failed_switch_count(), 0u);
  EXPECT_EQ(f->manager().failed_link_count(), 0u);
}

TEST(FabricManager, InvalidInjectionsAreRejected) {
  auto f = make_fat_tree();
  EXPECT_EQ(f->fail_switch(99).code(), Code::kInvalidArgument);
  EXPECT_EQ(f->fail_link(0, 1).code(), Code::kNotFound);  // no leaf-leaf link
  EXPECT_EQ(f->restore_switch(4).code(), Code::kNotFound);
  EXPECT_EQ(f->restore_link(0, 4).code(), Code::kNotFound);
  ASSERT_TRUE(f->fail_link(0, 4).is_ok());
  EXPECT_EQ(f->fail_link(0, 4).code(), Code::kAlreadyExists);
  EXPECT_EQ(f->plan()->version, 1u);  // the rejected re-fail: no republish
  ASSERT_TRUE(f->restore_link(0, 4).is_ok());
  ASSERT_TRUE(f->fail_switch(4).is_ok());
  EXPECT_EQ(f->fail_switch(4).code(), Code::kAlreadyExists);
  EXPECT_EQ(f->plan()->version, 3u);  // rejected calls never republish
  EXPECT_FALSE(f->link_up(0, 99));    // unwired pairs are not "up"
}

TEST(FabricManager, IndependentLinkFailureSurvivesSwitchRestore) {
  auto f = make_fat_tree();
  // Fail the (0, 4) link on its own, then fail and restore spine 4: the
  // restore must NOT resurrect the independently failed link.
  ASSERT_TRUE(f->fail_link(0, 4).is_ok());
  ASSERT_TRUE(f->fail_switch(4).is_ok());
  ASSERT_TRUE(f->restore_switch(4).is_ok());
  EXPECT_FALSE(f->link_up(0, 4));
  EXPECT_TRUE(f->link_up(1, 4));
  EXPECT_EQ(f->switch_at(0).uplink_state(4), LinkState::kDown);
  EXPECT_EQ(f->switch_at(1).uplink_state(4), LinkState::kUp);
  ASSERT_TRUE(f->restore_link(0, 4).is_ok());
  EXPECT_TRUE(f->link_up(0, 4));
  EXPECT_EQ(f->switch_at(0).uplink_state(4), LinkState::kUp);
}

// -- Reliable delivery across faults. ---------------------------------------

TEST(Reliability, RetransmitCarriesOpAcrossReplan) {
  // Spine 4 dies with the repaired tables withheld; reliability is on
  // and the retry hook nudges the fabric manager on the second retry —
  // the op's retransmit then routes on the *republished* plan.  This is
  // the "retransmit straddles a replan" contract: no op is lost to the
  // failure->repair window.
  auto f = make_fat_tree();
  f->manager().set_auto_repair(false);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);
  f->set_retry_hook([&f](int attempt, SimDuration) {
    if (attempt >= 2) (void)f->manager().repair_if_pending();
  });

  std::vector<EndpointId> eps;
  for (NicAddr a = 0; a < 16; ++a) {
    eps.push_back(
        f->nic(a).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }
  ASSERT_TRUE(f->fail_switch(4).is_ok());
  ASSERT_TRUE(f->manager().repair_pending());

  // Every cross-leaf op completes — pairs hashed onto the dead spine
  // recover by retransmission across the replan.
  for (NicAddr s = 0; s < 16; ++s) {
    const NicAddr d = (s + 4) % 16;
    EXPECT_TRUE(send_one(*f, s, eps[s], d, eps[d], 7)) << unsigned(s);
  }
  EXPECT_FALSE(f->manager().repair_pending());
  EXPECT_EQ(f->plan()->version, 1u);
  const ReliabilityCounters rc = f->reliability_totals();
  EXPECT_GT(rc.retransmits, 0u);
  EXPECT_GE(rc.recovered_after_replan, 1u);
  EXPECT_EQ(rc.budget_exhausted, 0u);
  // The failure window was real: the first attempts did drop.
  EXPECT_GT(f->total_counters().dropped_link_down, 0u);
}

TEST(Reliability, BackoffEscapesTimedLinkFlap) {
  // Both of leaf 0's uplinks flap down for the first 200us of virtual
  // time.  An op injected at vt=0 keeps failing while the flap holds;
  // exponential backoff pushes its retransmits' virtual time past the
  // flap window and the op completes — no replan needed, no hang.
  auto f = make_fat_tree();
  const SimDuration kFlapEnd = from_micros(200);
  ASSERT_TRUE(f->switch_at(0).add_uplink_flap(4, 0, kFlapEnd).is_ok());
  ASSERT_TRUE(f->switch_at(0).add_uplink_flap(5, 0, kFlapEnd).is_ok());
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  auto src = f->nic(0).alloc_endpoint(kVni, TrafficClass::kBulkData);
  auto dst = f->nic(4).alloc_endpoint(kVni, TrafficClass::kBulkData);
  auto r = f->nic(0).post_send(src.value(), 4, dst.value(), 1, 4096, {},
                               /*vt=*/0);
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  // The completion time cleared the flap window.
  EXPECT_GT(r.value(), kFlapEnd);
  const ReliabilityCounters rc = f->reliability_totals();
  EXPECT_GE(rc.retransmits, 1u);
  EXPECT_EQ(rc.budget_exhausted, 0u);
  EXPECT_GT(f->total_counters().dropped_link_down, 0u);
  // A fresh op after the window sails through with no new retries.
  const auto before = f->reliability_totals().retransmits;
  ASSERT_TRUE(f->nic(0)
                  .post_send(src.value(), 4, dst.value(), 2, 4096, {},
                             kFlapEnd + from_micros(10))
                  .is_ok());
  EXPECT_EQ(f->reliability_totals().retransmits, before);
}

}  // namespace
}  // namespace shs::hsn

namespace shs::core {
namespace {

/// 8 nodes, 2 per leaf -> 4 leaves (switches 0-3) under 2 spines (4-5).
StackConfig fault_stack_config() {
  StackConfig cfg;
  cfg.nodes = 8;
  cfg.topology.kind = hsn::TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 2;
  cfg.topology.spines = 2;
  return cfg;
}

std::vector<k8s::Pod> running_pods(SlingshotStack& stack, k8s::Uid job) {
  std::vector<k8s::Pod> out;
  for (const auto& p : stack.pods_of_job(job)) {
    if (p.status.phase == k8s::PodPhase::kRunning &&
        !p.meta.deletion_requested) {
      out.push_back(p);
    }
  }
  return out;
}

hsn::SwitchId switch_of_pod(SlingshotStack& stack, const k8s::Pod& pod) {
  for (std::size_t i = 0; i < stack.node_count(); ++i) {
    if (stack.node(i).name == pod.status.node) {
      return stack.fabric().home_switch(stack.node(i).nic);
    }
  }
  return hsn::kInvalidSwitch;
}

TEST(SchedulerFaultTolerance, DrainsAndReplacesPodsOffDeadSwitch) {
  SlingshotStack stack(fault_stack_config());
  auto job = stack.submit_job({.name = "solver",
                               .pods = 2,
                               .run_duration = 3600 * kSecond,
                               .spread_key = "solver"});
  ASSERT_TRUE(job.is_ok());
  ASSERT_TRUE(stack.run_until(
      [&] { return running_pods(stack, job.value()).size() == 2; },
      120 * kSecond));

  // Same-switch preference put both pods behind one leaf; kill it.
  const auto pods = running_pods(stack, job.value());
  const hsn::SwitchId home = switch_of_pod(stack, pods[0]);
  ASSERT_NE(home, hsn::kInvalidSwitch);
  ASSERT_TRUE(stack.fail_switch(home).is_ok());

  // The scheduler drains the dead leaf; the job controller replaces the
  // evicted pods; the replacements land on healthy switches and run.
  ASSERT_TRUE(stack.run_until(
      [&] {
        const auto now_running = running_pods(stack, job.value());
        if (now_running.size() != 2) return false;
        for (const auto& p : now_running) {
          if (switch_of_pod(stack, p) == home) return false;
        }
        return true;
      },
      300 * kSecond));
  EXPECT_GE(stack.scheduler().bind_telemetry().drained_total(), 1u);
  // The fabric-manager repair landed and was measured.
  EXPECT_GE(stack.reroute_events(), 1u);
  EXPECT_GT(stack.last_reroute_latency(), 0);
}

TEST(SchedulerFaultTolerance, NeverBindsBehindUnhealthySwitch) {
  SlingshotStack stack(fault_stack_config());
  // Leaf 0 (nodes 0 and 1) dies before any workload exists.
  ASSERT_TRUE(stack.fail_switch(0).is_ok());
  auto job = stack.submit_job({.name = "wide",
                               .pods = 4,
                               .run_duration = 3600 * kSecond});
  ASSERT_TRUE(job.is_ok());
  ASSERT_TRUE(stack.run_until(
      [&] { return running_pods(stack, job.value()).size() == 4; },
      120 * kSecond));
  for (const auto& p : running_pods(stack, job.value())) {
    EXPECT_NE(switch_of_pod(stack, p), 0u) << p.status.node;
  }
}

TEST(StackReliability, RetransmitsRideOutScheduledRepair) {
  // Stack-level integration: reliability on, spine failure injected via
  // the stack (which schedules the fabric-manager repair after
  // fm_reroute_delay of *event-loop* time).  The stack's retry hook
  // advances the loop through each backoff, so the repair lands inside
  // the retry window and affected ops complete on the new tables.
  StackConfig cfg = fault_stack_config();
  cfg.reliability.enabled = true;
  cfg.fm_reroute_delay = from_micros(500);
  SlingshotStack stack(cfg);
  auto& f = stack.fabric();
  constexpr hsn::Vni kVni = 77;
  std::vector<hsn::EndpointId> eps;
  for (hsn::NicAddr a = 0; a < 8; ++a) {
    ASSERT_TRUE(f.switch_for(a)->authorize_vni(a, kVni).is_ok());
    eps.push_back(
        f.nic(a).alloc_endpoint(kVni, hsn::TrafficClass::kBulkData).value());
  }

  ASSERT_TRUE(stack.fail_switch(4).is_ok());  // repair due in 500us
  const std::uint64_t v0 = stack.published_plan_version();
  for (hsn::NicAddr s = 0; s < 8; ++s) {
    const hsn::NicAddr d = static_cast<hsn::NicAddr>((s + 2) % 8);
    auto r = f.nic(s).post_send(eps[s], d, eps[d], 1, 4096, {}, /*vt=*/0);
    EXPECT_TRUE(r.is_ok()) << unsigned(s) << ": " << r.status().message();
  }
  // The backoff-driven loop progression carried the repair.
  EXPECT_GE(stack.reroute_events(), 1u);
  EXPECT_GT(stack.published_plan_version(), v0);
  const auto rc = stack.reliability_counters();
  EXPECT_GT(rc.retransmits, 0u);
  EXPECT_GE(rc.recovered_after_replan, 1u);
  EXPECT_EQ(rc.budget_exhausted, 0u);
}

}  // namespace
}  // namespace shs::core
