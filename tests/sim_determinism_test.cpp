// sim_determinism_test.cpp — EventLoop determinism properties the whole
// control-plane model depends on: equal-timestamp events fire in
// insertion order, a periodic task can cancel itself from inside its own
// callback, and two runs of an identical randomized schedule produce
// identical event traces.  Also fabric-routing determinism: an identical
// traffic pattern on an identically seeded fabric yields bit-identical
// delivery traces under every RoutingPolicy (Valiant's intermediate
// choice draws from a seeded per-switch RNG, not ambient entropy).
// Finally control-plane determinism: pinned per-pod admission digests of
// the k8s controllers under a spike, a ramp, controller restarts and a
// switch failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/stack.hpp"
#include "hsn/fabric.hpp"
#include "hsn/shard_engine.hpp"
#include "sim/event_loop.hpp"
#include "util/rng.hpp"

namespace shs::sim {
namespace {

TEST(EventLoopDeterminism, EqualTimestampsFireInInsertionOrder) {
  // Randomized schedule over a handful of timestamps so collisions are
  // plentiful; the property must hold regardless of submission pattern.
  Rng rng(0xdead);
  EventLoop loop;
  std::vector<std::pair<SimTime, int>> trace;
  std::vector<std::pair<SimTime, int>> expected;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = static_cast<SimTime>(rng.uniform_u64(8)) * kMillisecond;
    expected.emplace_back(t, i);
    loop.schedule_at(t, [&trace, t, i] { trace.emplace_back(t, i); });
  }
  // Insertion order is the tie-breaker: a stable sort by time over the
  // submission sequence is exactly the required execution order.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  loop.run_until_idle();
  EXPECT_EQ(trace, expected);
}

TEST(EventLoopDeterminism, PeriodicCancelFromOwnCallbackStopsFiring) {
  EventLoop loop;
  int fired = 0;
  EventLoop::TaskId id = EventLoop::kInvalidTask;
  id = loop.schedule_periodic(kMillisecond, [&] {
    ++fired;
    EXPECT_TRUE(loop.cancel(id));
  });
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.idle());

  // Cancelling from the callback of a *later* firing also works (the
  // re-armed queue entry must not resurrect the task).
  int count = 0;
  EventLoop::TaskId id2 = EventLoop::kInvalidTask;
  id2 = loop.schedule_periodic(kMillisecond, [&] {
    if (++count == 3) {
      EXPECT_TRUE(loop.cancel(id2));
    }
  });
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(loop.idle());
}

/// One randomized workload: immediate events, delayed events, nested
/// scheduling from inside callbacks, self-cancelling periodics — all
/// driven by a seeded Rng.  Returns the (time, label) execution trace.
std::vector<std::pair<SimTime, int>> run_workload(std::uint64_t seed) {
  Rng rng(seed);
  EventLoop loop;
  auto trace = std::make_shared<std::vector<std::pair<SimTime, int>>>();
  int label = 0;
  for (int i = 0; i < 200; ++i) {
    const int id = label++;
    const SimDuration delay =
        static_cast<SimDuration>(rng.uniform_u64(10)) * kMillisecond;
    switch (rng.uniform_u64(3)) {
      case 0:
        loop.schedule_after(delay, [&loop, trace, id] {
          trace->emplace_back(loop.now(), id);
        });
        break;
      case 1:
        // Nested: the callback schedules a follow-up event.
        loop.schedule_after(delay, [&loop, trace, id] {
          trace->emplace_back(loop.now(), id);
          loop.schedule_after(kMillisecond, [&loop, trace, id] {
            trace->emplace_back(loop.now(), 10'000 + id);
          });
        });
        break;
      default: {
        auto fired = std::make_shared<int>(0);
        auto task = std::make_shared<EventLoop::TaskId>(
            EventLoop::kInvalidTask);
        *task = loop.schedule_periodic(
            std::max<SimDuration>(delay, kMillisecond),
            [&loop, trace, id, fired, task] {
              trace->emplace_back(loop.now(), 20'000 + id);
              if (++*fired == 3) loop.cancel(*task);
            });
        break;
      }
    }
  }
  loop.run_until(kSecond);
  EXPECT_TRUE(loop.idle());
  return *trace;
}

TEST(EventLoopDeterminism, IdenticalSchedulesProduceIdenticalTraces) {
  const auto a = run_workload(0x5eed);
  const auto b = run_workload(0x5eed);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // A different seed really does produce a different schedule (guards
  // against the workload collapsing to something seed-independent).
  const auto c = run_workload(0x07e4);
  EXPECT_NE(a, c);
}

/// Replays a fixed cross-switch traffic mix (light flows plus a hotspot
/// burst that pushes UGAL over its divert threshold) and returns the
/// (arrival, hops) delivery trace — the observable signature of every
/// routing decision taken.
std::vector<std::pair<SimTime, int>> routed_trace(
    const hsn::TopologyConfig& topo, std::size_t nodes,
    std::uint64_t seed) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  for (int k = 0; k < 24; ++k) {
    for (std::size_t s = 0; s < half; ++s) {
      const auto dst = static_cast<hsn::NicAddr>(half + s);
      EXPECT_TRUE(f->nic(static_cast<hsn::NicAddr>(s))
                      .post_send(eps[s], dst, eps[dst],
                                 static_cast<std::uint64_t>(k), 32 * 1024,
                                 {}, 0)
                      .is_ok());
    }
  }
  std::vector<std::pair<SimTime, int>> trace;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt =
          f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      trace.emplace_back(pkt.value().arrival_vt,
                         static_cast<int>(pkt.value().hops));
    }
  }
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);
  return trace;
}

/// Replays a full failure/recovery episode — traffic, a mid-run element
/// failure with an open pre-repair loss window, the fabric-manager
/// repair, more traffic, restore, final traffic — and returns the
/// delivery trace plus the loss accounting.  Every piece (baseline
/// routing, seeded re-plan, drop set) must be bit-identical per seed.
struct FailureEpisode {
  std::vector<std::pair<SimTime, int>> trace;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_link_down = 0;
};

bool operator==(const FailureEpisode& a, const FailureEpisode& b) {
  return a.trace == b.trace && a.delivered == b.delivered &&
         a.dropped_link_down == b.dropped_link_down;
}

FailureEpisode failure_episode(const hsn::TopologyConfig& topo,
                               std::size_t nodes, bool fail_whole_switch,
                               hsn::SwitchId victim_a,
                               hsn::SwitchId victim_b,
                               std::uint64_t seed) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  f->manager().set_auto_repair(false);
  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  const auto burst = [&](int rounds, std::uint64_t tag_base) {
    for (int k = 0; k < rounds; ++k) {
      for (std::size_t s = 0; s < half; ++s) {
        const auto dst = static_cast<hsn::NicAddr>(half + s);
        // Sends may legitimately fail inside the loss window.
        (void)f->nic(static_cast<hsn::NicAddr>(s))
            .post_send(eps[s], dst, eps[dst], tag_base + k, 32 * 1024, {},
                       0);
      }
    }
  };

  burst(8, 0);  // healthy baseline
  if (fail_whole_switch) {
    EXPECT_TRUE(f->fail_switch(victim_a).is_ok());
  } else {
    EXPECT_TRUE(f->fail_link(victim_a, victim_b).is_ok());
  }
  burst(8, 100);          // open loss window: stale tables, dead element
  f->manager().repair();  // re-plan lands
  burst(8, 200);          // converged on the repaired routes
  if (fail_whole_switch) {
    EXPECT_TRUE(f->restore_switch(victim_a).is_ok());
  } else {
    EXPECT_TRUE(f->restore_link(victim_a, victim_b).is_ok());
  }
  f->manager().repair();
  burst(8, 300);  // back on pristine routing

  FailureEpisode episode;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt = f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      episode.trace.emplace_back(pkt.value().arrival_vt,
                                 static_cast<int>(pkt.value().hops));
    }
  }
  episode.delivered = f->total_counters().delivered;
  episode.dropped_link_down = f->total_counters().dropped_link_down;
  return episode;
}

TEST(FabricRoutingDeterminism, FailureRecoveryEpisodesAreDeterministic) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));

    // Fat-tree: spine 5 of 4-leaves/4-spines dies mid-run.
    hsn::TopologyConfig fat_tree;
    fat_tree.kind = hsn::TopologyKind::kFatTree;
    fat_tree.nodes_per_switch = 8;
    fat_tree.spines = 4;
    fat_tree.routing = policy;
    const auto ft = failure_episode(fat_tree, 32, /*switch=*/true, 5, 0,
                                    0xfade);
    EXPECT_EQ(ft,
              failure_episode(fat_tree, 32, true, 5, 0, 0xfade));
    EXPECT_GT(ft.delivered, 0u);

    // Dragonfly: the (g0, g2) global gateway link (2, 8) dies mid-run —
    // squarely on the path of the group 0/1 -> group 2/3 traffic.
    hsn::TopologyConfig dragonfly;
    dragonfly.kind = hsn::TopologyKind::kDragonfly;
    dragonfly.nodes_per_switch = 4;
    dragonfly.switches_per_group = 4;
    dragonfly.routing = policy;
    const auto df = failure_episode(dragonfly, 64, /*switch=*/false, 2, 8,
                                    0xfade);
    EXPECT_EQ(df,
              failure_episode(dragonfly, 64, false, 2, 8, 0xfade));
    EXPECT_GT(df.delivered, 0u);
    if (policy == hsn::RoutingPolicy::kMinimal) {
      // Static routes cannot dodge the dead link before the repair: the
      // loss window really opened and was counted.
      EXPECT_GT(df.dropped_link_down, 0u);

      // A different seed reshuffles the baseline spine hash AND the
      // re-plan's seeded next hops — the static episode signature must
      // move with it.  (Adaptive policies steer by queue lag, so their
      // traces are legitimately hash-independent.)
      EXPECT_NE(ft, failure_episode(fat_tree, 32, true, 5, 0, 0x0bad));
    }
  }
}

// ---------------------------------------------------------------------------
// Golden digests: the flat-table data plane (compiled routing tables,
// dense port/uplink vectors, pre-resolved counter slabs) is a pure
// *representation* change — per-seed results must be bit-identical to
// the hash-table implementation it replaced.  These constants were
// recorded from the pre-refactor tree (unordered_map forwarding state)
// with the exact workloads below; any divergence means the data plane's
// behavior changed, not just its layout.

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_digest(
    const std::vector<std::pair<SimTime, int>>& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [t, hops] : trace) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(t));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(hops));
  }
  return h;
}

std::uint64_t episode_digest(const FailureEpisode& e) {
  std::uint64_t h = trace_digest(e.trace);
  h = fnv1a_mix(h, e.delivered);
  h = fnv1a_mix(h, e.dropped_link_down);
  return h;
}

TEST(FabricRoutingDeterminism, GoldenDigestsMatchPreFlatTableRecording) {
  struct Golden {
    hsn::RoutingPolicy policy;
    std::uint64_t fat_tree_route;
    std::uint64_t dragonfly_route;
    std::uint64_t fat_tree_fail;
    std::uint64_t dragonfly_fail;
  };
  // Recorded from the hash-table tree at PR-4 head (seed 0xd3ad routed
  // traffic, seed 0xfade failure episodes), zero-jitter timing.
  const Golden goldens[] = {
      {hsn::RoutingPolicy::kMinimal, 0x3b14b508480f6d75ULL,
       0x9b749cdb47a37e46ULL, 0x8ee07b7ef1e87d77ULL, 0xb344da764e087497ULL},
      {hsn::RoutingPolicy::kValiant, 0x926fe200a28f5443ULL,
       0x1130d8e76fc9a73fULL, 0xcc39dbbd28f96431ULL, 0x5afd436144dced58ULL},
      {hsn::RoutingPolicy::kUgal, 0x4b23c0d0195e2685ULL,
       0xd57b32e3c7933dacULL, 0x9b2ffbeb243f418fULL, 0xf851c9f772d79ff8ULL},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(hsn::routing_policy_name(g.policy));

    hsn::TopologyConfig fat_tree;
    fat_tree.kind = hsn::TopologyKind::kFatTree;
    fat_tree.nodes_per_switch = 8;
    fat_tree.spines = 4;
    fat_tree.routing = g.policy;
    EXPECT_EQ(trace_digest(routed_trace(fat_tree, 32, 0xd3ad)),
              g.fat_tree_route);
    EXPECT_EQ(episode_digest(failure_episode(fat_tree, 32, /*switch=*/true,
                                             5, 0, 0xfade)),
              g.fat_tree_fail);

    hsn::TopologyConfig dragonfly;
    dragonfly.kind = hsn::TopologyKind::kDragonfly;
    dragonfly.nodes_per_switch = 4;
    dragonfly.switches_per_group = 4;
    dragonfly.routing = g.policy;
    EXPECT_EQ(trace_digest(routed_trace(dragonfly, 64, 0xd3ad)),
              g.dragonfly_route);
    EXPECT_EQ(episode_digest(failure_episode(dragonfly, 64, /*switch=*/false,
                                             2, 8, 0xfade)),
              g.dragonfly_fail);
  }
}

// ---------------------------------------------------------------------------
// Lossy-fabric reliability determinism: with probabilistic loss,
// ACK loss, a timed link flap, and a mid-run link failure/re-route all
// armed — plus NIC-level retransmission recovering through it — the
// entire observable episode (delivery trace, loss accounting, retry
// accounting) must still be a pure function of the seed.  The fault
// draws come from a dedicated per-switch RNG stream and the backoff
// jitter from a per-NIC stream, so arming faults must not perturb the
// routing RNG (the goldens above prove that) and per-seed chaos must
// replay bit-identically (the goldens below prove this).

struct LossyEpisode {
  std::vector<std::pair<SimTime, int>> trace;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_link_down = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
};

std::uint64_t lossy_episode_digest(const LossyEpisode& e) {
  std::uint64_t h = trace_digest(e.trace);
  h = fnv1a_mix(h, e.delivered);
  h = fnv1a_mix(h, e.dropped_loss);
  h = fnv1a_mix(h, e.dropped_link_down);
  h = fnv1a_mix(h, e.retransmits);
  h = fnv1a_mix(h, e.duplicates);
  return h;
}

/// Dragonfly (4 nodes/switch, 4 switches/group, 64 nodes) under 2% link
/// loss + 1% ACK loss, a 500us flap of the (g0, g1) gateway, and a
/// mid-run (g0, g2) gateway failure repaired during the retry window
/// (the hook nudges the fabric manager from the third attempt on).
LossyEpisode lossy_failure_episode(hsn::RoutingPolicy policy,
                                   std::uint64_t seed) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  topo.routing = policy;
  constexpr std::size_t nodes = 64;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  f->manager().set_auto_repair(false);

  hsn::FaultProfile lossy;
  lossy.drop_rate = 0.02;
  lossy.ack_loss_rate = 0.01;
  f->set_fault_profile(lossy);
  EXPECT_TRUE(f->add_link_flap(1, 4, 0, from_micros(500)).is_ok());
  hsn::ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);
  f->set_retry_hook([&f](int attempt, SimDuration) {
    if (attempt >= 3) (void)f->manager().repair_if_pending();
  });

  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  const auto burst = [&](int rounds, std::uint64_t tag_base) {
    for (int k = 0; k < rounds; ++k) {
      for (std::size_t s = 0; s < half; ++s) {
        const auto dst = static_cast<hsn::NicAddr>(half + s);
        // A rare budget exhaustion inside the windows is legitimate —
        // and, like everything else here, must replay per-seed.
        (void)f->nic(static_cast<hsn::NicAddr>(s))
            .post_send(eps[s], dst, eps[dst], tag_base + k, 32 * 1024, {},
                       0);
      }
    }
  };

  burst(8, 0);  // lossy + flapping baseline
  EXPECT_TRUE(f->fail_link(2, 8).is_ok());
  burst(8, 100);  // loss window: retransmits carry ops across the replan
  (void)f->manager().repair_if_pending();
  burst(8, 200);  // converged on repaired routes, still lossy
  EXPECT_TRUE(f->restore_link(2, 8).is_ok());
  (void)f->manager().repair_if_pending();
  burst(8, 300);  // pristine routing, faults still armed

  LossyEpisode e;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt = f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      e.trace.emplace_back(pkt.value().arrival_vt,
                           static_cast<int>(pkt.value().hops));
    }
  }
  const auto totals = f->total_counters();
  e.delivered = totals.delivered;
  e.dropped_loss = totals.dropped_loss;
  e.dropped_link_down = totals.dropped_link_down;
  const auto rc = f->reliability_totals();
  e.retransmits = rc.retransmits;
  e.duplicates = rc.duplicates;
  return e;
}

TEST(FabricRoutingDeterminism, LossyFailureEpisodesMatchPinnedDigests) {
  struct Golden {
    hsn::RoutingPolicy policy;
    std::uint64_t digest;
  };
  // Recorded at introduction (seed 0xfeed, zero-jitter timing).  A
  // divergence means the fault model or retransmit protocol changed
  // behaviorally — rerecord only with a data-plane change you can
  // explain.
  const Golden goldens[] = {
      {hsn::RoutingPolicy::kMinimal, 0x79e63db01ddab077ULL},
      {hsn::RoutingPolicy::kValiant, 0x55d0fc3d4face9fbULL},
      {hsn::RoutingPolicy::kUgal, 0xa497bc951a55e48bULL},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(hsn::routing_policy_name(g.policy));
    const LossyEpisode a = lossy_failure_episode(g.policy, 0xfeed);
    // The episode exercised what it claims: loss, recovery, dedup.
    EXPECT_GT(a.delivered, 0u);
    EXPECT_GT(a.dropped_loss, 0u);
    EXPECT_GT(a.retransmits, 0u);
    EXPECT_GT(a.duplicates, 0u);
    EXPECT_EQ(lossy_episode_digest(a), g.digest);
    // Bit-identical replay of the full chaos episode.
    const LossyEpisode b = lossy_failure_episode(g.policy, 0xfeed);
    EXPECT_EQ(lossy_episode_digest(b), lossy_episode_digest(a));
    // A different seed genuinely reshuffles the fault schedule.
    EXPECT_NE(lossy_episode_digest(lossy_failure_episode(g.policy, 0xbead)),
              lossy_episode_digest(a));
  }
}

// ---------------------------------------------------------------------------
// Sharded data-plane determinism: the conservative-window engine
// (hsn::ShardEngine) must produce bit-identical per-seed results no
// matter how many worker threads drive its domains — the domain
// partition, window boundaries, per-domain (vt, seq) processing order,
// and barrier merge order are all pure functions of the input.  The
// engine interleaves hops across packets in virtual-time order (unlike
// the legacy depth-first walk), so its schedule is compared against
// itself across thread counts, not against the legacy goldens above.

std::vector<std::pair<SimTime, int>> sharded_trace(
    const hsn::TopologyConfig& topo, std::size_t nodes, std::uint64_t seed,
    int threads) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  hsn::ShardEngine engine(*f, threads);
  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  for (int k = 0; k < 24; ++k) {
    for (std::size_t s = 0; s < half; ++s) {
      const auto dst = static_cast<hsn::NicAddr>(half + s);
      EXPECT_TRUE(engine
                      .post_send(static_cast<hsn::NicAddr>(s), eps[s], dst,
                                 eps[dst], static_cast<std::uint64_t>(k),
                                 32 * 1024, 0)
                      .is_ok());
    }
  }
  engine.flush();
  EXPECT_EQ(engine.in_flight(), 0u);
  std::vector<std::pair<SimTime, int>> trace;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt = f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      trace.emplace_back(pkt.value().arrival_vt,
                         static_cast<int>(pkt.value().hops));
    }
  }
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);
  EXPECT_EQ(f->total_counters().delivered + f->total_counters().dropped_total(),
            engine.attempts_injected());
  return trace;
}

FailureEpisode sharded_failure_episode(const hsn::TopologyConfig& topo,
                                       std::size_t nodes,
                                       bool fail_whole_switch,
                                       hsn::SwitchId victim_a,
                                       hsn::SwitchId victim_b,
                                       std::uint64_t seed, int threads) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  f->manager().set_auto_repair(false);
  hsn::ShardEngine engine(*f, threads);
  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  // Control-plane mutations are only legal between flushes, so each
  // burst is posted and fully flushed before the next episode phase.
  const auto burst = [&](int rounds, std::uint64_t tag_base) {
    for (int k = 0; k < rounds; ++k) {
      for (std::size_t s = 0; s < half; ++s) {
        const auto dst = static_cast<hsn::NicAddr>(half + s);
        EXPECT_TRUE(engine
                        .post_send(static_cast<hsn::NicAddr>(s), eps[s], dst,
                                   eps[dst], tag_base + k, 32 * 1024, 0)
                        .is_ok());
      }
    }
    engine.flush();
  };

  burst(8, 0);  // healthy baseline
  if (fail_whole_switch) {
    EXPECT_TRUE(f->fail_switch(victim_a).is_ok());
  } else {
    EXPECT_TRUE(f->fail_link(victim_a, victim_b).is_ok());
  }
  burst(8, 100);          // open loss window: stale tables, dead element
  f->manager().repair();  // re-plan lands
  burst(8, 200);          // converged on the repaired routes
  if (fail_whole_switch) {
    EXPECT_TRUE(f->restore_switch(victim_a).is_ok());
  } else {
    EXPECT_TRUE(f->restore_link(victim_a, victim_b).is_ok());
  }
  f->manager().repair();
  burst(8, 300);  // back on pristine routing

  FailureEpisode episode;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt = f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      episode.trace.emplace_back(pkt.value().arrival_vt,
                                 static_cast<int>(pkt.value().hops));
    }
  }
  episode.delivered = f->total_counters().delivered;
  episode.dropped_link_down = f->total_counters().dropped_link_down;
  return episode;
}

/// The lossy chaos episode on the sharded engine: probabilistic loss +
/// ACK loss + a timed flap + a mid-run link failure, with the NIC
/// retransmit protocol recovering through it — retransmits are charged
/// at window barriers instead of inline.  No retry hook (the engine
/// forbids control-plane work mid-flush); the repair lands between
/// bursts instead, so ops failing inside a burst retry against stale
/// tables until their budget runs out — deterministically.
LossyEpisode sharded_lossy_episode(hsn::RoutingPolicy policy,
                                   std::uint64_t seed, int threads) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  topo.routing = policy;
  constexpr std::size_t nodes = 64;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  f->manager().set_auto_repair(false);

  hsn::FaultProfile lossy;
  lossy.drop_rate = 0.02;
  lossy.ack_loss_rate = 0.01;
  f->set_fault_profile(lossy);
  EXPECT_TRUE(f->add_link_flap(1, 4, 0, from_micros(500)).is_ok());
  hsn::ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  hsn::ShardEngine engine(*f, threads);
  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  const auto burst = [&](int rounds, std::uint64_t tag_base) {
    for (int k = 0; k < rounds; ++k) {
      for (std::size_t s = 0; s < half; ++s) {
        const auto dst = static_cast<hsn::NicAddr>(half + s);
        EXPECT_TRUE(engine
                        .post_send(static_cast<hsn::NicAddr>(s), eps[s], dst,
                                   eps[dst], tag_base + k, 32 * 1024, 0)
                        .is_ok());
      }
    }
    engine.flush();
  };

  burst(8, 0);  // lossy + flapping baseline
  EXPECT_TRUE(f->fail_link(2, 8).is_ok());
  burst(8, 100);  // loss window: budgets may exhaust against stale tables
  (void)f->manager().repair_if_pending();
  burst(8, 200);  // converged on repaired routes, still lossy
  EXPECT_TRUE(f->restore_link(2, 8).is_ok());
  (void)f->manager().repair_if_pending();
  burst(8, 300);  // pristine routing, faults still armed

  LossyEpisode e;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt = f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      e.trace.emplace_back(pkt.value().arrival_vt,
                           static_cast<int>(pkt.value().hops));
    }
  }
  const auto totals = f->total_counters();
  e.delivered = totals.delivered;
  e.dropped_loss = totals.dropped_loss;
  e.dropped_link_down = totals.dropped_link_down;
  const auto rc = f->reliability_totals();
  e.retransmits = rc.retransmits;
  e.duplicates = rc.duplicates;
  return e;
}

// Pinned golden digests for the sharded single-thread episodes,
// recorded from the original heap-per-domain executor before the
// batched-run-queue/pooled-staging rework.  The rework is a pure
// storage and scheduling change under the same (domain, vt, seq) order,
// so every digest must stay bit-identical — and because each tN leg
// compares against the same t1 episode, the pins cover every thread
// count the tests run.
struct ShardedGoldens {
  std::uint64_t minimal;
  std::uint64_t valiant;
  std::uint64_t ugal;
  [[nodiscard]] std::uint64_t of(hsn::RoutingPolicy p) const {
    switch (p) {
      case hsn::RoutingPolicy::kMinimal:
        return minimal;
      case hsn::RoutingPolicy::kValiant:
        return valiant;
      case hsn::RoutingPolicy::kUgal:
        return ugal;
    }
    return 0;
  }
};
constexpr ShardedGoldens kRouteGoldenFt{0x3b14b508480f6d75ULL,
                                        0x40939aa2e5c2fb6aULL,
                                        0x4b23c0d0195e2685ULL};
constexpr ShardedGoldens kRouteGoldenDf{0x299449f1c8e79b1fULL,
                                        0x9ab87f2dd6f5c8ccULL,
                                        0xc618933480255169ULL};
constexpr ShardedGoldens kFailGoldenFt{0x8ee07b7ef1e87d77ULL,
                                       0x316b448f3d240991ULL,
                                       0x9b2ffbeb243f418fULL};
constexpr ShardedGoldens kFailGoldenDf{0x4d2af63239519ea2ULL,
                                       0x5896bb57027687f8ULL,
                                       0x9647b3427e08a2a5ULL};
constexpr ShardedGoldens kLossyGolden{0xacbb88a06ea6fb2bULL,
                                      0x70e2eafa2fa5e28dULL,
                                      0x96bcdd308b848508ULL};
constexpr ShardedGoldens kRmaGolden{0x0a7bc221f12cb93cULL,
                                    0xcadf950de5a226c7ULL,
                                    0xc4bdb7663ceea466ULL};
constexpr ShardedGoldens kRmaFailGolden{0xcbdea6c1505287f6ULL,
                                        0xde8019dc4520f813ULL,
                                        0x8fb8016be8e29336ULL};
constexpr ShardedGoldens kRmaLossyGolden{0xe05dbea1ff002d97ULL,
                                         0x439720fa8daf142aULL,
                                         0x3be12ac6902ba7bfULL};

TEST(ShardedDataPlaneDeterminism, RoutedTracesMatchAcrossThreadCounts) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));

    hsn::TopologyConfig fat_tree;
    fat_tree.kind = hsn::TopologyKind::kFatTree;
    fat_tree.nodes_per_switch = 8;
    fat_tree.spines = 4;
    fat_tree.routing = policy;
    const auto ft1 = sharded_trace(fat_tree, 32, 0xd3ad, 1);
    EXPECT_FALSE(ft1.empty());
    EXPECT_EQ(trace_digest(ft1), kRouteGoldenFt.of(policy));
    EXPECT_EQ(ft1, sharded_trace(fat_tree, 32, 0xd3ad, 4));

    hsn::TopologyConfig dragonfly;
    dragonfly.kind = hsn::TopologyKind::kDragonfly;
    dragonfly.nodes_per_switch = 4;
    dragonfly.switches_per_group = 4;
    dragonfly.routing = policy;
    const auto df1 = sharded_trace(dragonfly, 64, 0xd3ad, 1);
    EXPECT_FALSE(df1.empty());
    EXPECT_EQ(trace_digest(df1), kRouteGoldenDf.of(policy));
    EXPECT_EQ(df1, sharded_trace(dragonfly, 64, 0xd3ad, 2));
    EXPECT_EQ(df1, sharded_trace(dragonfly, 64, 0xd3ad, 3));
    EXPECT_EQ(df1, sharded_trace(dragonfly, 64, 0xd3ad, 4));
    // A different seed still reshuffles results (guards against the
    // engine collapsing to something seed-independent).
    if (policy == hsn::RoutingPolicy::kValiant) {
      EXPECT_NE(df1, sharded_trace(dragonfly, 64, 0x0bad, 4));
    }
  }
}

TEST(ShardedDataPlaneDeterminism, FailureEpisodesMatchAcrossThreadCounts) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));

    hsn::TopologyConfig fat_tree;
    fat_tree.kind = hsn::TopologyKind::kFatTree;
    fat_tree.nodes_per_switch = 8;
    fat_tree.spines = 4;
    fat_tree.routing = policy;
    const auto ft1 =
        sharded_failure_episode(fat_tree, 32, /*switch=*/true, 5, 0, 0xfade,
                                1);
    EXPECT_GT(ft1.delivered, 0u);
    EXPECT_EQ(episode_digest(ft1), kFailGoldenFt.of(policy));
    EXPECT_EQ(ft1, sharded_failure_episode(fat_tree, 32, true, 5, 0, 0xfade,
                                           4));

    hsn::TopologyConfig dragonfly;
    dragonfly.kind = hsn::TopologyKind::kDragonfly;
    dragonfly.nodes_per_switch = 4;
    dragonfly.switches_per_group = 4;
    dragonfly.routing = policy;
    const auto df1 = sharded_failure_episode(dragonfly, 64, /*switch=*/false,
                                             2, 8, 0xfade, 1);
    EXPECT_GT(df1.delivered, 0u);
    EXPECT_EQ(episode_digest(df1), kFailGoldenDf.of(policy));
    EXPECT_EQ(df1, sharded_failure_episode(dragonfly, 64, false, 2, 8,
                                           0xfade, 3));
    EXPECT_EQ(df1, sharded_failure_episode(dragonfly, 64, false, 2, 8,
                                           0xfade, 4));
    if (policy == hsn::RoutingPolicy::kMinimal) {
      // The loss window really opened on the static policy.
      EXPECT_GT(df1.dropped_link_down, 0u);
    }
  }
}

TEST(ShardedDataPlaneDeterminism, LossyEpisodesMatchAcrossThreadCounts) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));
    const LossyEpisode a = sharded_lossy_episode(policy, 0xfeed, 1);
    // The episode exercised what it claims: loss, recovery, dedup.
    EXPECT_GT(a.delivered, 0u);
    EXPECT_GT(a.dropped_loss, 0u);
    EXPECT_GT(a.retransmits, 0u);
    EXPECT_GT(a.duplicates, 0u);
    EXPECT_EQ(lossy_episode_digest(a), kLossyGolden.of(policy));
    const LossyEpisode b = sharded_lossy_episode(policy, 0xfeed, 4);
    EXPECT_EQ(lossy_episode_digest(a),
              lossy_episode_digest(sharded_lossy_episode(policy, 0xfeed, 3)));
    EXPECT_EQ(lossy_episode_digest(a), lossy_episode_digest(b));
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.retransmits, b.retransmits);
    // A different seed genuinely reshuffles the fault schedule.
    EXPECT_NE(lossy_episode_digest(sharded_lossy_episode(policy, 0xbead, 4)),
              lossy_episode_digest(a));
  }
}

// ---------------------------------------------------------------------------
// RMA-inclusive sharded determinism: the engine now drives the full
// verb set — two-sided sends, one-sided writes and reads, their
// target-side completion traffic (ACKs, read responses, NACKs), and the
// reliable-delivery retransmits of all of the above — through the same
// (domain, vt, seq) merge order.  The observable episode (delivery
// traces, per-initiator completion-event streams, bytes landed in the
// target MRs, loss/retry accounting) must be bit-identical across
// thread counts for every routing policy.

struct RmaEpisode {
  std::vector<std::pair<SimTime, int>> trace;  ///< two-sided deliveries
  std::vector<std::uint64_t> events;  ///< per-initiator event stream hashes
  std::uint64_t mr_hash = 0;          ///< bytes landed in every target MR
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_link_down = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t rma_denied = 0;
};

std::uint64_t rma_episode_digest(const RmaEpisode& e) {
  std::uint64_t h = trace_digest(e.trace);
  for (const auto v : e.events) h = fnv1a_mix(h, v);
  h = fnv1a_mix(h, e.mr_hash);
  h = fnv1a_mix(h, e.delivered);
  h = fnv1a_mix(h, e.dropped_loss);
  h = fnv1a_mix(h, e.dropped_link_down);
  h = fnv1a_mix(h, e.retransmits);
  h = fnv1a_mix(h, e.duplicates);
  h = fnv1a_mix(h, e.rma_denied);
  return h;
}

/// Dragonfly episode mixing all three verbs round-robin per (round,
/// source) plus one guaranteed-denied write per burst (unknown rkey →
/// target NACK → fail-fast kError at the initiator).  `with_failure`
/// adds a mid-run gateway failure and repair; `lossy` arms
/// probabilistic loss + ACK loss.  Reliability is always on, so RMA
/// requests *and* their completion replies ride the retransmit
/// protocol, charged at window barriers.
RmaEpisode sharded_rma_episode(hsn::RoutingPolicy policy, bool with_failure,
                               bool lossy, std::uint64_t seed, int threads) {
  hsn::TimingConfig flat;
  flat.jitter_amplitude = 0.0;
  flat.run_bias_amplitude = 0.0;
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  topo.routing = policy;
  constexpr std::size_t nodes = 64;
  auto f = hsn::Fabric::create(nodes, flat, seed, topo);
  f->manager().set_auto_repair(false);
  if (lossy) {
    hsn::FaultProfile p;
    p.drop_rate = 0.02;
    p.ack_loss_rate = 0.01;
    f->set_fault_profile(p);
  }
  hsn::ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  hsn::ShardEngine engine(*f, threads);
  constexpr hsn::Vni kVni = 99;
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(f->nic(addr)
                      .alloc_endpoint(kVni, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  // One 4 KiB MR per target NIC, registered on its episode endpoint.
  std::vector<std::vector<std::byte>> regions(half,
                                              std::vector<std::byte>(4096));
  std::vector<hsn::RKey> rkeys(half);
  for (std::size_t s = 0; s < half; ++s) {
    const auto dst = static_cast<hsn::NicAddr>(half + s);
    rkeys[s] = f->nic(dst).register_mr(eps[dst], regions[s]).value();
  }

  std::uint64_t next_op = 1;
  const auto burst = [&](int rounds, std::uint64_t tag_base) {
    for (int k = 0; k < rounds; ++k) {
      for (std::size_t s = 0; s < half; ++s) {
        const auto src = static_cast<hsn::NicAddr>(s);
        const auto dst = static_cast<hsn::NicAddr>(half + s);
        const std::uint64_t off =
            (tag_base + static_cast<std::uint64_t>(k) * 128 + s * 8) % 4000;
        switch ((static_cast<std::size_t>(k) + s) % 3) {
          case 0:
            (void)engine.post_send(src, eps[s], dst, eps[dst], tag_base + k,
                                   32 * 1024, 0);
            break;
          case 1: {
            const std::vector<std::byte> data(
                64, static_cast<std::byte>((k * 31 + static_cast<int>(s)) &
                                           0xff));
            (void)engine.post_rma_write(src, eps[s], dst, rkeys[s], off, 64,
                                        data, 0, next_op++);
            break;
          }
          default:
            (void)engine.post_rma_read(src, eps[s], dst, rkeys[s], off, 64,
                                       0, next_op++);
            break;
        }
        if (k == 3 && s % 7 == 0) {
          // Unknown rkey: the target must deny and NACK — never silence.
          (void)engine.post_rma_write(src, eps[s], dst, 0xdeadbeefULL, 0, 8,
                                      {}, 0, next_op++);
        }
      }
    }
    engine.flush();
  };

  burst(8, 0);  // baseline
  if (with_failure) {
    EXPECT_TRUE(f->fail_link(2, 8).is_ok());
    burst(8, 100);  // loss window: stale tables
    (void)f->manager().repair_if_pending();
    burst(8, 200);  // converged on repaired routes
    EXPECT_TRUE(f->restore_link(2, 8).is_ok());
    (void)f->manager().repair_if_pending();
  }
  burst(8, 300);  // tail burst (pristine routing when failure episode)

  RmaEpisode e;
  for (std::size_t d = half; d < nodes; ++d) {
    while (true) {
      auto pkt = f->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]);
      if (!pkt.is_ok()) break;
      e.trace.emplace_back(pkt.value().arrival_vt,
                           static_cast<int>(pkt.value().hops));
    }
  }
  // Per-initiator completion-event streams: order, correlation ids,
  // completion times, and read payload bytes all fold into the digest.
  for (std::size_t s = 0; s < half; ++s) {
    while (true) {
      auto ev = f->nic(static_cast<hsn::NicAddr>(s)).poll_event(eps[s]);
      if (!ev.is_ok()) break;
      const hsn::Event& v = ev.value();
      std::uint64_t h = fnv1a_mix(0x9e3779b97f4a7c15ULL, v.op_id);
      h = fnv1a_mix(h, static_cast<std::uint64_t>(v.type));
      h = fnv1a_mix(h, static_cast<std::uint64_t>(v.vt));
      h = fnv1a_mix(h, v.size);
      h = fnv1a_mix(h, static_cast<std::uint64_t>(v.status.code()));
      for (const auto b : v.data) {
        h = fnv1a_mix(h, static_cast<std::uint64_t>(b));
      }
      e.events.push_back(h);
    }
  }
  std::uint64_t mr_h = 0xcbf29ce484222325ULL;
  for (const auto& region : regions) {
    for (const auto b : region) {
      mr_h = fnv1a_mix(mr_h, static_cast<std::uint64_t>(b));
    }
  }
  e.mr_hash = mr_h;
  const auto totals = f->total_counters();
  e.delivered = totals.delivered;
  e.dropped_loss = totals.dropped_loss;
  e.dropped_link_down = totals.dropped_link_down;
  const auto rc = f->reliability_totals();
  e.retransmits = rc.retransmits;
  e.duplicates = rc.duplicates;
  for (std::size_t i = 0; i < nodes; ++i) {
    e.rma_denied +=
        f->nic(static_cast<hsn::NicAddr>(i)).counters().rma_denied;
  }
  return e;
}

TEST(ShardedDataPlaneDeterminism, RmaEpisodesMatchAcrossThreadCounts) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));
    const RmaEpisode a = sharded_rma_episode(policy, /*with_failure=*/false,
                                             /*lossy=*/false, 0x51a, 1);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_FALSE(a.events.empty());
    EXPECT_GT(a.rma_denied, 0u);
    const auto da = rma_episode_digest(a);
    EXPECT_EQ(da, kRmaGolden.of(policy));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, false, false, 0x51a, 2)));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, false, false, 0x51a, 3)));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, false, false, 0x51a, 4)));
  }
}

TEST(ShardedDataPlaneDeterminism, RmaFailureEpisodesMatchAcrossThreadCounts) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));
    const RmaEpisode a = sharded_rma_episode(policy, /*with_failure=*/true,
                                             /*lossy=*/false, 0x51b, 1);
    EXPECT_GT(a.delivered, 0u);
    const auto da = rma_episode_digest(a);
    EXPECT_EQ(da, kRmaFailGolden.of(policy));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, false, 0x51b, 2)));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, false, 0x51b, 3)));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, false, 0x51b, 4)));
  }
}

TEST(ShardedDataPlaneDeterminism, LossyRmaEpisodesMatchAcrossThreadCounts) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));
    const RmaEpisode a = sharded_rma_episode(policy, /*with_failure=*/true,
                                             /*lossy=*/true, 0x51c, 1);
    // The episode exercised what it claims: loss, recovery, denial.
    EXPECT_GT(a.delivered, 0u);
    EXPECT_GT(a.dropped_loss, 0u);
    EXPECT_GT(a.retransmits, 0u);
    EXPECT_GT(a.rma_denied, 0u);
    const auto da = rma_episode_digest(a);
    EXPECT_EQ(da, kRmaLossyGolden.of(policy));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, true, 0x51c, 2)));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, true, 0x51c, 3)));
    EXPECT_EQ(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, true, 0x51c, 4)));
    // A different seed genuinely reshuffles the episode.
    EXPECT_NE(da, rma_episode_digest(sharded_rma_episode(
                      policy, true, true, 0xbead, 4)));
  }
}

TEST(FabricRoutingDeterminism, IdenticalSeedsIdenticalTracesPerPolicy) {
  for (const auto policy :
       {hsn::RoutingPolicy::kMinimal, hsn::RoutingPolicy::kValiant,
        hsn::RoutingPolicy::kUgal}) {
    SCOPED_TRACE(hsn::routing_policy_name(policy));

    hsn::TopologyConfig fat_tree;
    fat_tree.kind = hsn::TopologyKind::kFatTree;
    fat_tree.nodes_per_switch = 8;
    fat_tree.spines = 4;
    fat_tree.routing = policy;
    EXPECT_EQ(routed_trace(fat_tree, 32, 0xd3ad),
              routed_trace(fat_tree, 32, 0xd3ad));

    hsn::TopologyConfig dragonfly;
    dragonfly.kind = hsn::TopologyKind::kDragonfly;
    dragonfly.nodes_per_switch = 4;
    dragonfly.switches_per_group = 4;
    dragonfly.routing = policy;
    const auto a = routed_trace(dragonfly, 64, 0xd3ad);
    EXPECT_EQ(a, routed_trace(dragonfly, 64, 0xd3ad));
    EXPECT_FALSE(a.empty());

    // A different fabric seed reshuffles Valiant's intermediate choices
    // (guards against the per-switch RNG ignoring its seed).
    if (policy == hsn::RoutingPolicy::kValiant) {
      EXPECT_NE(a, routed_trace(dragonfly, 64, 0x0bad));
    }
  }
}

// ---------------------------------------------------------------------------
// Control-plane determinism.  The k8s controllers (job controller,
// scheduler, VNI decorator, kubelets) must replay identically per seed:
// every pod's lifecycle timestamps, granted VNI and node, the final loop
// time and the bind telemetry are folded into one behaviour digest per
// episode.  The executed-event count is pinned beside it on its own: it
// says how many loop events the controllers spent, not what the cluster
// did, so a change that only drops no-op events re-pins the count and
// must leave the digest alone.

/// Latest snapshot of every pod ever seen on the watch stream (the final
/// one for pods that were reaped), plus the run's loop totals.
struct ControlPlaneEpisode {
  std::map<k8s::Uid, k8s::Pod> pods;
  SimTime end_vt = 0;
  std::uint64_t events = 0;
  k8s::Scheduler::BindTelemetry binds;
};

void record_pods(core::SlingshotStack& stack, ControlPlaneEpisode& e) {
  stack.api().watch_pods([&e](const k8s::WatchEvent<k8s::Pod>& ev) {
    e.pods[ev.object.meta.uid] = ev.object;
  });
}

/// Runs the loop one simulated second at a time until no job is left (or
/// `max_vt`), counting executed events.
void drain_jobs(core::SlingshotStack& stack, ControlPlaneEpisode& e,
                SimTime max_vt = 600 * kSecond) {
  while (stack.loop().now() < max_vt) {
    std::size_t alive = 0;
    stack.api().visit_jobs([&](const k8s::Job&) { ++alive; });
    if (alive == 0) break;
    e.events += stack.loop().run_for(kSecond);
  }
  e.end_vt = stack.loop().now();
  e.binds = stack.scheduler().bind_telemetry();
}

std::uint64_t control_plane_digest(const ControlPlaneEpisode& e) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [uid, p] : e.pods) {
    h = fnv1a_mix(h, uid);
    h = fnv1a_mix(h, static_cast<std::uint64_t>(p.meta.creation_vt));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(p.status.scheduled_vt));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(p.status.running_vt));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(p.status.finished_vt));
    h = fnv1a_mix(h, p.status.vni);
    for (const char c : p.status.node) {
      h = fnv1a_mix(h, static_cast<unsigned char>(c));
    }
  }
  h = fnv1a_mix(h, static_cast<std::uint64_t>(e.end_vt));
  h = fnv1a_mix(h, e.binds.binds);
  h = fnv1a_mix(h, e.binds.drained_rebound);
  h = fnv1a_mix(h, e.binds.drained_evicted);
  return h;
}

core::JobOptions spike_job(const std::string& name, int pods,
                           SimDuration run, const std::string& vni) {
  core::JobOptions o;
  o.name = name;
  o.vni_annotation = vni;
  o.pods = pods;
  o.run_duration = run;
  o.grace_s = 5;
  o.ttl_after_finished_s = 0;
  return o;
}

/// The paper's spike test at 200 jobs: single-pod vni:"true" jobs all
/// submitted at t = 0 on the default 2-node stack.
ControlPlaneEpisode spike_episode(std::uint64_t seed) {
  core::StackConfig cfg;
  cfg.seed = seed;
  core::SlingshotStack stack(cfg);
  ControlPlaneEpisode e;
  record_pods(stack, e);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(stack.submit_job(spike_job("spike-" + std::to_string(i), 1,
                                           from_millis(100), "true"))
                    .is_ok());
  }
  drain_jobs(stack, e);
  return e;
}

/// A fig9-style ramp: batches of 1..6, 6, 6, 5..1 jobs one second apart,
/// alternating vni:"true" and unannotated batches.
ControlPlaneEpisode ramp_episode(std::uint64_t seed) {
  core::StackConfig cfg;
  cfg.seed = seed;
  core::SlingshotStack stack(cfg);
  ControlPlaneEpisode e;
  record_pods(stack, e);
  std::vector<int> batches;
  for (int n = 1; n <= 6; ++n) batches.push_back(n);
  batches.push_back(6);
  batches.push_back(6);
  for (int n = 5; n >= 1; --n) batches.push_back(n);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    stack.loop().schedule_at(
        static_cast<SimTime>(b) * kSecond, [&stack, b, n = batches[b]] {
          for (int i = 0; i < n; ++i) {
            (void)stack.submit_job(spike_job(
                "ramp-" + std::to_string(b) + "-" + std::to_string(i), 1,
                from_millis(100), b % 2 == 0 ? "true" : ""));
          }
        });
  }
  e.events += stack.loop().run_for(from_millis(500));
  drain_jobs(stack, e);
  return e;
}

/// A 4-node spike of 3-pod spread jobs whose scheduler and job controller
/// crash and rebuild from the API server while pods are being created,
/// bound and torn down (lost creates are replaced, lost binds re-placed).
ControlPlaneEpisode restart_episode(std::uint64_t seed) {
  core::StackConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 4;
  core::SlingshotStack stack(cfg);
  ControlPlaneEpisode e;
  record_pods(stack, e);
  for (int i = 0; i < 60; ++i) {
    auto o = spike_job("rs-" + std::to_string(i), 3, 2 * kSecond,
                       i % 3 == 0 ? "" : "true");
    o.spread_key = o.name;
    EXPECT_TRUE(stack.submit_job(o).is_ok());
  }
  // The job controller dies with its first pod creates in flight, the
  // scheduler with binds in flight, then both mid-run.
  e.events += stack.loop().run_for(from_millis(30));
  stack.restart_job_controller();
  e.events += stack.loop().run_for(from_millis(170));
  stack.restart_scheduler();
  e.events += stack.loop().run_for(from_millis(1800));
  stack.restart_scheduler();
  stack.restart_job_controller();
  e.events += stack.loop().run_for(2 * kSecond);
  stack.restart_job_controller();
  drain_jobs(stack, e);
  return e;
}

/// Admission on a fat tree (8 nodes, 2 per leaf, 2 spines) while leaf 1
/// dies and later comes back: the scheduler drains its pods (unstarted
/// ones rebound, started ones evicted) and the job controller replaces
/// the evicted ones.
ControlPlaneEpisode switch_failure_episode(std::uint64_t seed) {
  core::StackConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 8;
  cfg.topology.kind = hsn::TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 2;
  cfg.topology.spines = 2;
  core::SlingshotStack stack(cfg);
  ControlPlaneEpisode e;
  record_pods(stack, e);
  for (int i = 0; i < 30; ++i) {
    auto o = spike_job("sf-" + std::to_string(i), 2, 4 * kSecond, "true");
    o.spread_key = o.name;
    EXPECT_TRUE(stack.submit_job(o).is_ok());
  }
  e.events += stack.loop().run_for(from_millis(1500));
  EXPECT_TRUE(stack.fail_switch(1).is_ok());
  e.events += stack.loop().run_for(from_millis(6500));
  EXPECT_TRUE(stack.restore_switch(1).is_ok());
  drain_jobs(stack, e);
  return e;
}

TEST(ControlPlaneDeterminism, SpikeMatchesPinnedDigests) {
  const auto a = spike_episode(0x5b1e);
  EXPECT_EQ(a.pods.size(), 200u);
  EXPECT_EQ(control_plane_digest(a), 0x804cdbd95ad5be27ULL);
  EXPECT_EQ(a.events, 12308u);
  const auto b = spike_episode(0x5b1f);
  EXPECT_EQ(control_plane_digest(b), 0x31272be1f03b052aULL);
  EXPECT_EQ(b.events, 12591u);
}

TEST(ControlPlaneDeterminism, RampMatchesPinnedDigest) {
  const auto a = ramp_episode(0xf19);
  EXPECT_EQ(a.pods.size(), 48u);
  EXPECT_EQ(control_plane_digest(a), 0x9efc37465f9292d9ULL);
  EXPECT_EQ(a.events, 3312u);
}

TEST(ControlPlaneDeterminism, ControllerRestartsMatchPinnedDigest) {
  const auto a = restart_episode(0x7e57);
  EXPECT_GE(a.pods.size(), 180u);
  EXPECT_EQ(control_plane_digest(a), 0x092b378b9234a52cULL);
  EXPECT_EQ(a.events, 7637u);
}

TEST(ControlPlaneDeterminism, SwitchFailureMatchesPinnedDigest) {
  const auto a = switch_failure_episode(0xfa11);
  // The failure hit live work: pods were drained and replaced.
  EXPECT_GT(a.binds.drained_evicted, 0u);
  EXPECT_GT(a.binds.drained_rebound + a.binds.drained_evicted, 0u);
  EXPECT_GT(a.pods.size(), 60u);
  EXPECT_EQ(control_plane_digest(a), 0x43a72366b1e93af0ULL);
  EXPECT_EQ(a.events, 3251u);
}

}  // namespace
}  // namespace shs::sim
