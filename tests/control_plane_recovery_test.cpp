// control_plane_recovery_test.cpp — control-plane robustness: staggered
// plan publish with epoch fencing, fabric-manager crash/restart recovery
// from the journal at every crash point, the hardware sweep for failures
// injected while the controller was down, the stack watchdog's degraded
// mode, and k8s controller restarts that rebuild from the API server.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/stack.hpp"
#include "db/database.hpp"
#include "hsn/fabric.hpp"

namespace shs::hsn {
namespace {

constexpr Vni kVni = 77;
using CrashPoint = ControlPlaneFaultProfile::CrashPoint;

TimingConfig flat_timing() {
  TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

/// 64 nodes, 4 per switch, 4 switches per group -> 4 groups (16 edge
/// switches).  The (group 0 -> group 1) gateway link is (1, 4).
std::unique_ptr<Fabric> make_dragonfly(std::uint64_t seed = 0xd2a6) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  auto f = Fabric::create(64, flat_timing(), seed, topo);
  for (NicAddr a = 0; a < 64; ++a) {
    EXPECT_TRUE(f->switch_for(a)->authorize_vni(a, kVni).is_ok());
  }
  return f;
}

bool send_one(Fabric& f, NicAddr src, EndpointId src_ep, NicAddr dst,
              EndpointId dst_ep, std::uint64_t tag = 1) {
  return f.nic(src)
      .post_send(src_ep, dst, dst_ep, tag, 4096, {}, /*vt=*/0)
      .is_ok();
}

std::vector<EndpointId> alloc_all(Fabric& f, std::size_t n) {
  std::vector<EndpointId> eps;
  for (NicAddr a = 0; a < n; ++a) {
    eps.push_back(
        f.nic(a).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }
  return eps;
}

/// Routing-state fingerprint: everything a recovered manager must
/// reproduce byte-identically.
struct FabricFingerprint {
  std::uint64_t version;
  std::size_t replans;
  std::uint64_t committed_epoch;
  std::vector<std::uint64_t> applied_epochs;
  std::vector<SwitchId> next_hop;
  std::vector<std::int32_t> min_hops;
  std::vector<std::uint32_t> cand_begin;
  std::vector<SwitchId> cand;

  bool operator==(const FabricFingerprint&) const = default;
};

FabricFingerprint fingerprint(Fabric& f) {
  FabricFingerprint fp;
  const auto plan = f.plan();
  fp.version = plan->version;
  fp.replans = f.manager().replans();
  fp.committed_epoch = f.manager().committed_epoch();
  for (std::size_t s = 0; s < f.switch_count(); ++s) {
    fp.applied_epochs.push_back(f.switch_at(s).applied_epoch());
  }
  fp.next_hop = plan->next_hop;
  fp.min_hops = plan->min_hops;
  fp.cand_begin = plan->cand_begin;
  fp.cand = plan->cand;
  return fp;
}

// ---------------------------------------------------------------------------
// Staggered publish + epoch fencing

TEST(StaggeredPublish, WavesAreDeterministicAndConverge) {
  auto run = [](std::uint64_t seed) {
    auto f = make_dragonfly(seed);
    f->manager().set_publish_stagger(
        {.enabled = true, .max_delay = from_micros(40), .seed = 0xabc});
    EXPECT_TRUE(f->fail_link(1, 4).is_ok());  // auto-repair stages waves
    return f;
  };

  auto f = run(0xd2a6);
  FabricManager& fm = f->manager();
  ASSERT_TRUE(fm.publish_pending());
  EXPECT_EQ(fm.committed_epoch(), 1u);
  EXPECT_GT(fm.pending_publish_count(), 0u);
  const auto delays = fm.pending_publish_delays();
  ASSERT_FALSE(delays.empty());
  for (std::size_t i = 1; i < delays.size(); ++i) {
    EXPECT_LT(delays[i - 1], delays[i]);  // distinct, ascending
  }
  // Same seed, same failure: identical wave schedule.
  auto g = run(0xd2a6);
  EXPECT_EQ(g->manager().pending_publish_delays(), delays);

  // No switch has applied yet; draining wave by wave converges every
  // switch to the committed epoch with monotone progress.
  for (std::size_t s = 0; s < f->switch_count(); ++s) {
    EXPECT_EQ(f->switch_at(s).applied_epoch(), 0u);
  }
  std::size_t waves = 0;
  while (fm.publish_pending()) {
    fm.apply_next_publish_wave();
    ++waves;
    ASSERT_LE(waves, f->switch_count());
  }
  EXPECT_EQ(waves, delays.size());
  for (std::size_t s = 0; s < f->switch_count(); ++s) {
    EXPECT_EQ(f->switch_at(s).applied_epoch(), 1u);
  }
  EXPECT_EQ(fm.pending_publish_count(), 0u);
}

TEST(StaggeredPublish, StaleEpochDropsAreFencedNotSilent) {
  auto f = make_dragonfly();
  auto eps = alloc_all(*f, 64);
  f->manager().set_publish_stagger(
      {.enabled = true, .max_delay = from_micros(40), .seed = 0xabc});

  // The (g0, g1) gateway dies; the repair commits epoch 1 but no switch
  // has applied it yet — the data plane still routes the stale plan.
  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  ASSERT_TRUE(f->manager().publish_pending());

  // g0 -> g1 traffic hits the dead gateway on the stale plan.  Every
  // loss is reclassified as an epoch-curable kStaleEpoch drop: counted,
  // never silent.
  int refused = 0;
  for (NicAddr s = 0; s < 16; ++s) {
    if (!send_one(*f, s, eps[s], s + 16, eps[s + 16], 2)) ++refused;
  }
  const auto window = f->total_counters();
  EXPECT_GT(refused, 0);
  EXPECT_GT(window.dropped_stale_epoch, 0u);
  EXPECT_EQ(window.dropped_stale_epoch,
            static_cast<std::uint64_t>(refused));
  EXPECT_EQ(window.dropped_total(), window.dropped_stale_epoch);
  EXPECT_EQ(window.dropped_link_down, 0u);
  EXPECT_EQ(window.dropped_no_route, 0u);

  // Once every wave lands the same pattern delivers on the detour and
  // the stale-epoch counter freezes.
  f->manager().apply_all_publishes();
  for (NicAddr s = 0; s < 16; ++s) {
    EXPECT_TRUE(send_one(*f, s, eps[s], s + 16, eps[s + 16], 3));
  }
  EXPECT_EQ(f->total_counters().dropped_stale_epoch,
            window.dropped_stale_epoch);
}

TEST(StaggeredPublish, MixedEpochWindowsConserveAndIsolate) {
  auto f = make_dragonfly();
  auto eps = alloc_all(*f, 64);
  f->manager().set_publish_stagger(
      {.enabled = true, .max_delay = from_micros(80), .seed = 0x17});

  // An intruder in group 2 (en route of detours) and a de-authorized
  // destination in group 1: neither may ever pass, whatever epoch mix
  // the fabric is routing under.
  ASSERT_TRUE(f->switch_for(32)->revoke_vni(32, kVni).is_ok());
  ASSERT_TRUE(f->switch_for(17)->revoke_vni(17, kVni).is_ok());

  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  FabricManager& fm = f->manager();
  ASSERT_TRUE(fm.publish_pending());

  auto before = f->total_counters();
  std::uint64_t round = 10;
  while (true) {
    // All-pairs cross-group probe under the current epoch mix.  A loop
    // would exhaust TTL and count as a drop; conservation proves no
    // packet ever vanishes silently.
    int ok = 0, dropped = 0;
    for (NicAddr s = 0; s < 64; ++s) {
      const NicAddr d = (s + 16) % 64;
      if (s == 32 || d == 17) continue;  // probed separately below
      send_one(*f, s, eps[s], d, eps[d], round) ? ++ok : ++dropped;
    }
    const auto now = f->total_counters();
    EXPECT_EQ(now.delivered - before.delivered,
              static_cast<std::uint64_t>(ok));
    EXPECT_EQ(now.dropped_total() - before.dropped_total(),
              static_cast<std::uint64_t>(dropped));

    // Isolation is epoch-independent: enforcement lives at the edges.
    EXPECT_FALSE(send_one(*f, 32, eps[32], 16, eps[16], round + 1));
    EXPECT_FALSE(send_one(*f, 0, eps[0], 17, eps[17], round + 2));
    before = f->total_counters();
    EXPECT_GE(before.dropped_src_unauthorized, 1u);
    EXPECT_GE(before.dropped_dst_unauthorized, 1u);

    if (!fm.publish_pending()) break;
    fm.apply_next_publish_wave();
    round += 10;
  }
  // Fully converged: the cross-group pattern delivers completely
  // (destination 17 stays revoked — that is the point).
  for (NicAddr s = 0; s < 16; ++s) {
    if (s + 16 == 17) continue;
    EXPECT_TRUE(send_one(*f, s, eps[s], s + 16, eps[s + 16], round + 5));
  }
}

// ---------------------------------------------------------------------------
// Crash / restart recovery

TEST(CrashRecovery, EveryCrashPointRecoversByteIdentical) {
  struct Case {
    CrashPoint point;
    std::size_t after_switches;
  };
  const Case cases[] = {
      {CrashPoint::kBeforeJournal, 0}, {CrashPoint::kAfterJournal, 0},
      {CrashPoint::kBeforePublish, 0}, {CrashPoint::kMidPublish, 0},
      {CrashPoint::kMidPublish, 1},    {CrashPoint::kMidPublish, 8},
      {CrashPoint::kMidPublish, 15},   {CrashPoint::kAfterPublish, 0},
  };

  // Control: the uncrashed run.
  auto control = make_dragonfly();
  ASSERT_TRUE(control->fail_link(1, 4).is_ok());
  const FabricFingerprint want = fingerprint(*control);
  ASSERT_EQ(want.version, 1u);

  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.point) * 100 + c.after_switches);
    auto f = make_dragonfly();
    db::Database journal;
    FabricManager& fm = f->manager();
    fm.attach_journal(journal);
    fm.arm_crash({.point = c.point,
                  .publish_after_switches = c.after_switches});

    ASSERT_TRUE(f->fail_link(1, 4).is_ok());  // repair crashes inside
    ASSERT_TRUE(fm.crashed());
    ASSERT_TRUE(fm.restart().is_ok());
    EXPECT_FALSE(fm.crashed());
    EXPECT_EQ(fm.recovered_publishes(), 1u);

    if (c.point == CrashPoint::kBeforeJournal) {
      // The publish intent never reached the journal: restart leaves the
      // repair pending and the next repair converges.
      EXPECT_TRUE(fm.repair_pending());
      fm.repair();
    } else {
      EXPECT_FALSE(fm.repair_pending());
    }
    EXPECT_EQ(fingerprint(*f), want);

    // The recovered plan routes: every g0 -> g1 pair delivers on the
    // detour with zero drops.
    auto eps = alloc_all(*f, 64);
    for (NicAddr s = 0; s < 16; ++s) {
      EXPECT_TRUE(send_one(*f, s, eps[s], s + 16, eps[s + 16], 7));
    }
    EXPECT_EQ(f->total_counters().dropped_total(), 0u);
  }
}

TEST(CrashRecovery, StaggeredHalfPublishedPlanReplaysOnRestart) {
  auto control = make_dragonfly();
  ASSERT_TRUE(control->fail_link(1, 4).is_ok());
  control->manager().repair_if_pending();
  const FabricFingerprint want = fingerprint(*control);

  auto f = make_dragonfly();
  db::Database journal;
  FabricManager& fm = f->manager();
  fm.attach_journal(journal);
  fm.set_publish_stagger(
      {.enabled = true, .max_delay = from_micros(40), .seed = 0xabc});
  fm.arm_crash({.point = CrashPoint::kMidPublish});

  // The waves are staged and the crash fires before any can drain:
  // every switch still routes epoch 0.
  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  ASSERT_TRUE(fm.crashed());
  for (std::size_t s = 0; s < f->switch_count(); ++s) {
    EXPECT_EQ(f->switch_at(s).applied_epoch(), 0u);
  }
  // While crashed the staged waves cannot drain.
  fm.apply_all_publishes();
  EXPECT_EQ(f->switch_at(1).applied_epoch(), 0u);

  // Restart completes the half-published plan instantly on every switch
  // — byte-identical to the uncrashed instant publish.
  ASSERT_TRUE(fm.restart().is_ok());
  EXPECT_EQ(fingerprint(*f), want);
  EXPECT_FALSE(fm.publish_pending());
}

TEST(CrashRecovery, HardwareSweepFindsFailuresInjectedWhileDown) {
  // Control applies both failures the normal way.
  auto control = make_dragonfly();
  ASSERT_TRUE(control->fail_link(1, 4).is_ok());
  ASSERT_TRUE(control->fail_link(0, 1).is_ok());
  const FabricFingerprint want = fingerprint(*control);
  ASSERT_EQ(want.version, 2u);

  auto f = make_dragonfly();
  db::Database journal;
  FabricManager& fm = f->manager();
  fm.attach_journal(journal);
  fm.arm_crash({.point = CrashPoint::kAfterPublish});
  ASSERT_TRUE(f->fail_link(1, 4).is_ok());  // published, then crash
  ASSERT_TRUE(fm.crashed());

  // Dead silicon does not wait for software: the second failure programs
  // the switches while the manager is down (and is never journaled).
  ASSERT_TRUE(f->fail_link(0, 1).is_ok());
  EXPECT_FALSE(f->link_up(0, 1));
  EXPECT_EQ(f->plan()->version, 1u);  // no republishing while crashed

  // Restart sweeps the hardware, finds the unjournaled failure, and the
  // follow-up repair converges to the control state.
  ASSERT_TRUE(fm.restart().is_ok());
  EXPECT_TRUE(fm.repair_pending());
  fm.repair();
  EXPECT_EQ(fingerprint(*f), want);
}

TEST(CrashRecovery, DoubleCrashDoubleRestart) {
  auto control = make_dragonfly();
  ASSERT_TRUE(control->fail_link(1, 4).is_ok());
  ASSERT_TRUE(control->restore_link(1, 4).is_ok());
  const FabricFingerprint want = fingerprint(*control);

  auto f = make_dragonfly();
  db::Database journal;
  FabricManager& fm = f->manager();
  fm.attach_journal(journal);

  fm.arm_crash({.point = CrashPoint::kMidPublish,
                .publish_after_switches = 3});
  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  ASSERT_TRUE(fm.crashed());
  ASSERT_TRUE(fm.restart().is_ok());

  fm.arm_crash({.point = CrashPoint::kAfterJournal});
  ASSERT_TRUE(f->restore_link(1, 4).is_ok());
  ASSERT_TRUE(fm.crashed());
  ASSERT_TRUE(fm.restart().is_ok());

  EXPECT_EQ(fm.recovered_publishes(), 2u);
  EXPECT_EQ(fingerprint(*f), want);
}

TEST(CrashRecovery, RestartWithoutCrashIsRejected) {
  auto f = make_dragonfly();
  EXPECT_EQ(f->manager().restart().code(), Code::kFailedPrecondition);
}

TEST(CrashRecovery, JournalDatabaseCrashRecoversWithManager) {
  auto control = make_dragonfly();
  ASSERT_TRUE(control->fail_link(1, 4).is_ok());
  const FabricFingerprint want = fingerprint(*control);

  auto f = make_dragonfly();
  db::Database journal;
  FabricManager& fm = f->manager();
  fm.attach_journal(journal);
  fm.arm_crash({.point = CrashPoint::kAfterPublish});
  ASSERT_TRUE(f->fail_link(1, 4).is_ok());
  ASSERT_TRUE(fm.crashed());

  // The node hosting the journal loses power too.  restart() recovers
  // the store before replaying it.
  journal.crash_on_commit();
  (void)journal.with_transaction(
      [](db::Transaction& txn) { return txn.commit(); });
  ASSERT_TRUE(journal.crashed());

  ASSERT_TRUE(fm.restart().is_ok());
  EXPECT_FALSE(journal.crashed());
  EXPECT_EQ(fingerprint(*f), want);
}

// ---------------------------------------------------------------------------
// Stack watchdog: degraded mode and automatic restart

TEST(StackWatchdog, CrashEntersDegradedModeAndRecovers) {
  core::StackConfig cfg;
  cfg.nodes = 8;
  cfg.topology.kind = TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 2;
  cfg.topology.spines = 2;
  cfg.fm_reroute_delay = from_millis(1);
  cfg.fm_watchdog = true;
  cfg.fm_watchdog_interval = from_millis(2);
  cfg.publish_stagger = from_micros(50);
  core::SlingshotStack stack(cfg);
  FabricManager& fm = stack.fabric().manager();

  fm.arm_crash({.point = CrashPoint::kAfterJournal});
  ASSERT_TRUE(stack.fail_switch(4).is_ok());
  // The scheduled reroute fires at +1ms and the repair crashes inside.
  stack.run_for(from_millis(1) + from_micros(100));
  ASSERT_TRUE(fm.crashed());

  // Watchdog tick 1 (t=2ms) detects the crash and degrades the NICs;
  // the restart is attempted one backoff interval later (t=4ms).
  stack.run_for(from_millis(1) + from_micros(200));  // past t=2ms only
  EXPECT_TRUE(stack.fabric().nic(0).degraded());
  EXPECT_TRUE(fm.crashed());
  stack.run_for(from_millis(20));
  EXPECT_FALSE(fm.crashed());
  EXPECT_FALSE(stack.fabric().nic(0).degraded());
  EXPECT_EQ(stack.recovered_publishes(), 1u);
  EXPECT_GE(stack.fm_downtime_vt(), cfg.fm_watchdog_interval);

  // The crashed repair was completed after restart: the fabric routes
  // around the dead spine at plan version 1.
  stack.run_for(from_millis(20));  // drain staggered waves
  EXPECT_EQ(stack.published_plan_version(), 1u);
  EXPECT_FALSE(fm.publish_pending());
}

TEST(StackWatchdog, DegradedNicStretchesRetryBudget) {
  auto f = make_dragonfly();
  ReliabilityConfig rel;
  rel.enabled = true;
  rel.max_retries = 3;
  rel.degraded_retry_factor = 2.0;
  f->set_reliability(rel);
  CassiniNic& nic = f->nic(0);

  EXPECT_EQ(nic.retry_budget(DropReason::kLinkDown), 3);
  nic.set_degraded(true);
  // Replan-dependent reasons stretch; pure-loss reasons do not.
  EXPECT_EQ(nic.retry_budget(DropReason::kLinkDown), 6);
  EXPECT_EQ(nic.retry_budget(DropReason::kNoRoute), 6);
  EXPECT_EQ(nic.retry_budget(DropReason::kStaleEpoch), 6);
  EXPECT_EQ(nic.retry_budget(DropReason::kCorrupt), 3);
  nic.set_degraded(false);
  EXPECT_EQ(nic.retry_budget(DropReason::kStaleEpoch), 3);
}

// ---------------------------------------------------------------------------
// k8s controllers: restart and rebuild from the API server

TEST(K8sRestart, ControllersRebuildMidWorkloadWithoutDuplicates) {
  core::StackConfig cfg;
  cfg.nodes = 4;
  core::SlingshotStack stack(cfg);
  auto job = stack.submit_job({.name = "restartable",
                               .pods = 4,
                               .run_duration = 10 * kSecond});
  ASSERT_TRUE(job.is_ok());
  ASSERT_TRUE(stack.wait_job_start(job.value()));

  // Both controllers crash and restart while the job runs.  They rebuild
  // from the API server: tracked state is rediscovered, nothing is
  // created twice.
  stack.restart_scheduler();
  stack.restart_job_controller();
  ASSERT_TRUE(stack.wait_job_complete(job.value()));
  EXPECT_EQ(stack.pods_of_job(job.value()).size(), 4u);
}

TEST(K8sRestart, InFlightPodCreationsLostInCrashAreRecreated) {
  core::StackConfig cfg;
  cfg.nodes = 4;
  core::SlingshotStack stack(cfg);
  auto job = stack.submit_job({.name = "early-crash",
                               .pods = 4,
                               .run_duration = 5 * kSecond});
  ASSERT_TRUE(job.is_ok());

  // Run just far enough for the controller to claim the job (finalizer
  // written, staggered pod creates scheduled) but not for the creates to
  // land — then crash it.  The lost creates die with the incarnation and
  // the rebuilt controller recreates every missing index.
  stack.run_for(from_millis(300));
  stack.restart_job_controller();
  ASSERT_TRUE(stack.wait_job_complete(job.value()));
  EXPECT_EQ(stack.pods_of_job(job.value()).size(), 4u);
}

TEST(K8sRestart, SchedulerRestartLosesInFlightBindsNotPods) {
  core::StackConfig cfg;
  cfg.nodes = 4;
  core::SlingshotStack stack(cfg);
  auto job = stack.submit_job({.name = "rebind",
                               .pods = 4,
                               .run_duration = 5 * kSecond,
                               .spread_key = "rebind"});
  ASSERT_TRUE(job.is_ok());
  // Crash the scheduler repeatedly through the binding window: pods
  // whose bind writes were in flight stay Pending and are re-placed by
  // the next incarnation.
  for (int i = 0; i < 3; ++i) {
    stack.run_for(from_millis(120));
    stack.restart_scheduler();
  }
  ASSERT_TRUE(stack.wait_job_complete(job.value()));
  const auto pods = stack.pods_of_job(job.value());
  ASSERT_EQ(pods.size(), 4u);
  for (const auto& p : pods) {
    EXPECT_EQ(p.status.phase, k8s::PodPhase::kSucceeded);
    EXPECT_FALSE(p.status.node.empty());
  }
}

}  // namespace
}  // namespace shs::hsn
