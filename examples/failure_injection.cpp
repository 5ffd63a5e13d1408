// failure_injection.cpp — operational failure modes of the stack, from
// the control plane (Section III-C: "Jobs annotated with that label will
// therefore only launch successfully if the VNI service is running") to
// the data plane (links and switches die; the fabric manager re-routes).
//
// Control-plane scenarios:
//   1. VNI endpoint outage: annotated jobs stall, plain jobs unaffected,
//      stalled jobs launch once the service returns;
//   2. VNI database crash mid-commit: journal recovery restores exactly
//      the committed state (no VNI lost, none double-allocated);
//   3. pod with an over-long termination grace: rejected outright by the
//      CXI CNI plugin (the 30 s quarantine contract).
// Data-plane scenarios:
//   4. spine switch dies mid-job: in-flight traffic drops during the
//      detection window, the fabric manager republishes repaired routes
//      (re-route latency is measured), traffic resumes over the
//      surviving spine, and restoring the spine returns the fabric to
//      pristine routing;
//   5. a pod's home (leaf) switch dies: the scheduler drains the pod,
//      the job controller replaces it, and the replacement lands on a
//      healthy leaf;
//   6. the fabric manager itself crashes mid-repair: the stack watchdog
//      detects the outage, degrades the NIC retry budgets, restarts the
//      controller from its journal, and the repaired plan republishes
//      per-switch with stagger (stale-epoch losses fenced, not silent).
//
//   $ ./build/examples/failure_injection
#include <cstdio>

#include "core/stack.hpp"
#include "util/log.hpp"

using namespace shs;

namespace {

/// Per-reason drop breakdown of the fabric's accounting, labeled with
/// the stable drop_reason_name() strings — the audit trail that shows
/// every lost packet was counted under exactly one reason (plus the
/// NIC-side RX-overflow backpressure counter, which lives on the NICs
/// rather than the switches).
void print_drop_breakdown(core::SlingshotStack& stack) {
  const auto t = stack.fabric().total_counters();
  const struct {
    hsn::DropReason reason;
    std::uint64_t count;
  } rows[] = {
      {hsn::DropReason::kSrcNotAuthorized, t.dropped_src_unauthorized},
      {hsn::DropReason::kDstNotAuthorized, t.dropped_dst_unauthorized},
      {hsn::DropReason::kUnknownDestination, t.dropped_unknown_dst},
      {hsn::DropReason::kNoRoute, t.dropped_no_route},
      {hsn::DropReason::kLinkDown, t.dropped_link_down},
      {hsn::DropReason::kLossInjected, t.dropped_loss},
      {hsn::DropReason::kCorrupt, t.dropped_corrupt},
      {hsn::DropReason::kStaleEpoch, t.dropped_stale_epoch},
      {hsn::DropReason::kAckLost, t.ack_lost},
      {hsn::DropReason::kRxOverflow, stack.fabric().total_rx_overflow()},
  };
  std::printf("    drop breakdown (%llu switch drops, %llu delivered):\n",
              static_cast<unsigned long long>(t.dropped_total()),
              static_cast<unsigned long long>(t.delivered));
  std::uint64_t sum = 0;
  for (const auto& row : rows) {
    // Lost ACKs and RX-ring overflows are accounted outside the switch
    // drop total (the payload was delivered / the drop is NIC-side).
    if (row.reason != hsn::DropReason::kAckLost &&
        row.reason != hsn::DropReason::kRxOverflow) {
      sum += row.count;
    }
    if (row.count == 0) continue;
    std::printf("      %-16s %llu\n", hsn::drop_reason_name(row.reason),
                static_cast<unsigned long long>(row.count));
  }
  std::printf("    breakdown audit: reasons sum to dropped_total: %s\n",
              sum == t.dropped_total() ? "yes" : "NO (unaccounted loss!)");
}

/// Edge switch of a pod's node (kInvalidSwitch when unbound).
hsn::SwitchId pod_switch(core::SlingshotStack& stack, const k8s::Pod& pod) {
  for (std::size_t i = 0; i < stack.node_count(); ++i) {
    if (stack.node(i).name == pod.status.node) {
      return stack.fabric().home_switch(stack.node(i).nic);
    }
  }
  return hsn::kInvalidSwitch;
}

void data_plane_scenarios() {
  // 8 nodes, 2 per leaf -> 4 leaves (switches 0-3) under 2 spines (4-5).
  core::StackConfig cfg;
  cfg.nodes = 8;
  cfg.topology.kind = hsn::TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 2;
  cfg.topology.spines = 2;
  core::SlingshotStack stack(cfg);

  // A 4-pod spread job: topology spread fills two leaves, so two pods
  // are guaranteed to sit on different switches — cross-spine traffic.
  auto job = stack.submit_job({.name = "mpi-ranks",
                               .vni_annotation = "true",
                               .pods = 4,
                               .run_duration = 3600 * kSecond,
                               .spread_key = "ranks"});
  if (!job.is_ok() ||
      !stack.run_until(
          [&] {
            int running = 0;
            for (const auto& p : stack.pods_of_job(job.value())) {
              if (p.status.phase == k8s::PodPhase::kRunning) ++running;
            }
            return running == 4;
          },
          120 * kSecond)) {
    std::printf("[4] SKIPPED: the 4-pod job never came up\n");
    return;
  }

  // Pick two ranks on different leaves.
  auto pods = stack.pods_of_job(job.value());
  std::size_t a = 0;
  std::size_t b = 1;
  for (std::size_t i = 1; i < pods.size(); ++i) {
    if (pod_switch(stack, pods[i]) != pod_switch(stack, pods[a])) b = i;
  }
  const hsn::SwitchId leaf_a = pod_switch(stack, pods[a]);
  const hsn::SwitchId leaf_b = pod_switch(stack, pods[b]);
  if (leaf_a == hsn::kInvalidSwitch || leaf_b == hsn::kInvalidSwitch ||
      leaf_a == leaf_b) {
    std::printf("[4] SKIPPED: no cross-leaf pod pair to drive\n");
    return;
  }

  // -- 4. Spine death mid-job. ----------------------------------------------
  std::printf("[4] killing the spine carrying leaf %u -> leaf %u traffic "
              "mid-job...\n", leaf_a, leaf_b);
  auto ha = stack.exec_in_pod(pods[a].meta.uid).value();
  auto hb = stack.exec_in_pod(pods[b].meta.uid).value();
  auto dom_a = stack.domain_for(ha).value();
  auto dom_b = stack.domain_for(hb).value();
  auto ep_a = dom_a.open_endpoint(pods[a].status.vni).value();
  auto ep_b = dom_b.open_endpoint(pods[b].status.vni).value();

  const auto send_once = [&](std::uint64_t tag) {
    return ep_a->tsend(ep_b->addr(), tag, {}, 64 * 1024,
                       stack.loop().now());
  };
  std::printf("    healthy send:  %s\n",
              send_once(1).status().to_string().c_str());

  const hsn::SwitchId spine =
      stack.fabric().plan()->next(leaf_a, leaf_b);
  (void)stack.fail_switch(spine);
  std::printf("    spine %u FAILED; send in the detection window: %s\n",
              spine, send_once(2).status().to_string().c_str());

  stack.run_for(cfg.fm_reroute_delay * 2);  // fabric manager reacts
  std::printf("    re-route completed in %.0f us (virtual); send after "
              "re-route: %s\n",
              to_micros(stack.last_reroute_latency()),
              send_once(3).status().to_string().c_str());

  (void)stack.restore_switch(spine);
  stack.run_for(cfg.fm_reroute_delay * 2);
  std::printf("    spine restored (plan v%llu, %zu re-routes measured); "
              "send: %s\n",
              static_cast<unsigned long long>(
                  stack.fabric().plan()->version),
              stack.reroute_events(),
              send_once(4).status().to_string().c_str());
  const auto dropped =
      stack.fabric().total_counters().dropped_link_down;
  std::printf("    packets lost to the failure window: %llu\n",
              static_cast<unsigned long long>(dropped));
  print_drop_breakdown(stack);
  std::printf("\n");

  // -- 5. Leaf death: drain and reschedule. ---------------------------------
  std::printf("[5] killing leaf %u (home of pod %s)...\n", leaf_a,
              pods[a].meta.name.c_str());
  (void)stack.fail_switch(leaf_a);
  const bool rescheduled = stack.run_until(
      [&] {
        int healthy_running = 0;
        for (const auto& p : stack.pods_of_job(job.value())) {
          if (p.status.phase == k8s::PodPhase::kRunning &&
              !p.meta.deletion_requested &&
              pod_switch(stack, p) != leaf_a) {
            ++healthy_running;
          }
        }
        return healthy_running == 4;
      },
      300 * kSecond);
  const auto telemetry = stack.scheduler().bind_telemetry();
  std::printf("    drained %zu pod(s) (%zu evicted), all 4 ranks running "
              "on healthy leaves: %s\n",
              telemetry.drained_total(), telemetry.drained_evicted,
              rescheduled ? "yes" : "NO");
  (void)stack.restore_switch(leaf_a);
  stack.run_for(cfg.fm_reroute_delay * 2);
  std::printf("    leaf restored; fabric healthy again\n");
  print_drop_breakdown(stack);
}

// -- 6. Fabric-manager crash: watchdog detection, degraded routing, ---------
//       journal-replay restart, staggered republish.
void control_plane_crash_scenario() {
  core::StackConfig cfg;
  cfg.nodes = 8;
  cfg.topology.kind = hsn::TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 2;
  cfg.topology.spines = 2;
  cfg.fm_reroute_delay = from_millis(1);
  cfg.fm_watchdog = true;
  cfg.fm_watchdog_interval = from_millis(2);
  cfg.publish_stagger = from_micros(50);
  core::SlingshotStack stack(cfg);
  hsn::FabricManager& fm = stack.fabric().manager();

  std::printf("[6] crashing the fabric manager mid-repair (after the "
              "journal write)...\n");
  fm.arm_crash({.point =
                    hsn::ControlPlaneFaultProfile::CrashPoint::kAfterJournal});
  (void)stack.fail_switch(4);  // spine death triggers the doomed repair
  stack.run_for(cfg.fm_reroute_delay + from_micros(100));
  std::printf("    controller crashed: %s — switches keep routing the "
              "last-applied epoch\n", fm.crashed() ? "yes" : "NO");

  stack.run_for(from_millis(1) + from_micros(200));  // watchdog tick 1
  std::printf("    watchdog detected the outage; NICs degraded (stretched "
              "retry budgets): %s\n",
              stack.fabric().nic(0).degraded() ? "yes" : "NO");

  stack.run_for(from_millis(40));  // restart + staggered waves drain
  std::printf("    restarted from the journal: crashed=%s degraded=%s\n",
              fm.crashed() ? "yes" : "no",
              stack.fabric().nic(0).degraded() ? "yes" : "no");
  std::printf("    recovery metrics: fm_downtime %.0f us (virtual), "
              "recovered publishes %zu, stale-epoch drops %llu, "
              "plan v%llu\n",
              to_micros(stack.fm_downtime_vt()),
              stack.recovered_publishes(),
              static_cast<unsigned long long>(stack.stale_epoch_drops()),
              static_cast<unsigned long long>(
                  stack.published_plan_version()));
  print_drop_breakdown(stack);
}

}  // namespace

int main() {
  Log::set_level(LogLevel::kError);
  std::printf("== failure injection: VNI service outage, DB crash, bad "
              "grace,\n   spine/leaf death + fabric-manager re-routing "
              "==\n\n");

  core::SlingshotStack stack;

  // -- 1. Endpoint outage. --------------------------------------------------
  std::printf("[1] taking the VNI endpoint DOWN, submitting two jobs...\n");
  stack.set_vni_endpoint_available(false);
  auto vni_job = stack.submit_job({.name = "needs-vni",
                                   .vni_annotation = "true",
                                   .pods = 1,
                                   .run_duration = 30 * kSecond});
  auto plain_job = stack.submit_job({.name = "plain",
                                     .pods = 1,
                                     .run_duration = from_millis(100)});
  const bool plain_done =
      stack.wait_job_complete(plain_job.value(), 60 * kSecond);
  const bool vni_started =
      stack.wait_job_start(vni_job.value(), 5 * kSecond);
  std::printf("    plain job completed: %s   annotated job started: %s\n",
              plain_done ? "yes" : "NO", vni_started ? "YES (bug!)" : "no");

  std::printf("    bringing the endpoint back UP...\n");
  stack.set_vni_endpoint_available(true);
  const bool recovered = stack.wait_job_start(vni_job.value(), 60 * kSecond);
  std::printf("    annotated job started after recovery: %s\n\n",
              recovered ? "yes" : "NO");

  // -- 2. Database crash mid-commit. ----------------------------------------
  std::printf("[2] crashing the VNI database mid-commit...\n");
  const std::size_t allocated_before = stack.registry().allocated_count();
  stack.database().crash_on_commit();
  // The next acquisition journals, then "loses power" halfway through.
  auto crashed = stack.registry().acquire("job/crash-victim",
                                          stack.loop().now());
  std::printf("    acquisition during crash: %s\n",
              crashed.status().to_string().c_str());
  std::printf("    database crashed: %s\n",
              stack.database().crashed() ? "yes" : "no");
  const Status rec = stack.database().recover();
  std::printf("    recovery: %s — journal replayed %zu commits\n",
              rec.to_string().c_str(), stack.database().journal_commits());
  // The journaled acquisition survived the crash atomically.
  auto survived = stack.registry().find_by_owner("job/crash-victim");
  std::printf("    crash-victim's VNI after recovery: %s (allocated: "
              "%zu -> %zu)\n",
              survived.is_ok() ? "present (journaled before the crash)"
                               : "absent",
              allocated_before, stack.registry().allocated_count());
  // Exclusivity still holds: a fresh acquire gets a different VNI.
  auto fresh = stack.registry().acquire("job/after-crash",
                                        stack.loop().now());
  std::printf("    post-recovery acquire: VNI %u (distinct: %s)\n\n",
              fresh.value_or(0),
              (survived.is_ok() && fresh.is_ok() &&
               fresh.value() != survived.value())
                  ? "yes"
                  : "n/a");

  // -- 3. Grace-period violation. --------------------------------------------
  std::printf("[3] submitting a VNI job with terminationGracePeriod=120s "
              "(> 30 s cap)...\n");
  auto greedy = stack.submit_job({.name = "greedy-grace",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .grace_s = 120});
  stack.run_until(
      [&] {
        const auto pods = stack.pods_of_job(greedy.value());
        return !pods.empty() &&
               pods.front().status.phase == k8s::PodPhase::kFailed;
      },
      60 * kSecond);
  for (const auto& pod : stack.pods_of_job(greedy.value())) {
    std::printf("    pod %s: %s — %s\n", pod.meta.name.c_str(),
                k8s::pod_phase_name(pod.status.phase),
                pod.status.message.c_str());
  }
  // -- 4 & 5. Data-plane failures on a multi-switch fabric. -----------------
  data_plane_scenarios();
  std::printf("\n");

  // -- 6. Control-plane crash, watchdog recovery. ---------------------------
  control_plane_crash_scenario();

  std::printf("\nAll failure modes degrade exactly as the design "
              "requires.\n");
  return 0;
}
