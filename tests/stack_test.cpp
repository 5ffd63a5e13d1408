// stack_test.cpp — SlingshotStack facade: configuration propagation,
// submission validation, wait helpers, pod process access, multi-node
// clusters, and teardown hygiene.
#include <gtest/gtest.h>

#include "core/stack.hpp"

namespace shs::core {
namespace {

TEST(StackConfigTest, DefaultsMatchPaperDeployment) {
  SlingshotStack stack;
  EXPECT_EQ(stack.node_count(), 2u);  // two OpenCUBE nodes
  EXPECT_EQ(stack.config().auth_mode, cxi::AuthMode::kNetnsExtended);
  EXPECT_EQ(to_seconds(stack.config().vni.quarantine), 30.0);
  EXPECT_EQ(stack.fabric().node_count(), 2u);
  EXPECT_EQ(stack.fabric().switch_at(0).connected_ports(), 2u);
  // Enforcement on by default.
  EXPECT_TRUE(stack.fabric().switch_at(0).enforcement());
}

TEST(StackConfigTest, FourNodeCluster) {
  StackConfig cfg;
  cfg.nodes = 4;
  SlingshotStack stack(cfg);
  EXPECT_EQ(stack.node_count(), 4u);
  // A 4-pod spread job lands one pod per node.
  auto job = stack.submit_job({.name = "wide",
                               .vni_annotation = "true",
                               .pods = 4,
                               .run_duration = 30 * kSecond,
                               .spread_key = "wide"});
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
  std::set<std::string> nodes;
  for (const auto& p : stack.pods_of_job(job.value())) {
    nodes.insert(p.status.node);
  }
  EXPECT_EQ(nodes.size(), 4u);
}

TEST(StackConfigTest, DataPlaneThreadsWiresShardEngine) {
  // Default stays on the legacy synchronous data plane.
  SlingshotStack legacy;
  EXPECT_EQ(legacy.shard_engine(), nullptr);

  StackConfig cfg;
  cfg.nodes = 4;
  cfg.data_plane_threads = 2;
  SlingshotStack sharded(cfg);
  ASSERT_NE(sharded.shard_engine(), nullptr);
  EXPECT_EQ(sharded.shard_engine()->threads(), 2);
  EXPECT_GE(sharded.shard_engine()->domain_count(), 1u);

  // Engine perf counters surface through the stack-metrics API (all
  // zeros before any flush, and on the legacy stack).
  EXPECT_EQ(legacy.data_plane_stats().flushes, 0u);
  const auto stats = sharded.data_plane_stats();
  EXPECT_EQ(stats.flushes, 0u);
  EXPECT_EQ(stats.items_stepped, 0u);
  EXPECT_EQ(stats.pool_hit_rate(), 0.0);
}

// An idle cluster costs the same loop work at any size: the kubelets
// share one sync round that visits only nodes with pending pods, so no
// per-node timer ticks.
TEST(StackConfigTest, IdleLoopWorkIsFlatInNodeCount) {
  auto idle_stack = [](std::size_t nodes) {
    StackConfig cfg;
    cfg.nodes = nodes;
    cfg.topology.kind = hsn::TopologyKind::kDragonfly;
    cfg.topology.nodes_per_switch = 4;
    cfg.topology.switches_per_group = 4;
    return std::make_unique<SlingshotStack>(cfg);
  };
  auto small = idle_stack(2);
  auto large = idle_stack(1024);
  ASSERT_EQ(large->node_count(), 1024u);
  EXPECT_EQ(large->loop().pending(), small->loop().pending());
  const std::size_t small_events = small->loop().run_for(10 * kSecond);
  EXPECT_GT(small_events, 0u);
  EXPECT_EQ(large->loop().run_for(10 * kSecond), small_events);
}

TEST(StackSubmitTest, RejectsNamelessJob) {
  SlingshotStack stack;
  EXPECT_EQ(stack.submit_job({}).code(), Code::kInvalidArgument);
}

TEST(StackSubmitTest, RejectsDuplicateNameInNamespace) {
  SlingshotStack stack;
  ASSERT_TRUE(stack.submit_job({.name = "dup"}).is_ok());
  EXPECT_EQ(stack.submit_job({.name = "dup"}).code(),
            Code::kAlreadyExists);
  EXPECT_TRUE(
      stack.submit_job({.name = "dup", .ns = "other"}).is_ok());
}

TEST(StackWaitTest, WaitJobStartTimesOutForUnstartableJob) {
  SlingshotStack stack;
  auto job = stack.submit_job({.name = "stuck",
                               .vni_annotation = "no-such-claim"});
  ASSERT_TRUE(job.is_ok());
  EXPECT_FALSE(stack.wait_job_start(job.value(), 5 * kSecond));
}

TEST(StackWaitTest, RunUntilEvaluatesPredicate) {
  SlingshotStack stack;
  int calls = 0;
  EXPECT_TRUE(stack.run_until(
      [&] {
        ++calls;
        return stack.loop().now() >= 2 * kSecond;
      },
      10 * kSecond));
  EXPECT_GT(calls, 1);
  EXPECT_LT(to_seconds(stack.loop().now()), 3.0);
}

TEST(StackPodAccessTest, ExecInPodErrors) {
  SlingshotStack stack;
  EXPECT_EQ(stack.exec_in_pod(424242).code(), Code::kNotFound);
  // Unscheduled pod: submit and query immediately, before binding.
  auto job = stack.submit_job({.name = "early"});
  ASSERT_TRUE(job.is_ok());
  stack.run_for(from_millis(50));  // pods created but likely unbound
  for (const auto& pod : stack.pods_of_job(job.value())) {
    if (pod.status.node.empty()) {
      EXPECT_EQ(stack.exec_in_pod(pod.meta.uid).code(),
                Code::kFailedPrecondition);
    }
  }
}

TEST(StackPodAccessTest, DomainForBadHandle) {
  SlingshotStack stack;
  SlingshotStack::PodHandle bogus;
  bogus.node_index = 99;
  EXPECT_EQ(stack.domain_for(bogus).code(), Code::kInvalidArgument);
}

TEST(StackPodAccessTest, ExecProcessesShareThePodNamespace) {
  SlingshotStack stack;
  auto job = stack.submit_job({.name = "ns-share",
                               .vni_annotation = "true",
                               .pods = 1,
                               .run_duration = 30 * kSecond});
  ASSERT_TRUE(stack.wait_job_start(job.value()));
  const auto pod = stack.pods_of_job(job.value()).front();
  auto h1 = stack.exec_in_pod(pod.meta.uid).value();
  auto h2 = stack.exec_in_pod(pod.meta.uid).value();
  EXPECT_NE(h1.pid, h2.pid);
  auto& kernel = *stack.node(h1.node_index).kernel;
  EXPECT_EQ(kernel.proc_net_ns_inode(h1.pid).value(),
            kernel.proc_net_ns_inode(h2.pid).value());
  // Both can open endpoints on the pod's VNI.
  auto d1 = stack.domain_for(h1).value();
  auto d2 = stack.domain_for(h2).value();
  EXPECT_TRUE(d1.open_endpoint(pod.status.vni).is_ok());
  EXPECT_TRUE(d2.open_endpoint(pod.status.vni).is_ok());
}

TEST(StackCniToggleTest, WithoutCxiCniAnnotatedJobsCannotStart) {
  StackConfig cfg;
  cfg.install_cxi_cni = false;  // stock cluster, no integration
  SlingshotStack stack(cfg);
  auto plain = stack.submit_job({.name = "plain",
                                 .run_duration = from_millis(50)});
  auto vni_job = stack.submit_job({.name = "wants-vni",
                                   .vni_annotation = "true",
                                   .run_duration = from_millis(50)});
  ASSERT_TRUE(plain.is_ok());
  ASSERT_TRUE(vni_job.is_ok());
  EXPECT_TRUE(stack.wait_job_complete(plain.value(), 60 * kSecond));
  // Without the plugin nobody creates CXI services; pods launch but get
  // no VNI wired, so the job's pods run with vni == kInvalidVni.
  ASSERT_TRUE(stack.wait_job_start(vni_job.value(), 60 * kSecond));
  for (const auto& pod : stack.pods_of_job(vni_job.value())) {
    EXPECT_EQ(pod.status.vni, hsn::kInvalidVni)
        << "no plugin -> no container-granular VNI access";
  }
}

TEST(StackLifecycleTest, ManySequentialJobsRecycleVnisAfterQuarantine) {
  StackConfig cfg;
  cfg.vni.vni_min = 2000;
  cfg.vni.vni_max = 2002;  // pool of 3
  cfg.vni.quarantine = 2 * kSecond;
  SlingshotStack stack(cfg);
  for (int i = 0; i < 6; ++i) {
    auto job = stack.submit_job({.name = "cycle-" + std::to_string(i),
                                 .vni_annotation = "true",
                                 .pods = 1,
                                 .run_duration = from_millis(100),
                                 .ttl_after_finished_s = 0});
    ASSERT_TRUE(job.is_ok());
    ASSERT_TRUE(stack.wait_job_gone(job.value(), 120 * kSecond))
        << "job " << i;
    // Give the quarantine a chance to expire between jobs.
    stack.run_for(3 * kSecond);
  }
  EXPECT_EQ(stack.registry().allocated_count(), 0u);
}

TEST(StackRerouteTest, ReroutePublishesNewPlan) {
  // A stack-level failure injection must end with the fabric manager
  // publishing a new plan version after fm_reroute_delay.
  StackConfig cfg;
  cfg.nodes = 32;
  cfg.topology.kind = hsn::TopologyKind::kFatTree;
  cfg.topology.nodes_per_switch = 8;
  cfg.topology.spines = 4;
  SlingshotStack stack(cfg);
  EXPECT_EQ(stack.published_plan_version(), 0u);
  ASSERT_TRUE(stack.fail_link(0, 4).is_ok());  // leaf 0 -> spine 0
  EXPECT_EQ(stack.published_plan_version(), 0u);  // loss window still open
  stack.run_for(4 * cfg.fm_reroute_delay);
  EXPECT_EQ(stack.published_plan_version(), 1u);
  EXPECT_EQ(stack.reroute_events(), 1u);
  ASSERT_TRUE(stack.restore_link(0, 4).is_ok());
  stack.run_for(4 * cfg.fm_reroute_delay);
  EXPECT_EQ(stack.published_plan_version(), 2u);
}

TEST(StackCountersTest, CxiCniCountsMatchPods) {
  SlingshotStack stack;
  auto job = stack.submit_job({.name = "counted",
                               .vni_annotation = "true",
                               .pods = 2,
                               .run_duration = from_millis(100),
                               .ttl_after_finished_s = 0,
                               .spread_key = "counted"});
  ASSERT_TRUE(job.is_ok());
  ASSERT_TRUE(stack.wait_job_gone(job.value(), 120 * kSecond));
  std::uint64_t created = 0;
  std::uint64_t destroyed = 0;
  for (std::size_t i = 0; i < stack.node_count(); ++i) {
    created += stack.node(i).cxi_cni->counters().services_created;
    destroyed += stack.node(i).cxi_cni->counters().services_destroyed;
  }
  EXPECT_EQ(created, 2u);
  EXPECT_EQ(destroyed, 2u);
}

}  // namespace
}  // namespace shs::core
