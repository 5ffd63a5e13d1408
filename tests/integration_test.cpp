// integration_test.cpp — end-to-end scenarios through the whole stack:
// Kubernetes job with vni annotation -> VNI controller -> CXI CNI plugin
// -> netns-member CXI service -> authenticated RDMA endpoints -> switch-
// enforced isolation.  Plus the failure modes the paper calls out.
#include <gtest/gtest.h>

#include "core/drc.hpp"
#include "core/stack.hpp"
#include "osu/osu.hpp"

namespace shs::core {
namespace {

using k8s::PodPhase;

struct StackFixture : ::testing::Test {
  StackFixture() : stack(StackConfig{}) {}

  /// Submits a job and waits until it is running; returns its uid.
  k8s::Uid running_job(const JobOptions& options) {
    auto job = stack.submit_job(options);
    EXPECT_TRUE(job.is_ok());
    EXPECT_TRUE(stack.wait_job_start(job.value())) << options.name;
    return job.value();
  }

  /// First running pod of a job.
  k8s::Pod running_pod(k8s::Uid job) {
    for (const auto& pod : stack.pods_of_job(job)) {
      if (pod.status.phase == PodPhase::kRunning) return pod;
    }
    ADD_FAILURE() << "no running pod";
    return {};
  }

  SlingshotStack stack;
};

TEST_F(StackFixture, VniTrueJobGetsIsolatedVni) {
  const auto job = running_job({.name = "solver",
                                .vni_annotation = "true",
                                .pods = 2,
                                .run_duration = 20 * kSecond,
                                .spread_key = "solver"});
  const auto pods = stack.pods_of_job(job);
  ASSERT_EQ(pods.size(), 2u);
  const hsn::Vni vni = pods[0].status.vni;
  EXPECT_GE(vni, stack.config().vni.vni_min);
  EXPECT_EQ(pods[0].status.vni, pods[1].status.vni)
      << "both pods of one job share the job's VNI";
  EXPECT_NE(pods[0].status.node, pods[1].status.node);
  // The VNI CRD instance exists and is owned by the job.
  const auto vni_objects = stack.api().list_vni_objects();
  ASSERT_EQ(vni_objects.size(), 1u);
  EXPECT_EQ(vni_objects[0].vni, vni);
  EXPECT_EQ(vni_objects[0].bound_uid, job);
  EXPECT_FALSE(vni_objects[0].virtual_instance);
}

TEST_F(StackFixture, PodProcessAllocatesEndpointOnItsVni) {
  const auto job = running_job({.name = "rdma-app",
                                .vni_annotation = "true",
                                .pods = 1,
                                .run_duration = 20 * kSecond});
  const auto pod = running_pod(job);
  auto handle = stack.exec_in_pod(pod.meta.uid);
  ASSERT_TRUE(handle.is_ok());
  auto dom = stack.domain_for(handle.value());
  ASSERT_TRUE(dom.is_ok());
  auto ep = dom.value().open_endpoint(pod.status.vni);
  ASSERT_TRUE(ep.is_ok()) << "netns member must admit the pod process";
  EXPECT_EQ(ep.value()->vni(), pod.status.vni);
}

TEST_F(StackFixture, OtherJobsVniIsDenied) {
  const auto job_a = running_job({.name = "tenant-a",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .run_duration = 30 * kSecond});
  const auto job_b = running_job({.name = "tenant-b",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .run_duration = 30 * kSecond});
  const auto pod_a = running_pod(job_a);
  const auto pod_b = running_pod(job_b);
  ASSERT_NE(pod_a.status.vni, pod_b.status.vni);

  auto handle_a = stack.exec_in_pod(pod_a.meta.uid);
  auto dom_a = stack.domain_for(handle_a.value());
  // Tenant A cannot allocate an endpoint on tenant B's VNI: no CXI
  // service on A's node admits A's netns for that VNI.
  EXPECT_EQ(dom_a.value().open_endpoint(pod_b.status.vni).code(),
            Code::kPermissionDenied);
}

TEST_F(StackFixture, CrossVniTrafficNeverDelivers) {
  // Two single-pod jobs, one per node (spread via distinct keys is not
  // needed: scheduler balances), each with its own VNI.
  const auto job_a = running_job({.name = "iso-a",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .run_duration = 30 * kSecond});
  const auto job_b = running_job({.name = "iso-b",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .run_duration = 30 * kSecond});
  const auto pod_a = running_pod(job_a);
  const auto pod_b = running_pod(job_b);

  auto ha = stack.exec_in_pod(pod_a.meta.uid).value();
  auto hb = stack.exec_in_pod(pod_b.meta.uid).value();
  auto dom_a = stack.domain_for(ha).value();
  auto dom_b = stack.domain_for(hb).value();
  auto ep_a = dom_a.open_endpoint(pod_a.status.vni).value();
  auto ep_b = dom_b.open_endpoint(pod_b.status.vni).value();

  // A sends to B's endpoint address on A's own VNI.
  const auto st = ep_a->tsend(ep_b->addr(), 1, {}, 64, 0);
  if (pod_a.status.node == pod_b.status.node) {
    // Same node: the switch port holds both VNIs, so the packet routes,
    // but the NIC rejects the VNI mismatch at B's endpoint.
    EXPECT_TRUE(st.is_ok());
    EXPECT_GT(stack.fabric().nic(stack.node(ha.node_index).nic)
                  .counters().rx_vni_mismatch,
              0u);
  } else {
    // Distinct nodes: B's port is not authorized for A's VNI — the
    // Rosetta switch drops the packet outright.
    EXPECT_EQ(st.code(), Code::kPermissionDenied);
  }
  // Either way: nothing arrives.
  EXPECT_EQ(ep_b->trecv_sync(1, {}).code(), Code::kTimeout);
}

TEST_F(StackFixture, SameJobPodsCommunicateViaOsu) {
  const auto job = running_job({.name = "osu-pair",
                                .vni_annotation = "true",
                                .pods = 2,
                                .run_duration = 60 * kSecond,
                                .spread_key = "osu"});
  const auto pods = stack.pods_of_job(job);
  auto h0 = stack.exec_in_pod(pods[0].meta.uid).value();
  auto h1 = stack.exec_in_pod(pods[1].meta.uid).value();
  auto dom0 = stack.domain_for(h0).value();
  auto dom1 = stack.domain_for(h1).value();
  auto ep0 = dom0.open_endpoint(pods[0].status.vni).value();
  auto ep1 = dom1.open_endpoint(pods[1].status.vni).value();
  auto comm = mpi::Communicator::create({ep0.get(), ep1.get()});

  osu::LatencyOptions opts;
  opts.iterations = 100;
  auto lat = osu::run_osu_latency(*comm, 8, opts);
  ASSERT_TRUE(lat.is_ok());
  EXPECT_GT(lat.value(), 1.0);
  EXPECT_LT(lat.value(), 4.0);
}

TEST_F(StackFixture, UidSpoofAttackBlockedEndToEnd) {
  // The paper's motivating attack, at full-stack level: a process in pod
  // B setuid()s inside its user namespace and tries to use pod A's VNI.
  const auto job_a = running_job({.name = "victim",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .run_duration = 30 * kSecond});
  const auto job_b = running_job({.name = "attacker",
                                  .vni_annotation = "true",
                                  .pods = 1,
                                  .run_duration = 30 * kSecond});
  const auto victim = running_pod(job_a);
  const auto attacker_pod = running_pod(job_b);

  auto hb = stack.exec_in_pod(attacker_pod.meta.uid).value();
  auto& node = stack.node(hb.node_index);
  // The attacker may assume any mapped UID inside its user namespace...
  ASSERT_TRUE(node.kernel->setuid(hb.pid, 0).is_ok());
  // ...but endpoint allocation authenticates by netns inode, which the
  // attacker cannot change: the victim's VNI stays out of reach.
  auto dom = stack.domain_for(hb).value();
  EXPECT_EQ(dom.open_endpoint(victim.status.vni).code(),
            Code::kPermissionDenied);
}

TEST_F(StackFixture, JobDeletionReleasesVniIntoQuarantine) {
  const auto job = running_job({.name = "short",
                                .vni_annotation = "true",
                                .pods = 1,
                                .run_duration = 30 * kSecond});
  const auto vni = running_pod(job).status.vni;
  EXPECT_EQ(stack.registry().allocated_count(), 1u);
  ASSERT_TRUE(stack.delete_job(job).is_ok());
  ASSERT_TRUE(stack.wait_job_gone(job));
  EXPECT_EQ(stack.registry().allocated_count(), 0u);
  EXPECT_EQ(stack.registry().quarantined_count(stack.loop().now()), 1u);
  // CXI services for the pod are destroyed (CNI DEL ran everywhere).
  for (std::size_t i = 0; i < stack.node_count(); ++i) {
    for (const auto& svc : stack.node(i).driver->svc_list()) {
      EXPECT_TRUE(svc.vnis.empty() || svc.vnis.front() != vni)
          << "no service must still reference the released VNI";
    }
  }
  // A fresh job gets a DIFFERENT VNI while the old one is quarantined.
  const auto job2 = running_job({.name = "next",
                                 .vni_annotation = "true",
                                 .pods = 1,
                                 .run_duration = 30 * kSecond});
  EXPECT_NE(running_pod(job2).status.vni, vni);
}

TEST_F(StackFixture, VniClaimSharedAcrossJobs) {
  auto claim = stack.create_claim("default", "team-claim");
  ASSERT_TRUE(claim.is_ok());
  const auto job1 = running_job({.name = "producer",
                                 .vni_annotation = "team-claim",
                                 .pods = 1,
                                 .run_duration = 60 * kSecond});
  const auto job2 = running_job({.name = "consumer",
                                 .vni_annotation = "team-claim",
                                 .pods = 1,
                                 .run_duration = 60 * kSecond});
  const auto pod1 = running_pod(job1);
  const auto pod2 = running_pod(job2);
  ASSERT_EQ(pod1.status.vni, pod2.status.vni)
      << "jobs redeeming one claim share its VNI";

  // And they can actually communicate.
  auto h1 = stack.exec_in_pod(pod1.meta.uid).value();
  auto h2 = stack.exec_in_pod(pod2.meta.uid).value();
  auto ep1 = stack.domain_for(h1).value().open_endpoint(pod1.status.vni)
                 .value();
  auto ep2 = stack.domain_for(h2).value().open_endpoint(pod2.status.vni)
                 .value();
  ASSERT_TRUE(ep1->tsend(ep2->addr(), 9, {}, 32, 0).is_ok());
  EXPECT_TRUE(ep2->trecv_sync(9, {}).is_ok());
}

TEST_F(StackFixture, ClaimDeletionStallsUntilJobsGone) {
  auto claim = stack.create_claim("default", "sticky");
  ASSERT_TRUE(claim.is_ok());
  const auto job = running_job({.name = "user-job",
                                .vni_annotation = "sticky",
                                .pods = 1,
                                .run_duration = 30 * kSecond});
  ASSERT_TRUE(stack.delete_claim(claim.value()).is_ok());
  // The claim must survive while the job uses it.
  stack.run_for(2 * kSecond);
  EXPECT_TRUE(stack.api().get_vni_claim(claim.value()).is_ok())
      << "claim deletion must stall while a job redeems it";
  // Delete the job; the claim may then finalize.
  ASSERT_TRUE(stack.delete_job(job).is_ok());
  ASSERT_TRUE(stack.wait_job_gone(job));
  ASSERT_TRUE(stack.run_until(
      [&] { return !stack.api().get_vni_claim(claim.value()).is_ok(); },
      30 * kSecond));
}

TEST_F(StackFixture, RedeemingMissingClaimFailsToLaunch) {
  auto job = stack.submit_job({.name = "orphan",
                               .vni_annotation = "no-such-claim",
                               .pods = 1});
  ASSERT_TRUE(job.is_ok());
  // The job must not start: sync keeps failing, the CNI never gets a VNI
  // CRD, and pods never launch.
  EXPECT_FALSE(stack.wait_job_start(job.value(), 20 * kSecond));
  const auto pods = stack.pods_of_job(job.value());
  for (const auto& pod : pods) {
    EXPECT_NE(pod.status.phase, PodPhase::kRunning);
  }
}

TEST_F(StackFixture, VniEndpointDownBlocksAnnotatedJobsOnly) {
  stack.set_vni_endpoint_available(false);
  auto vni_job = stack.submit_job({.name = "needs-vni",
                                   .vni_annotation = "true",
                                   .pods = 1});
  auto plain_job = stack.submit_job({.name = "plain", .pods = 1,
                                     .run_duration = from_millis(50)});
  ASSERT_TRUE(vni_job.is_ok());
  ASSERT_TRUE(plain_job.is_ok());
  // The plain job completes; the annotated one cannot start.
  EXPECT_TRUE(stack.wait_job_complete(plain_job.value(), 60 * kSecond));
  EXPECT_FALSE(stack.wait_job_start(vni_job.value(), 5 * kSecond));
  // Service restored -> the queued job launches.
  stack.set_vni_endpoint_available(true);
  EXPECT_TRUE(stack.wait_job_start(vni_job.value(), 60 * kSecond));
}

TEST_F(StackFixture, PodsWithoutAnnotationUntouched) {
  const auto job = running_job({.name = "untouched",
                                .pods = 1,
                                .run_duration = 10 * kSecond});
  const auto pod = running_pod(job);
  EXPECT_EQ(pod.status.vni, hsn::kInvalidVni);
  for (std::size_t i = 0; i < stack.node_count(); ++i) {
    EXPECT_EQ(stack.node(i).cxi_cni->counters().services_created, 0u);
  }
  EXPECT_EQ(stack.registry().allocated_count(), 0u);
}

TEST_F(StackFixture, GraceOver30sRejectedForVniPods) {
  auto job = stack.submit_job({.name = "greedy-grace",
                               .vni_annotation = "true",
                               .pods = 1,
                               .grace_s = 120});
  ASSERT_TRUE(job.is_ok());
  // The CXI CNI plugin rejects the pod outright.
  ASSERT_TRUE(stack.run_until(
      [&] {
        const auto pods = stack.pods_of_job(job.value());
        return !pods.empty() &&
               pods.front().status.phase == PodPhase::kFailed;
      },
      60 * kSecond));
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < stack.node_count(); ++i) {
    rejected += stack.node(i).cxi_cni->counters().rejected_grace;
  }
  EXPECT_GE(rejected, 1u);
}

TEST_F(StackFixture, DrcRuntimeCredential) {
  // The DRC alternative path: a host workflow (no Kubernetes) requests an
  // isolated VNI at runtime.
  DrcService drc(stack.registry(), stack.loop());
  auto& node = stack.node(0);
  auto netns = node.kernel->create_net_namespace("drc-app");
  auto proc = node.kernel->spawn({.creds = {}, .net_ns = netns});
  auto cred = drc.request(*node.driver, *node.kernel, proc->pid(),
                          node.root_pid, "analytics");
  ASSERT_TRUE(cred.is_ok());
  EXPECT_GE(cred.value().vni, stack.config().vni.vni_min);

  ofi::Domain dom(*node.driver, stack.fabric().nic(0),
                  stack.fabric().timing(), proc->pid());
  EXPECT_TRUE(dom.open_endpoint(cred.value().vni).is_ok());
  ASSERT_TRUE(drc.release(*node.driver, node.root_pid, cred.value()).is_ok());
  EXPECT_EQ(dom.open_endpoint(cred.value().vni).code(),
            Code::kPermissionDenied);
}

TEST_F(StackFixture, LegacyModeClusterIsSpoofable) {
  // Ablation: the same cluster with the stock (legacy) driver on every
  // node.  The UID spoof now succeeds — the paper's justification for
  // the netns extension, reproduced end-to-end.
  StackConfig cfg;
  cfg.auth_mode = cxi::AuthMode::kLegacyInNamespace;
  SlingshotStack legacy(cfg);
  auto job = legacy.submit_job({.name = "victim",
                                .vni_annotation = "true",
                                .pods = 1,
                                .run_duration = 30 * kSecond});
  ASSERT_TRUE(job.is_ok());
  ASSERT_TRUE(legacy.wait_job_start(job.value()));
  k8s::Pod victim;
  for (const auto& pod : legacy.pods_of_job(job.value())) {
    if (pod.status.phase == PodPhase::kRunning) victim = pod;
  }

  // NOTE: with netns-member services the legacy driver simply cannot
  // authenticate anybody (netns members are ignored) — pods would fail.
  // A realistic legacy deployment uses UID members, so install one, as a
  // legacy operator would have.
  auto& node0 = legacy.node(0);
  cxi::CxiServiceDesc desc;
  desc.name = "legacy-uid-svc";
  desc.members = {{cxi::MemberType::kUid, 1000}};
  desc.vnis = {victim.status.vni};
  ASSERT_TRUE(node0.driver->svc_alloc(node0.root_pid, desc).is_ok());

  // Attacker container on node 0 setuid()s to 1000 and wins.
  auto uns = node0.kernel->create_user_namespace({{0, 300'000, 65'536}},
                                                 {{0, 300'000, 65'536}});
  auto netns = node0.kernel->create_net_namespace("evil");
  auto attacker = node0.kernel->spawn(
      {.creds = {0, 0}, .user_ns = uns, .net_ns = netns});
  ASSERT_TRUE(node0.kernel->setuid(attacker->pid(), 1000).is_ok());
  ofi::Domain dom(*node0.driver, legacy.fabric().nic(0),
                  legacy.fabric().timing(), attacker->pid());
  EXPECT_TRUE(dom.open_endpoint(victim.status.vni).is_ok())
      << "legacy mode must be spoofable (that is the paper's point)";
}

}  // namespace
}  // namespace shs::core
