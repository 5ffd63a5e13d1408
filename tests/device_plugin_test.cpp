// device_plugin_test.cpp — the device-plugin-only deployment (related
// work, Section V) vs. the paper's CNI-based integration: device access
// without service management yields shared, non-isolated RDMA.
#include <gtest/gtest.h>

#include "core/device_plugin.hpp"
#include "core/stack.hpp"

namespace shs::core {
namespace {

k8s::Pod pod_with_uid(k8s::Uid uid) {
  k8s::Pod pod;
  pod.meta.name = "pod-" + std::to_string(uid);
  pod.meta.uid = uid;
  return pod;
}

TEST(DevicePlugin, AllocatesUpToCapacity) {
  CxiDevicePlugin plugin("node-0", 2);
  EXPECT_EQ(plugin.capacity(), 2);
  auto a = plugin.allocate(pod_with_uid(1));
  auto b = plugin.allocate(pod_with_uid(2));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().device_path, "/dev/cxi0");
  EXPECT_EQ(plugin.allocated(), 2);
  EXPECT_EQ(plugin.allocate(pod_with_uid(3)).code(),
            Code::kResourceExhausted);
}

TEST(DevicePlugin, AllocationIsIdempotentPerPod) {
  CxiDevicePlugin plugin("node-0", 1);
  ASSERT_TRUE(plugin.allocate(pod_with_uid(1)).is_ok());
  ASSERT_TRUE(plugin.allocate(pod_with_uid(1)).is_ok());
  EXPECT_EQ(plugin.allocated(), 1);
}

TEST(DevicePlugin, ReleaseFreesShare) {
  CxiDevicePlugin plugin("node-0", 1);
  ASSERT_TRUE(plugin.allocate(pod_with_uid(1)).is_ok());
  ASSERT_TRUE(plugin.release(1).is_ok());
  ASSERT_TRUE(plugin.release(1).is_ok());  // idempotent
  EXPECT_FALSE(plugin.has_device(1));
  EXPECT_TRUE(plugin.allocate(pod_with_uid(2)).is_ok());
}

TEST(DevicePlugin, DeviceAccessAloneGivesNoIsolation) {
  // The paper's point about the device plugin: it mounts the device but
  // "does not handle CXI service management ... these externally managed
  // CXI services are not container-granular".  Demonstrate: two tenant
  // pods that only have device access can both authenticate against the
  // global default service — they share one VNI and can see each other's
  // traffic domain.
  SlingshotStack stack;
  CxiDevicePlugin plugin("node-0", 8);

  auto job_a = stack.submit_job({.name = "tenant-a", .pods = 1,
                                 .run_duration = 30 * kSecond});
  auto job_b = stack.submit_job({.name = "tenant-b", .pods = 1,
                                 .run_duration = 30 * kSecond});
  ASSERT_TRUE(stack.wait_job_start(job_a.value()));
  ASSERT_TRUE(stack.wait_job_start(job_b.value()));
  const auto pod_a = stack.pods_of_job(job_a.value()).front();
  const auto pod_b = stack.pods_of_job(job_b.value()).front();
  ASSERT_TRUE(plugin.allocate(pod_a).is_ok());
  ASSERT_TRUE(plugin.allocate(pod_b).is_ok());

  // Both pods authenticate against the unrestricted default service.
  auto ha = stack.exec_in_pod(pod_a.meta.uid).value();
  auto hb = stack.exec_in_pod(pod_b.meta.uid).value();
  auto ep_a = stack.domain_for(ha).value().open_endpoint(cxi::kDefaultVni);
  auto ep_b = stack.domain_for(hb).value().open_endpoint(cxi::kDefaultVni);
  ASSERT_TRUE(ep_a.is_ok());
  ASSERT_TRUE(ep_b.is_ok());
  // Same VNI: tenant A can message tenant B directly — no isolation.
  ASSERT_TRUE(ep_a.value()
                  ->tsend(ep_b.value()->addr(), 1, {}, 64, 0)
                  .is_ok());
  EXPECT_TRUE(ep_b.value()->trecv_sync(1, {}).is_ok())
      << "device-plugin-only pods share the global VNI";
}

TEST(DevicePlugin, CniIntegrationRestoresIsolation) {
  // Same scenario but through the paper's stack: per-job VNIs; the
  // cross-tenant send never arrives (see also integration_test).
  SlingshotStack stack;
  auto job_a = stack.submit_job({.name = "tenant-a",
                                 .vni_annotation = "true",
                                 .pods = 1,
                                 .run_duration = 30 * kSecond});
  auto job_b = stack.submit_job({.name = "tenant-b",
                                 .vni_annotation = "true",
                                 .pods = 1,
                                 .run_duration = 30 * kSecond});
  ASSERT_TRUE(stack.wait_job_start(job_a.value()));
  ASSERT_TRUE(stack.wait_job_start(job_b.value()));
  const auto pod_a = stack.pods_of_job(job_a.value()).front();
  const auto pod_b = stack.pods_of_job(job_b.value()).front();
  EXPECT_NE(pod_a.status.vni, pod_b.status.vni);

  auto ha = stack.exec_in_pod(pod_a.meta.uid).value();
  auto hb = stack.exec_in_pod(pod_b.meta.uid).value();
  auto ep_a =
      stack.domain_for(ha).value().open_endpoint(pod_a.status.vni).value();
  auto ep_b =
      stack.domain_for(hb).value().open_endpoint(pod_b.status.vni).value();
  (void)ep_a->tsend(ep_b->addr(), 1, {}, 64, 0);
  EXPECT_EQ(ep_b->trecv_sync(1, {}).code(), Code::kTimeout)
      << "per-job VNIs must isolate the tenants";
}

}  // namespace
}  // namespace shs::core
