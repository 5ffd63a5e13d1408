// multi_tenant_isolation.cpp — the security story (use-case 1 of the
// paper): two tenants on one converged cluster must not be able to read
// or interfere with each other's RDMA traffic.
//
// Demonstrates, end to end:
//   1. each tenant's job gets its own VNI;
//   2. cross-VNI traffic never delivers (switch ACLs / NIC VNI binding);
//   3. the UID-spoof attack — setuid() inside a user-namespaced
//      container — defeats the legacy driver but NOT the netns-extended
//      driver the paper contributes.
//
//   $ ./build/examples/multi_tenant_isolation
#include <cstdio>

#include "core/stack.hpp"
#include "util/log.hpp"

using namespace shs;

namespace {

core::SlingshotStack::PodHandle pod_proc(core::SlingshotStack& stack,
                                         k8s::Uid job) {
  for (const auto& pod : stack.pods_of_job(job)) {
    if (pod.status.phase == k8s::PodPhase::kRunning) {
      return stack.exec_in_pod(pod.meta.uid).value();
    }
  }
  std::abort();
}

k8s::Pod running_pod(core::SlingshotStack& stack, k8s::Uid job) {
  for (const auto& pod : stack.pods_of_job(job)) {
    if (pod.status.phase == k8s::PodPhase::kRunning) return pod;
  }
  std::abort();
}

}  // namespace

int main() {
  Log::set_level(LogLevel::kWarn);
  std::printf("== multi-tenant isolation on Slingshot-K8s ==\n\n");

  core::SlingshotStack stack;

  // Two tenants, one job each.
  auto tenant_a = stack.submit_job({.name = "tenant-a-solver",
                                    .ns = "tenant-a",
                                    .vni_annotation = "true",
                                    .pods = 1,
                                    .run_duration = 600 * kSecond});
  auto tenant_b = stack.submit_job({.name = "tenant-b-analytics",
                                    .ns = "tenant-b",
                                    .vni_annotation = "true",
                                    .pods = 1,
                                    .run_duration = 600 * kSecond});
  stack.wait_job_start(tenant_a.value());
  stack.wait_job_start(tenant_b.value());

  const auto pod_a = running_pod(stack, tenant_a.value());
  const auto pod_b = running_pod(stack, tenant_b.value());
  std::printf("[1] tenant A job on %s with VNI %u\n",
              pod_a.status.node.c_str(), pod_a.status.vni);
  std::printf("    tenant B job on %s with VNI %u\n",
              pod_b.status.node.c_str(), pod_b.status.vni);

  // 2. Tenant A tries to reach tenant B.
  auto ha = pod_proc(stack, tenant_a.value());
  auto hb = pod_proc(stack, tenant_b.value());
  auto dom_a = stack.domain_for(ha).value();
  auto dom_b = stack.domain_for(hb).value();

  auto cross = dom_a.open_endpoint(pod_b.status.vni);
  std::printf("\n[2] tenant A requests an endpoint on tenant B's VNI %u:\n"
              "    -> %s\n",
              pod_b.status.vni, cross.status().to_string().c_str());

  auto ep_a = dom_a.open_endpoint(pod_a.status.vni).value();
  auto ep_b = dom_b.open_endpoint(pod_b.status.vni).value();
  auto send = ep_a->tsend(ep_b->addr(), 1, {}, 64, 0);
  std::printf("    tenant A sends on its own VNI to B's endpoint address:\n"
              "    -> %s\n",
              send.is_ok() ? "accepted by the switch (same-node case), but "
                             "the NIC drops the VNI mismatch"
                           : send.status().to_string().c_str());
  auto rx = ep_b->trecv_sync(1, {});
  std::printf("    tenant B's receive: %s  (nothing ever arrives)\n",
              rx.status().to_string().c_str());

  // 3. The spoofing attack, against both driver generations.
  std::printf("\n[3] UID-spoof attack (setuid(0->victim) inside a "
              "user-namespaced container):\n");
  auto attacker = pod_proc(stack, tenant_b.value());
  auto& node = stack.node(attacker.node_index);
  (void)node.kernel->setuid(attacker.pid, 0);  // ns-root, mapped uid

  // 3a. netns-extended driver (the paper's contribution): blocked.
  auto dom_attacker = stack.domain_for(attacker).value();
  auto spoof = dom_attacker.open_endpoint(pod_a.status.vni);
  std::printf("    netns-extended driver: %s\n",
              spoof.status().to_string().c_str());

  // 3b. Flip the same node's driver to legacy mode and install the kind
  //     of UID-member service a pre-container deployment would have.
  node.driver->set_mode(cxi::AuthMode::kLegacyInNamespace);
  cxi::CxiServiceDesc legacy_svc;
  legacy_svc.name = "legacy-uid-1000";
  legacy_svc.members = {{cxi::MemberType::kUid, 1000}};
  legacy_svc.vnis = {pod_a.status.vni};
  (void)node.driver->svc_alloc(node.root_pid, legacy_svc);
  (void)node.kernel->setuid(attacker.pid, 1000);
  auto spoof_legacy = dom_attacker.open_endpoint(pod_a.status.vni);
  std::printf("    legacy driver + uid-member service: %s\n",
              spoof_legacy.is_ok()
                  ? "ENDPOINT GRANTED — the attack succeeds (this is the "
                    "gap the paper closes)"
                  : spoof_legacy.status().to_string().c_str());
  node.driver->set_mode(cxi::AuthMode::kNetnsExtended);

  // 4. Audit trail.
  std::printf("\n[4] VNI database audit log:\n");
  for (const auto& rec : stack.registry().audit_log()) {
    std::printf("    t=%6.2fs %-12s vni=%-6u %s\n", to_seconds(rec.ts),
                rec.op.c_str(), rec.vni, rec.detail.c_str());
  }

  std::printf("\nIsolation holds under the netns-extended stack; the legacy "
              "stack is spoofable.\n");
  return 0;
}
