#include "core/cxi_cni.hpp"

#include <optional>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::core {

namespace {
constexpr const char* kTag = "cxi-cni";
}

Result<cri::CniAddResult> CxiCniPlugin::add(const cri::CniContext& ctx) {
  using R = Result<cri::CniAddResult>;

  // Pods that do not request CXI communication are left alone.
  const auto ann = ctx.annotations.find(k8s::kVniAnnotation);
  if (ann == ctx.annotations.end() || ann->second.empty()) {
    ++counters_.noop_adds;
    return cri::CniAddResult{{}, hsn::kInvalidVni, jittered(kMillisecond / 2)};
  }

  // Grace-period contract (Section III-C1).
  if (ctx.termination_grace_s > k8s::kMaxVniGraceSeconds) {
    ++counters_.rejected_grace;
    return R(invalid_argument(
        strfmt("pod %s requests a VNI with terminationGracePeriodSeconds=%d "
               "> %d; the 30 s VNI quarantine would be unsound",
               ctx.pod_name.c_str(), ctx.termination_grace_s,
               k8s::kMaxVniGraceSeconds)));
  }

  // Idempotent retry: the service may already exist for this container.
  if (const auto it = services_.find(ctx.container_id);
      it != services_.end()) {
    auto svc = driver_.svc_get(it->second);
    if (svc.is_ok() && !svc.value().vnis.empty()) {
      return cri::CniAddResult{{}, svc.value().vnis.front(),
                               jittered(kMillisecond)};
    }
    services_.erase(it);
  }

  // Fetch the VNI from the job's VNI CRD instance (the plugin queries the
  // Kubernetes management plane, Section III-B).  Not there yet -> the
  // container must not launch; the kubelet retries.
  std::optional<hsn::Vni> served;
  api_.visit_vni_objects_of(ctx.owner_job_uid, [&](const k8s::VniObject& v) {
    if (!served && !v.meta.deletion_requested) served = v.vni;
  });
  if (!served) {
    ++counters_.unavailable_adds;
    return R(unavailable(strfmt(
        "no VNI CRD instance served yet for job of pod %s (annotation '%s')",
        ctx.pod_name.c_str(), ann->second.c_str())));
  }
  const hsn::Vni vni = *served;

  // Create the CXI service: NETNS member for this container's namespace,
  // restricted to exactly the granted VNI.
  cxi::CxiServiceDesc desc;
  desc.name = strfmt("cni-%s", ctx.container_id.c_str());
  desc.restricted_members = true;
  desc.restricted_vnis = true;
  desc.members = {{cxi::MemberType::kNetNs, ctx.netns_inode}};
  desc.vnis = {vni};
  auto svc = driver_.svc_alloc(root_, std::move(desc));
  if (!svc.is_ok()) return R(svc.status());
  services_.emplace(ctx.container_id, svc.value());
  ++counters_.services_created;
  SHS_DEBUG(kTag) << "ADD " << ctx.pod_name << ": svc " << svc.value()
                  << " netns " << ctx.netns_inode << " VNI " << vni;

  cri::CniAddResult out;
  out.vni = vni;
  out.cost = jittered(api_.params().cxi_cni_add_cost);
  return out;
}

Result<SimDuration> CxiCniPlugin::del(const cri::CniContext& ctx) {
  const auto it = services_.find(ctx.container_id);
  if (it == services_.end()) {
    // Nothing to clean up (non-VNI pod, or DEL retried) — stay silent.
    return jittered(kMillisecond / 2);
  }
  // Force-destroy: the container is going away; any endpoints it still
  // holds die with the service.
  const Status st = driver_.svc_destroy_force(root_, it->second);
  if (!st.is_ok() && st.code() != Code::kNotFound) {
    SHS_WARN(kTag) << "DEL " << ctx.pod_name << ": " << st;
    return Result<SimDuration>(st);
  }
  services_.erase(it);
  ++counters_.services_destroyed;
  SHS_DEBUG(kTag) << "DEL " << ctx.pod_name << ": service destroyed";
  return jittered(api_.params().cxi_cni_del_cost);
}

cxi::SvcId CxiCniPlugin::service_for(const std::string& container_id) const {
  const auto it = services_.find(container_id);
  return it == services_.end() ? cxi::kInvalidSvc : it->second;
}

}  // namespace shs::core
