#include "k8s/kubelet.hpp"

#include <algorithm>
#include <utility>

#include "k8s/scheduler.hpp"  // kKubeletFinalizer
#include "util/log.hpp"

namespace shs::k8s {

namespace {
constexpr const char* kTag = "kubelet";
}

KubeletRound::KubeletRound(sim::EventLoop& loop, SimDuration period)
    : loop_(loop),
      task_(loop_.schedule_periodic(period, [this] { run(); })) {}

std::size_t KubeletRound::add(Kubelet& kubelet) {
  kubelets_.push_back(&kubelet);
  return kubelets_.size() - 1;
}

void KubeletRound::run() {
  for (auto it = woken_.begin(); it != woken_.end();) {
    const std::size_t i = *it;
    woken_.erase(it);
    kubelets_[i]->sync();
    it = woken_.upper_bound(i);
  }
}

Kubelet::Kubelet(ApiServer& api, std::string node, PodRuntime& runtime,
                 Rng rng, KubeletRound& round)
    : api_(api),
      node_(std::move(node)),
      runtime_(runtime),
      rng_(rng),
      round_(round),
      index_(round.add(*this)) {
  pod_sink_ = api_.on_node_pod_change(
      node_, [this](const Pod& p) { mark_dirty(p.meta.uid); });
  api_.visit_pods_on_node(
      node_, [this](const Pod& p) { mark_dirty(p.meta.uid); });
}

Kubelet::~Kubelet() { api_.remove_change_sink(pod_sink_); }

void Kubelet::mark_dirty(Uid uid) {
  if (dirty_.empty()) round_.wake(index_);
  dirty_.insert(uid);
}

void Kubelet::sync() {
  for (const Uid uid : std::exchange(dirty_, {})) {
    const Pod* p = api_.find_pod(uid);
    if (p == nullptr || p->status.node != node_) continue;
    if (p->meta.deletion_requested) {
      if (!torn_down_.contains(uid) && !queued_or_active_.contains(uid)) {
        queued_or_active_.insert(uid);
        teardown_queue_.push_back(uid);
      }
      continue;
    }
    if (p->status.phase == PodPhase::kScheduled &&
        !queued_or_active_.contains(uid)) {
      queued_or_active_.insert(uid);
      create_queue_.push_back(uid);
    }
  }
  pump();
}

void Kubelet::pump() {
  while (create_active_ < api_.params().kubelet_create_workers &&
         !create_queue_.empty()) {
    const Uid uid = create_queue_.front();
    create_queue_.pop_front();
    ++create_active_;
    run_create(uid);
  }
  while (teardown_active_ < api_.params().kubelet_teardown_workers &&
         !teardown_queue_.empty()) {
    const Uid uid = teardown_queue_.front();
    teardown_queue_.pop_front();
    ++teardown_active_;
    run_teardown(uid);
  }
}

void Kubelet::stage(SimDuration cost, std::function<void()> next) {
  api_.loop().schedule_after(jittered(cost), std::move(next));
}

void Kubelet::finish_create_op(Uid uid) {
  queued_or_active_.erase(uid);
  mark_dirty(uid);  // it may be due for (re)queueing
  --create_active_;
  pump();
}

void Kubelet::finish_teardown_op(Uid uid) {
  queued_or_active_.erase(uid);
  mark_dirty(uid);
  --teardown_active_;
  pump();
}

void Kubelet::fail_pod(Pod pod, const std::string& why) {
  pod.status.phase = PodPhase::kFailed;
  pod.status.message = why;
  pod.status.finished_vt = api_.loop().now();
  (void)api_.update_pod(pod);
  SHS_WARN(kTag) << "pod " << pod.meta.name << " failed: " << why;
}

// -- Create pipeline -------------------------------------------------------

void Kubelet::run_create(Uid uid) {
  auto r = api_.get_pod(uid);
  // Node mismatch: the scheduler drained the pod off this node (dead
  // switch) between queueing and this worker picking it up — the new
  // home's kubelet owns it now.
  if (!r.is_ok() || r.value().meta.deletion_requested ||
      r.value().status.node != node_) {
    finish_create_op(uid);
    return;
  }
  Pod pod = r.value();
  pod.status.phase = PodPhase::kCreating;
  (void)api_.update_pod(pod);

  auto sandbox = runtime_.create_sandbox(pod);
  if (!sandbox.is_ok()) {
    fail_pod(pod, "sandbox: " + sandbox.status().to_string());
    finish_create_op(uid);
    return;
  }
  pod.status.netns_inode = sandbox.value().netns_inode;
  (void)api_.update_pod(pod);
  stage(sandbox.value().cost, [this, uid] { stage_attach(uid); });
}

void Kubelet::stage_attach(Uid uid) {
  auto r = api_.get_pod(uid);
  if (!r.is_ok() || r.value().meta.deletion_requested) {
    finish_create_op(uid);
    return;
  }
  Pod pod = r.value();
  auto cni = runtime_.attach_networks(pod);
  if (!cni.is_ok()) {
    if (cni.code() == Code::kUnavailable &&
        cni_attempts_[uid] < cni_attempts_limit_) {
      // The VNI CRD instance has not been served yet; the pod cannot
      // launch until it is (Section III-C1).  The slot stays held: CNI
      // runs inside the serialized sandbox-setup path.
      ++cni_attempts_[uid];
      stage(api_.params().kubelet_sync_period,
            [this, uid] { stage_attach(uid); });
      return;
    }
    fail_pod(pod, "CNI ADD: " + cni.status().to_string());
    finish_create_op(uid);
    return;
  }
  cni_attempts_.erase(uid);
  pod.status.vni = cni.value().vni;
  (void)api_.update_pod(pod);
  stage(cni.value().cost, [this, uid] { stage_image(uid); });
}

void Kubelet::stage_image(Uid uid) {
  auto r = api_.get_pod(uid);
  if (!r.is_ok() || r.value().meta.deletion_requested) {
    finish_create_op(uid);
    return;
  }
  auto pull = runtime_.pull_image(r.value());
  if (!pull.is_ok()) {
    fail_pod(r.value(), "image pull: " + pull.status().to_string());
    finish_create_op(uid);
    return;
  }
  stage(pull.value(), [this, uid] { stage_start(uid); });
}

void Kubelet::stage_start(Uid uid) {
  auto r = api_.get_pod(uid);
  if (!r.is_ok() || r.value().meta.deletion_requested) {
    finish_create_op(uid);
    return;
  }
  auto start = runtime_.start_container(r.value());
  if (!start.is_ok()) {
    fail_pod(r.value(), "start: " + start.status().to_string());
    finish_create_op(uid);
    return;
  }
  stage(start.value(), [this, uid] { mark_running(uid); });
}

void Kubelet::mark_running(Uid uid) {
  auto r = api_.get_pod(uid);
  if (!r.is_ok() || r.value().meta.deletion_requested) {
    finish_create_op(uid);
    return;
  }
  Pod pod = r.value();
  pod.status.phase = PodPhase::kRunning;
  pod.status.running_vt = api_.loop().now();
  (void)api_.update_pod(pod);
  SHS_TRACE(kTag) << "pod " << pod.meta.name << " running on " << node_;

  // The container's command finishes after run_duration; completion does
  // not hold a slot (the container runs on its own).
  const SimDuration run = pod.spec.run_duration;
  api_.loop().schedule_after(run, [this, uid] {
    auto rr = api_.get_pod(uid);
    if (!rr.is_ok() || rr.value().meta.deletion_requested) return;
    Pod done = rr.value();
    if (done.status.phase != PodPhase::kRunning) return;
    done.status.phase = PodPhase::kSucceeded;
    done.status.finished_vt = api_.loop().now();
    (void)api_.update_pod(done);
  });
  finish_create_op(uid);
}

// -- Teardown pipeline ------------------------------------------------------

void Kubelet::run_teardown(Uid uid) {
  auto r = api_.get_pod(uid);
  if (!r.is_ok()) {
    finish_teardown_op(uid);
    return;
  }
  Pod pod = r.value();
  // Grace enforcement: pods requesting a VNI are hard-capped at 30 s so a
  // straggler can never outlive the VNI quarantine window.
  int grace_s = pod.spec.termination_grace_s;
  if (pod.meta.has_annotation(kVniAnnotation)) {
    grace_s = std::min(grace_s, kMaxVniGraceSeconds);
  }
  auto stop = runtime_.stop_container(pod, from_seconds(grace_s));
  const SimDuration stop_cost =
      stop.is_ok() ? stop.value() : api_.params().container_stop_cost;

  stage(stop_cost, [this, uid] {
    auto r2 = api_.get_pod(uid);
    if (!r2.is_ok()) {
      finish_teardown_op(uid);
      return;
    }
    auto del = runtime_.detach_networks(r2.value());
    const SimDuration del_cost =
        del.is_ok() ? del.value() : api_.params().bridge_cni_del_cost;
    stage(del_cost, [this, uid] {
      auto r3 = api_.get_pod(uid);
      if (!r3.is_ok()) {
        finish_teardown_op(uid);
        return;
      }
      auto destroy = runtime_.destroy_sandbox(r3.value());
      const SimDuration destroy_cost =
          destroy.is_ok() ? destroy.value()
                          : api_.params().sandbox_teardown_cost;
      stage(destroy_cost, [this, uid] {
        torn_down_.insert(uid);
        cni_attempts_.erase(uid);
        (void)api_.remove_pod_finalizer(uid, kKubeletFinalizer);
        finish_teardown_op(uid);
      });
    });
  });
}

}  // namespace shs::k8s
