#include "k8s/metacontroller.hpp"

#include <string>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace shs::k8s {

namespace {
constexpr const char* kTag = "metactrl";
}

DecoratorController::DecoratorController(ApiServer& api, Hooks hooks, Rng rng)
    : api_(api), hooks_(std::move(hooks)), rng_(rng) {
  job_sink_ = api_.on_job_change(
      [this](const Job& j) { dirty_jobs_.insert(j.meta.uid); });
  claim_sink_ = api_.on_vni_claim_change(
      [this](const VniClaim& c) { dirty_claims_.insert(c.meta.uid); });
  // Initial list: objects that predate the controller.
  api_.visit_jobs([this](const Job& j) { dirty_jobs_.insert(j.meta.uid); });
  api_.visit_vni_claims(
      [this](const VniClaim& c) { dirty_claims_.insert(c.meta.uid); });
}

DecoratorController::~DecoratorController() {
  stop();
  api_.remove_change_sink(job_sink_);
  api_.remove_change_sink(claim_sink_);
}

void DecoratorController::start() {
  if (task_ != sim::EventLoop::kInvalidTask) return;
  task_ = api_.loop().schedule_periodic(api_.params().job_reconcile_delay,
                                        [this] { reconcile(); });
}

void DecoratorController::stop() {
  if (task_ != sim::EventLoop::kInvalidTask) {
    api_.loop().cancel(task_);
    task_ = sim::EventLoop::kInvalidTask;
  }
}

void DecoratorController::reconcile() {
  // Flags first, then actions: reconcile_job writes finalizers, which
  // mark the job dirty again for the next tick.
  struct Flags {
    Uid uid;
    bool deleting;
    bool has_finalizer;
  };
  std::vector<Flags> jobs;
  for (const Uid uid : std::exchange(dirty_jobs_, {})) {
    const Job* j = api_.find_job(uid);
    if (j == nullptr || !j->meta.has_annotation(kVniAnnotation)) continue;
    jobs.push_back({uid, j->meta.deletion_requested,
                    j->meta.has_finalizer(kMetaFinalizer)});
  }
  for (const Flags& f : jobs) reconcile_job(f.uid, f.deleting,
                                            f.has_finalizer);

  std::vector<Flags> claims;
  for (const Uid uid : std::exchange(dirty_claims_, {})) {
    const VniClaim* c = api_.find_vni_claim(uid);
    if (c == nullptr) continue;
    claims.push_back({uid, c->meta.deletion_requested,
                      c->meta.has_finalizer(kMetaFinalizer)});
  }
  for (const Flags& f : claims) reconcile_claim(f.uid, f.deleting,
                                                f.has_finalizer);
}

void DecoratorController::apply_children(
    Uid parent_uid, const std::vector<VniObject>& desired) {
  // Apply semantics: create children that do not exist yet (matched by
  // name); existing ones are left untouched (our children are immutable).
  std::unordered_set<std::string> existing;
  api_.visit_vni_objects_of(parent_uid, [&](const VniObject& v) {
    existing.insert(v.meta.name);
  });
  for (const VniObject& want : desired) {
    if (existing.contains(want.meta.name)) continue;
    auto r = api_.create_vni_object(want);
    if (!r.is_ok() && r.code() != Code::kAlreadyExists) {
      SHS_WARN(kTag) << "child create failed: " << r.status();
    }
  }
}

void DecoratorController::delete_children(Uid parent_uid) {
  std::vector<Uid> children;
  api_.visit_vni_objects_of(parent_uid, [&](const VniObject& v) {
    children.push_back(v.meta.uid);
  });
  for (const Uid child : children) (void)api_.delete_vni_object(child);
}

void DecoratorController::reconcile_job(Uid uid, bool deleting,
                                        bool has_finalizer) {
  if (deleting) {
    if (!has_finalizer || finalize_inflight_.contains(uid)) {
      return;
    }
    finalize_inflight_.insert(uid);
    ++finalize_calls_;
    api_.loop().schedule_after(jittered(api_.params().webhook_cost),
                               [this, uid] {
      finalize_inflight_.erase(uid);
      dirty_jobs_.insert(uid);
      auto j = api_.get_job(uid);
      if (!j.is_ok()) return;
      auto fin = hooks_.finalize_job ? hooks_.finalize_job(j.value())
                                     : Result<bool>(true);
      if (!fin.is_ok() || !fin.value()) return;  // retried next pass
      // Cleanup complete: remove child VNI CRD instances, release the
      // decorator finalizer so the job can disappear.
      delete_children(uid);
      (void)api_.remove_job_finalizer(uid, kMetaFinalizer);
      synced_.erase(uid);
    });
    return;
  }

  // Live object: decorate.
  if (!has_finalizer) {
    (void)api_.add_job_finalizer(uid, kMetaFinalizer);
  }
  if (synced_.contains(uid) || sync_inflight_.contains(uid)) return;
  sync_inflight_.insert(uid);
  ++sync_calls_;
  api_.loop().schedule_after(jittered(api_.params().webhook_cost),
                             [this, uid] {
    sync_inflight_.erase(uid);
    dirty_jobs_.insert(uid);  // on failure, retried on the next tick
    auto j = api_.get_job(uid);
    if (!j.is_ok() || j.value().meta.deletion_requested) return;
    auto children = hooks_.sync_job
                        ? hooks_.sync_job(j.value())
                        : Result<std::vector<VniObject>>(
                              std::vector<VniObject>{});
    if (!children.is_ok()) {
      // e.g. the referenced VniClaim does not exist: the job's pods will
      // keep failing CNI ADD and the job fails to launch (Section III-C1).
      SHS_DEBUG(kTag) << "sync_job " << j.value().meta.name << ": "
                      << children.status();
      return;  // retried on the next reconcile pass
    }
    apply_children(uid, children.value());
    synced_.insert(uid);
  });
}

void DecoratorController::reconcile_claim(Uid uid, bool deleting,
                                          bool has_finalizer) {
  if (deleting) {
    if (!has_finalizer || finalize_inflight_.contains(uid)) {
      return;
    }
    finalize_inflight_.insert(uid);
    ++finalize_calls_;
    api_.loop().schedule_after(jittered(api_.params().webhook_cost),
                               [this, uid] {
      finalize_inflight_.erase(uid);
      dirty_claims_.insert(uid);
      auto c = api_.get_vni_claim(uid);
      if (!c.is_ok()) return;
      auto fin = hooks_.finalize_claim ? hooks_.finalize_claim(c.value())
                                       : Result<bool>(true);
      if (!fin.is_ok() || !fin.value()) return;  // users remain: stall
      delete_children(uid);
      (void)api_.remove_claim_finalizer(uid, kMetaFinalizer);
      synced_.erase(uid);
    });
    return;
  }

  if (!has_finalizer) {
    (void)api_.add_claim_finalizer(uid, kMetaFinalizer);
  }
  if (synced_.contains(uid) || sync_inflight_.contains(uid)) return;
  sync_inflight_.insert(uid);
  ++sync_calls_;
  api_.loop().schedule_after(jittered(api_.params().webhook_cost),
                             [this, uid] {
    sync_inflight_.erase(uid);
    dirty_claims_.insert(uid);
    auto c = api_.get_vni_claim(uid);
    if (!c.is_ok() || c.value().meta.deletion_requested) return;
    auto children = hooks_.sync_claim
                        ? hooks_.sync_claim(c.value())
                        : Result<std::vector<VniObject>>(
                              std::vector<VniObject>{});
    if (!children.is_ok()) {
      SHS_DEBUG(kTag) << "sync_claim " << c.value().meta.name << ": "
                      << children.status();
      return;
    }
    apply_children(uid, children.value());
    synced_.insert(uid);
  });
}

}  // namespace shs::k8s
