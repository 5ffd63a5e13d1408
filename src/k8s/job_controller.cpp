#include "k8s/job_controller.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::k8s {

namespace {
constexpr const char* kTag = "job-ctrl";

/// The index `i` of a pod named "<job>-<i>" (i in canonical decimal, as
/// create_pod_at names it), or -1 for any other name.
int pod_index(const std::string& pod, const std::string& job) {
  if (pod.size() <= job.size() + 1 || pod.compare(0, job.size(), job) != 0 ||
      pod[job.size()] != '-') {
    return -1;
  }
  const char* first = pod.data() + job.size() + 1;
  const char* last = pod.data() + pod.size();
  if (*first == '0' && last - first > 1) return -1;  // leading zero
  unsigned long long i = 0;
  const auto [ptr, ec] = std::from_chars(first, last, i);
  if (ec != std::errc() || ptr != last ||
      i > static_cast<unsigned long long>(std::numeric_limits<int>::max())) {
    return -1;
  }
  return static_cast<int>(i);
}
}  // namespace

JobController::JobController(ApiServer& api, Rng rng)
    : api_(api), rng_(rng) {
  job_sink_ = api_.on_job_change(
      [this](const Job& j) { dirty_.insert(j.meta.uid); });
  pod_sink_ = api_.on_pod_change([this](const Pod& p) {
    if (p.meta.owner_uid != kNoUid) dirty_.insert(p.meta.owner_uid);
  });
  // Initial list: jobs that predate the controller.
  api_.visit_jobs([this](const Job& j) { dirty_.insert(j.meta.uid); });
}

JobController::~JobController() {
  stop();
  api_.remove_change_sink(job_sink_);
  api_.remove_change_sink(pod_sink_);
}

void JobController::start() {
  if (task_ != sim::EventLoop::kInvalidTask) return;
  task_ = api_.loop().schedule_periodic(api_.params().job_reconcile_delay,
                                        [this] { reconcile(); });
}

void JobController::stop() {
  if (task_ != sim::EventLoop::kInvalidTask) {
    api_.loop().cancel(task_);
    task_ = sim::EventLoop::kInvalidTask;
  }
}

void JobController::restart_from_api() {
  stop();
  ++incarnation_;
  pods_created_.clear();
  ttl_deleted_.clear();
  seen_indices_.clear();
  replacements_in_flight_.clear();
  // Rebuild level-triggered from the store, re-evaluating every job on
  // the next tick.  The finalizer is written synchronously before the
  // first pod create is scheduled, so it is the durable "creation began"
  // marker; a job without it reconciles as new.
  api_.visit_jobs([&](const Job& job) {
    dirty_.insert(job.meta.uid);
    if (job.meta.deletion_requested) return;  // deleting path handles it
    if (!job.meta.has_finalizer(kJobFinalizer)) return;
    pods_created_.insert(job.meta.uid);
    if (job.status.complete) return;  // TTL delete re-issues idempotently
    // Mark every expected index seen: an index with a live pod is left
    // alone by reconcile's name check; one without (its create died with
    // the old incarnation, or it was evicted) gets recreated.
    const int expected =
        std::max(job.spec.completions, job.spec.parallelism);
    auto& seen = seen_indices_[job.meta.uid];
    for (int i = 0; i < expected; ++i) seen.insert(i);
  });
  start();
  SHS_INFO(kTag) << "job controller restarted; tracking "
                 << pods_created_.size() << " jobs rebuilt from API server";
}

void JobController::reconcile() {
  // Pass 1: evaluate the dirty jobs in uid order and collect actions (no
  // store mutation while reading).  Anything that changes here or below
  // lands in the fresh dirty set for the next tick.
  const std::set<Uid> dirty = std::exchange(dirty_, {});
  struct StatusUpdate {
    Uid uid;
    JobStatus status;
  };
  struct Deleting {
    Uid uid = kNoUid;
    bool any_pod = false;
    std::vector<Uid> undeleted;  ///< pods without a deletion timestamp
  };
  std::vector<StatusUpdate> updates;
  std::vector<Uid> to_create;
  std::vector<std::pair<Uid, int>> to_replace;  ///< (job, pod index)
  std::vector<Uid> to_ttl_delete;
  std::vector<Deleting> deleting;

  for (const Uid uid : dirty) {
    const Job* job = api_.find_job(uid);
    if (job == nullptr) continue;
    if (job->meta.deletion_requested) {
      if (!job->meta.has_finalizer(kJobFinalizer)) continue;
      Deleting d{uid};
      api_.visit_pods_of_owner(uid, [&](const Pod& p) {
        d.any_pod = true;
        if (!p.meta.deletion_requested) d.undeleted.push_back(p.meta.uid);
      });
      deleting.push_back(std::move(d));
      continue;
    }
    if (!pods_created_.contains(uid)) {
      to_create.push_back(uid);
      continue;
    }

    // Aggregate this job's pods, and note which indices exist as pod
    // objects (deleting ones included, so a replacement is never created
    // while its predecessor still exists).
    const int expected =
        std::max(job->spec.completions, job->spec.parallelism);
    std::vector<bool> present(static_cast<std::size_t>(std::max(expected, 0)));
    int active = 0, succeeded = 0, failed = 0;
    SimTime first_running = 0, last_finish = 0;
    api_.visit_pods_of_owner(uid, [&](const Pod& p) {
      const int index = pod_index(p.meta.name, job->meta.name);
      if (index >= 0 && index < expected) {
        present[static_cast<std::size_t>(index)] = true;
      }
      switch (p.status.phase) {
        case PodPhase::kSucceeded:
          ++succeeded;
          break;
        case PodPhase::kFailed:
          ++failed;
          break;
        default:
          ++active;  // pending/creating pods count as active work
          break;
      }
      if (p.status.running_vt > 0 &&
          (first_running == 0 || p.status.running_vt < first_running)) {
        first_running = p.status.running_vt;
      }
      last_finish = std::max(last_finish, p.status.finished_vt);
    });

    JobStatus status = job->status;
    status.active = active;
    status.succeeded = succeeded;
    status.failed = failed;
    if (first_running > 0 && status.start_vt == 0) {
      status.start_vt = first_running;
    }
    if (!status.complete && status.succeeded >= job->spec.completions) {
      status.complete = true;
      status.completion_vt =
          last_finish > 0 ? last_finish : api_.loop().now();
      SHS_DEBUG(kTag) << "job " << job->meta.name << " complete at "
                      << to_seconds(status.completion_vt) << "s";
    }
    if (status.active != job->status.active ||
        status.succeeded != job->status.succeeded ||
        status.failed != job->status.failed ||
        status.complete != job->status.complete ||
        status.start_vt != job->status.start_vt) {
      updates.push_back({uid, status});
    }
    if (status.complete && job->spec.ttl_after_finished_s >= 0 &&
        !ttl_deleted_.contains(uid)) {
      to_ttl_delete.push_back(uid);
    }

    // Replace vanished pods.  A pod object can only disappear from an
    // incomplete job through an explicit deletion — the scheduler's
    // dead-switch eviction — so every index that has ever been seen
    // alive but is missing now gets a fresh pod (which then schedules
    // onto a healthy switch).
    auto& seen = seen_indices_[uid];
    for (int i = 0; i < expected; ++i) {
      if (present[static_cast<std::size_t>(i)]) {
        // The replacement (or original) exists; the index may be
        // replaced anew if it vanishes again later.
        const bool newly_seen = seen.insert(i).second;
        const bool landed = replacements_in_flight_.erase({uid, i}) > 0;
        if (newly_seen || landed) dirty_.insert(uid);
      } else if (!status.complete && seen.contains(i) &&
                 !replacements_in_flight_.contains({uid, i})) {
        to_replace.emplace_back(uid, i);
      }
    }
  }

  // Pass 2: apply.
  for (const auto& u : updates) {
    auto job = api_.get_job(u.uid);
    if (!job.is_ok()) continue;
    Job updated = job.value();
    updated.status = u.status;
    (void)api_.update_job(updated);
  }
  for (const Uid uid : to_create) {
    pods_created_.insert(uid);
    dirty_.insert(uid);
    (void)api_.add_job_finalizer(uid, kJobFinalizer);
    const std::uint64_t gen = incarnation_;
    api_.loop().schedule_after(
        jittered(api_.params().job_reconcile_delay), [this, uid, gen] {
          if (gen != incarnation_) return;
          auto j = api_.get_job(uid);
          if (j.is_ok() && !j.value().meta.deletion_requested) {
            create_pods(j.value());
          }
        });
  }
  for (std::size_t i = 0; i < to_replace.size(); ++i) {
    auto job = api_.get_job(to_replace[i].first);
    if (!job.is_ok() || job.value().meta.deletion_requested) continue;
    ++pods_replaced_;
    replacements_in_flight_.insert(to_replace[i]);
    dirty_.insert(to_replace[i].first);
    create_pod_at(job.value(), to_replace[i].second,
                  static_cast<int>(i) + 1);
    SHS_DEBUG(kTag) << "replacing evicted pod " << to_replace[i].second
                    << " of job " << job.value().meta.name;
  }
  for (const Uid uid : to_ttl_delete) {
    ttl_deleted_.insert(uid);
    dirty_.insert(uid);
    auto job = api_.get_job(uid);
    if (!job.is_ok()) continue;
    const std::uint64_t gen = incarnation_;
    api_.loop().schedule_after(
        from_seconds(job.value().spec.ttl_after_finished_s),
        [this, uid, gen] {
          if (gen != incarnation_) return;
          (void)api_.delete_job(uid);
        });
  }
  for (const Deleting& d : deleting) {
    if (!d.any_pod) {
      // No pods left: release the job.
      (void)api_.remove_job_finalizer(d.uid, kJobFinalizer);
      pods_created_.erase(d.uid);
      ttl_deleted_.erase(d.uid);
      seen_indices_.erase(d.uid);
      replacements_in_flight_.erase(
          replacements_in_flight_.lower_bound({d.uid, 0}),
          replacements_in_flight_.upper_bound(
              {d.uid, std::numeric_limits<int>::max()}));
      dirty_.insert(d.uid);
      continue;
    }
    for (const Uid pod_uid : d.undeleted) {
      (void)api_.delete_pod(pod_uid);
    }
  }
}

void JobController::create_pods(const Job& job) {
  const int n = std::max(job.spec.completions, job.spec.parallelism);
  for (int i = 0; i < n; ++i) {
    create_pod_at(job, i, i + 1);
  }
}

void JobController::create_pod_at(const Job& job, int index, int stagger) {
  Pod pod;
  pod.meta.name = strfmt("%s-%d", job.meta.name.c_str(), index);
  pod.meta.ns = job.meta.ns;
  pod.meta.owner_uid = job.meta.uid;
  pod.meta.annotations = job.meta.annotations;  // vni annotation flows down
  pod.spec = job.spec.pod_template;
  // Each pod-object creation costs one API round-trip; stagger them.
  const SimDuration delay =
      jittered(api_.params().pod_create_api_cost) * stagger;
  const Uid owner = job.meta.uid;
  const std::uint64_t gen = incarnation_;
  api_.loop().schedule_after(delay, [this, pod, owner, gen] {
    if (gen != incarnation_) return;  // issued by a crashed incarnation
    // The job may have been deleted while this creation was in flight.
    auto j = api_.get_job(owner);
    if (!j.is_ok() || j.value().meta.deletion_requested) return;
    auto r = api_.create_pod(pod);
    if (!r.is_ok()) {
      SHS_WARN(kTag) << "pod create failed: " << r.status();
    }
  });
}

}  // namespace shs::k8s
