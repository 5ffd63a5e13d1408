// job_controller.hpp — creates pods for Jobs, tracks completion, cascades
// deletion, and implements ttlSecondsAfterFinished=0 ("Jobs are configured
// to be deleted immediately after completion", Section IV-B).
//
// Change-driven: each periodic tick re-evaluates only the jobs marked
// dirty since the last one — a job whose object or whose pods changed
// (the API server's change sink), or whose controller-local state
// (tracked, TTL-issued, seen indices, replacements in flight) changed.
// A job that is not dirty would evaluate exactly as it did last time,
// which produced no action, so skipping it changes nothing.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "k8s/api_server.hpp"
#include "util/rng.hpp"

namespace shs::k8s {

inline constexpr const char* kJobFinalizer = "shs.io/job-controller";

class JobController {
 public:
  JobController(ApiServer& api, Rng rng);
  ~JobController();
  JobController(const JobController&) = delete;
  JobController& operator=(const JobController&) = delete;

  /// Starts the periodic reconcile loop.
  void start();
  void stop();

  /// Simulates a controller process crash + restart: wipes every
  /// in-memory table, drops in-flight pod creations / TTL deletions from
  /// the old incarnation, and rebuilds tracking state level-triggered
  /// from the API server.  The job finalizer is the durable marker that
  /// creation began; for incomplete tracked jobs every expected index is
  /// marked seen, so the first reconcile recreates any pod whose
  /// in-flight create died with the crash.  TTL deletions re-issue
  /// (at-least-once; deleting a gone job is a no-op).
  void restart_from_api();

  /// Number of jobs currently tracked as incomplete (diagnostics).
  [[nodiscard]] std::size_t inflight_jobs() const {
    return pods_created_.size();
  }

  /// Replacement pods created for vanished ones (scheduler evictions
  /// off dead switches — the fault-tolerance drain path).
  [[nodiscard]] std::size_t pods_replaced() const noexcept {
    return pods_replaced_;
  }

 private:
  void reconcile();
  void create_pods(const Job& job);
  /// (Re)creates the single pod with index `index` for `job` after the
  /// usual per-pod API cost.
  void create_pod_at(const Job& job, int index, int stagger);
  SimDuration jittered(SimDuration d) {
    return static_cast<SimDuration>(
        static_cast<double>(d) * rng_.jitter(api_.params().jitter_amplitude));
  }

  ApiServer& api_;
  Rng rng_;
  sim::EventLoop::TaskId task_ = sim::EventLoop::kInvalidTask;
  SubId job_sink_ = 0;
  SubId pod_sink_ = 0;
  /// Jobs to re-evaluate on the next tick, in uid order.
  std::set<Uid> dirty_;
  /// Bumped by restart_from_api(); callbacks scheduled by an older
  /// incarnation check it and bail.
  std::uint64_t incarnation_ = 0;
  /// Jobs whose pods have been created (or are being created).
  std::unordered_set<Uid> pods_created_;
  /// Jobs with a TTL deletion already issued.
  std::unordered_set<Uid> ttl_deleted_;
  /// Pod indices ever observed alive, per job.  Only an index that has
  /// *existed* and is now missing was deleted out from under us
  /// (eviction) — an index never seen is an initial staggered creation
  /// still landing, which must not be duplicated.
  std::unordered_map<Uid, std::unordered_set<int>> seen_indices_;
  /// (job, pod index) replacements whose staggered create has not been
  /// observed in the store yet — keeps a reconcile cycle that runs
  /// before the create lands from double-replacing the same index.
  std::set<std::pair<Uid, int>> replacements_in_flight_;
  std::size_t pods_replaced_ = 0;
};

}  // namespace shs::k8s
