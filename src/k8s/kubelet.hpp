// kubelet.hpp — per-node agent driving pod lifecycles through the CRI.
//
// The admission behaviour of Figs 9-12 comes from here: pod create and
// teardown operations serialize through small per-node worker pools
// (`kubelet_create_workers`, `kubelet_teardown_workers`), each stage
// paying its modeled cost.  When submission outpaces the drain rate, the
// queue — and with it the paper's "job admission delay" — grows.
//
// Grace-period enforcement also lives here: a deleted pod gets at most
// min(spec.termination_grace_s, 30) seconds before the container is
// stopped, the bound the CXI CNI plugin relies on for the 30 s VNI
// quarantine (Section III-C1).
//
// Change-driven: each sync looks only at the pods bound to this node that
// changed since the last one (the API server's per-node change sink), or
// that left the kubelet's own queues.  Kubelets keep no timer of their
// own: one KubeletRound per cluster ticks every `kubelet_sync_period` and
// syncs only the kubelets that have such pods, so an idle node costs no
// loop event.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "k8s/api_server.hpp"
#include "k8s/pod_runtime.hpp"
#include "util/rng.hpp"

namespace shs::k8s {

/// Hard ceiling on termination grace for VNI-annotated pods (seconds).
inline constexpr int kMaxVniGraceSeconds = 30;

class Kubelet;

/// The periodic sync of every kubelet in a cluster, as one loop task.
///
/// A kubelet wakes the round when its dirty set turns non-empty.  Each
/// round syncs the woken kubelets in ascending registration index: one
/// woken by an earlier kubelet's sync in the same round (index above the
/// cursor) is still visited, one at or below the cursor waits for the
/// next round.  That is the order in which per-kubelet timers started
/// in registration order would have fired at the same instant, and a
/// kubelet with nothing dirty syncs to a no-op, so skipping it changes
/// nothing but the number of loop events.
///
/// The round's task is scheduled at construction and cancelled at
/// destruction.  Kubelets register for the round's lifetime; the loop
/// must not run the round after one of them is destroyed.
class KubeletRound {
 public:
  KubeletRound(sim::EventLoop& loop, SimDuration period);
  ~KubeletRound() { loop_.cancel(task_); }
  KubeletRound(const KubeletRound&) = delete;
  KubeletRound& operator=(const KubeletRound&) = delete;

  /// Appends `kubelet`; returns its index.
  std::size_t add(Kubelet& kubelet);
  /// Marks kubelet `index` for a sync.
  void wake(std::size_t index) { woken_.insert(index); }

 private:
  void run();

  sim::EventLoop& loop_;
  sim::EventLoop::TaskId task_;
  std::vector<Kubelet*> kubelets_;
  std::set<std::size_t> woken_;
};

class Kubelet {
 public:
  /// Registers with `round`, which syncs this kubelet from then on.
  Kubelet(ApiServer& api, std::string node, PodRuntime& runtime, Rng rng,
          KubeletRound& round);
  ~Kubelet();
  Kubelet(const Kubelet&) = delete;
  Kubelet& operator=(const Kubelet&) = delete;

  [[nodiscard]] const std::string& node() const noexcept { return node_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return create_queue_.size() + teardown_queue_.size();
  }

 private:
  friend class KubeletRound;

  void sync();
  /// Queues `uid` for the next sync, waking the round if nothing was.
  void mark_dirty(Uid uid);
  void pump();
  // Create pipeline, one method per stage; the slot stays held throughout.
  void run_create(Uid uid);
  void stage_attach(Uid uid);
  void stage_image(Uid uid);
  void stage_start(Uid uid);
  void mark_running(Uid uid);
  void run_teardown(Uid uid);
  /// Stage helper: schedules `next` after `cost` (jittered), keeping the
  /// slot held.
  void stage(SimDuration cost, std::function<void()> next);
  void finish_create_op(Uid uid);
  void finish_teardown_op(Uid uid);
  void fail_pod(Pod pod, const std::string& why);
  SimDuration jittered(SimDuration d) {
    return static_cast<SimDuration>(
        static_cast<double>(d) * rng_.jitter(api_.params().jitter_amplitude));
  }

  ApiServer& api_;
  std::string node_;
  PodRuntime& runtime_;
  Rng rng_;
  KubeletRound& round_;
  std::size_t index_;  ///< in round_
  SubId pod_sink_ = 0;
  /// Pods to look at on the next sync, in uid order.
  std::set<Uid> dirty_;

  /// Separate FIFO pools, as the real kubelet runs pod creation and pod
  /// killing on distinct worker sets.  Creation workers bound admission
  /// throughput (the admission-delay curve of Fig 10); teardown workers
  /// bound removal throughput (the running-job accumulation of Figs 9
  /// and 11).
  std::deque<Uid> create_queue_;
  std::deque<Uid> teardown_queue_;
  std::unordered_set<Uid> queued_or_active_;  ///< dedup guard
  std::unordered_set<Uid> torn_down_;         ///< teardown completed
  int create_active_ = 0;
  int teardown_active_ = 0;
  int cni_attempts_limit_ = 100;  ///< retries while waiting for the VNI CRD
  std::unordered_map<Uid, int> cni_attempts_;
};

}  // namespace shs::k8s
