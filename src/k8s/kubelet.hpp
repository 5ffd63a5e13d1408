// kubelet.hpp — per-node agent driving pod lifecycles through the CRI.
//
// The admission behaviour of Figs 9-12 comes from here: pod create and
// teardown operations serialize through a small slot pool per node
// (`kubelet_max_parallel_ops`), each stage paying its modeled cost.  When
// submission outpaces the drain rate, the queue — and with it the paper's
// "job admission delay" — grows.
//
// Grace-period enforcement also lives here: a deleted pod gets at most
// min(spec.termination_grace_s, 30) seconds before the container is
// stopped, the bound the CXI CNI plugin relies on for the 30 s VNI
// quarantine (Section III-C1).
//
// Change-driven: each sync looks only at the pods bound to this node that
// changed since the last one (the API server's per-node change sink), or
// that left the kubelet's own queues.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "k8s/api_server.hpp"
#include "k8s/pod_runtime.hpp"
#include "util/rng.hpp"

namespace shs::k8s {

/// Hard ceiling on termination grace for VNI-annotated pods (seconds).
inline constexpr int kMaxVniGraceSeconds = 30;

class Kubelet {
 public:
  Kubelet(ApiServer& api, std::string node, PodRuntime& runtime, Rng rng);
  ~Kubelet();
  Kubelet(const Kubelet&) = delete;
  Kubelet& operator=(const Kubelet&) = delete;

  void start();
  void stop();

  [[nodiscard]] const std::string& node() const noexcept { return node_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return create_queue_.size() + teardown_queue_.size();
  }

 private:
  void sync();
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
  sim::EventLoop::TaskId task_ = sim::EventLoop::kInvalidTask;
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
