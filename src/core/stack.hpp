// stack.hpp — SlingshotStack: the whole converged HPC-Cloud cluster in
// one object.
//
// Assembles every layer the paper's Figure 2 shows, per node: a Linux
// kernel model, a Cassini NIC on the shared Rosetta switch, the
// (netns-extended) CXI driver, a container runtime with the chained CNI
// plugins (bridge overlay -> CXI), and a kubelet — plus the cluster-wide
// pieces: API server, job controller, scheduler, Metacontroller-style VNI
// controller, VNI endpoint, and the VNI database.
//
// This is the public entry point examples and benches use:
//     core::SlingshotStack stack;
//     auto job = stack.submit_job({.name = "solver", .vni_annotation =
//                                  "true", .pods = 2});
//     stack.wait_job_start(job.value());
//     auto pod = stack.exec_in_pod(...);
//     auto dom = stack.domain_for(pod.value());
//     auto ep  = dom.open_endpoint(vni);   // netns-authenticated
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cxi_cni.hpp"
#include "core/vni_endpoint.hpp"
#include "core/vni_registry.hpp"
#include "cri/bridge_cni.hpp"
#include "cri/runtime.hpp"
#include "cxi/driver.hpp"
#include "db/database.hpp"
#include "hsn/fabric.hpp"
#include "hsn/shard_engine.hpp"
#include "k8s/api_server.hpp"
#include "k8s/job_controller.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/metacontroller.hpp"
#include "k8s/scheduler.hpp"
#include "ofi/domain.hpp"
#include "sim/event_loop.hpp"

namespace shs::core {

struct StackConfig {
  std::size_t nodes = 2;  ///< the paper's testbed: two OpenCUBE nodes
  cxi::AuthMode auth_mode = cxi::AuthMode::kNetnsExtended;
  k8s::K8sParams k8s_params{};
  hsn::TimingConfig timing{};
  /// Fabric wiring: the paper's single switch by default; fat-tree or
  /// dragonfly for 64-256 node scale-out scenarios.  `topology.routing`
  /// selects the fabric-wide routing policy (static minimal, Valiant, or
  /// adaptive UGAL — see hsn::RoutingPolicy).
  hsn::TopologyConfig topology{};
  VniRegistryConfig vni{};
  /// Fabric-manager reaction time to an injected data-plane failure or
  /// restore: detection (link-down sweep) + route recomputation + switch
  /// reprogramming, modeled as one virtual-time delay between injection
  /// and the repaired tables landing on every switch.  Packets routed in
  /// that window onto the dead element are dropped and counted.
  SimDuration fm_reroute_delay = from_millis(5);
  /// NIC-level reliable delivery (retransmit/backoff/dedup; see
  /// docs/reliability.md).  Off by default — the paper's fabric relies
  /// on link-level reliability, so benches measure the raw path.  When
  /// enabled, the stack installs a retry hook that advances the event
  /// loop through each backoff, so a scheduled fabric-manager repair
  /// (fm_reroute_delay) can land *during* an op's retry window and the
  /// op completes on the republished tables.  That hook drives the loop
  /// from the sender's thread: enable only for single-threaded drivers
  /// (examples, chaos harnesses) — not under multi-threaded MPI ranks.
  hsn::ReliabilityConfig reliability{};
  /// Worker threads for the sharded data plane (hsn::ShardEngine).  0
  /// keeps the legacy synchronous path (NICs walk packets to completion
  /// inline) and constructs no engine; >= 1 builds an engine over the
  /// fabric — 1 runs its windows inline (the reference schedule), N > 1
  /// drives the per-switch-group domains from a worker pool.  The
  /// engine covers the full verb set (sends, one-sided RMA writes and
  /// reads, their completion replies, and reliable retransmits of all
  /// of them); per-seed results are bit-identical across thread counts
  /// when `timing.jitter_amplitude` is 0; see docs/performance.md.
  int data_plane_threads = 0;
  /// Staggered plan publish (docs/fault_tolerance.md, "Control-plane
  /// fault tolerance"): maximum per-switch apply delay after a repair
  /// commits a new plan epoch.  0 (the default) keeps the legacy
  /// instantaneous everywhere-at-once publish.  With a ShardEngine the
  /// waves drain deterministically at window barriers; in synchronous
  /// mode they drain from the event loop.
  SimDuration publish_stagger = 0;
  /// Fabric-manager watchdog: polls FM health every
  /// `fm_watchdog_interval`; on a crash it flips every NIC into degraded
  /// mode (stretched retry budgets for replan-dependent drops), attempts
  /// restart with exponential backoff, and accumulates fm_downtime_vt().
  /// Off by default — only the chaos/recovery harnesses arm crashes.
  bool fm_watchdog = false;
  SimDuration fm_watchdog_interval = from_millis(2);
  std::uint64_t seed = 0x5005;
  /// Install the CXI CNI plugin into the chain.  Disabling it models a
  /// stock cluster (pods with vni annotations then fail to launch).
  bool install_cxi_cni = true;
};

/// Options for submitting a Job (Listing 1 / Listing 3 of the paper).
struct JobOptions {
  std::string name;
  std::string ns = "default";
  /// "" = no Slingshot; "true" = Per-Resource VNI; else a VniClaim name.
  std::string vni_annotation;
  int pods = 1;
  SimDuration run_duration = from_millis(50);
  int grace_s = 5;
  int ttl_after_finished_s = -1;  ///< 0 = delete right after completion
  std::string image = "alpine";
  std::string spread_key;  ///< topology-spread group (OSU pod placement)
};

class SlingshotStack {
 public:
  /// One node's full software stack.
  struct Node {
    std::string name;
    hsn::NicAddr nic = 0;
    std::unique_ptr<linuxsim::Kernel> kernel;
    std::unique_ptr<cxi::CxiDriver> driver;
    std::unique_ptr<cri::ContainerRuntime> runtime;
    std::unique_ptr<k8s::Kubelet> kubelet;
    std::shared_ptr<CxiCniPlugin> cxi_cni;      ///< null if not installed
    std::shared_ptr<cri::BridgeCni> bridge_cni;
    linuxsim::Pid root_pid = 1;  ///< host init: privileged plane identity
  };

  /// A process running inside a pod ("kubectl exec" result).
  struct PodHandle {
    k8s::Uid pod_uid = k8s::kNoUid;
    std::size_t node_index = 0;
    linuxsim::Pid pid = 0;
  };

  explicit SlingshotStack(StackConfig config = {});
  ~SlingshotStack();
  SlingshotStack(const SlingshotStack&) = delete;
  SlingshotStack& operator=(const SlingshotStack&) = delete;

  // -- Accessors.
  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] k8s::ApiServer& api() noexcept { return *api_; }
  [[nodiscard]] hsn::Fabric& fabric() noexcept { return *fabric_; }
  /// The sharded data-plane engine, or nullptr when
  /// StackConfig::data_plane_threads is 0.  Driver-thread-only API; see
  /// hsn/shard_engine.hpp for the windowing/ownership contract.
  [[nodiscard]] hsn::ShardEngine* shard_engine() noexcept {
    return shard_engine_.get();
  }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] VniRegistry& registry() noexcept { return *registry_; }
  [[nodiscard]] const k8s::Scheduler& scheduler() const noexcept {
    return *scheduler_;
  }
  [[nodiscard]] VniEndpoint& vni_endpoint() noexcept { return *endpoint_; }
  [[nodiscard]] db::Database& database() noexcept { return *db_; }
  [[nodiscard]] const StackConfig& config() const noexcept { return config_; }

  // -- Workload submission.
  Result<k8s::Uid> submit_job(const JobOptions& options);
  Result<k8s::Uid> create_claim(const std::string& ns,
                                const std::string& claim_name);
  Status delete_claim(k8s::Uid uid);
  Status delete_job(k8s::Uid uid);

  // -- Driving virtual time.
  void run_for(SimDuration d) { loop_.run_for(d); }
  std::size_t run_until_idle() { return loop_.run_until_idle(); }
  /// Steps the loop until `pred()` or `max_wait` virtual time elapses.
  bool run_until(const std::function<bool()>& pred, SimDuration max_wait,
                 SimDuration step = from_millis(20));

  /// Waits for the job's first pod to reach Running ("actual job start").
  bool wait_job_start(k8s::Uid job, SimDuration max_wait = 120 * kSecond);
  bool wait_job_complete(k8s::Uid job, SimDuration max_wait = 120 * kSecond);
  /// Waits until the job object has been fully removed.
  bool wait_job_gone(k8s::Uid job, SimDuration max_wait = 120 * kSecond);

  [[nodiscard]] std::vector<k8s::Pod> pods_of_job(k8s::Uid job) const;

  // -- Data plane access for pod workloads.
  Result<PodHandle> exec_in_pod(k8s::Uid pod_uid);
  /// A libfabric-style domain bound to the handle's process — endpoint
  /// creation through it is netns-authenticated by the node's driver.
  Result<ofi::Domain> domain_for(const PodHandle& handle);

  // -- Failure injection: control plane.
  void set_vni_endpoint_available(bool up) {
    endpoint_->set_available(up);
  }

  // -- Failure injection: data plane (links and switches).
  //
  // Each call marks the fabric's data plane down/up immediately and
  // schedules the fabric manager's repair after `fm_reroute_delay` of
  // virtual time — the honest failure window during which packets
  // committed to the dead element are lost.  The scheduler sees switch
  // health through its probe and drains/avoids unhealthy switches.
  /// Simulated k8s control-plane process restarts: the controller drops
  /// its in-memory state (in-flight API writes die with it) and rebuilds
  /// level-triggered from the API server.
  void restart_scheduler() { scheduler_->restart_from_api(); }
  void restart_job_controller() { job_controller_->restart_from_api(); }

  Status fail_link(hsn::SwitchId a, hsn::SwitchId b);
  Status restore_link(hsn::SwitchId a, hsn::SwitchId b);
  Status fail_switch(hsn::SwitchId s);
  Status restore_switch(hsn::SwitchId s);

  // -- Re-route observability.
  /// Completed fabric-manager re-route events (repairs that landed).
  [[nodiscard]] std::size_t reroute_events() const noexcept {
    return reroute_events_;
  }
  /// Injection -> repaired-tables-published latency of the most recent
  /// re-route (0 until the first repair lands).
  [[nodiscard]] SimDuration last_reroute_latency() const noexcept {
    return last_reroute_latency_;
  }
  /// Sum over all re-route events (mean = total / events).
  [[nodiscard]] SimDuration total_reroute_latency() const noexcept {
    return total_reroute_latency_;
  }
  /// Version of the routing tables currently compiled and published to
  /// every switch: 0 for the pristine build, +1 per fabric-manager
  /// repair.  Pairs with reroute_events() to observe that an injected
  /// failure actually produced a republished (re-compiled) plan.
  [[nodiscard]] std::uint64_t published_plan_version() const {
    return fabric_->manager().plan_version();
  }
  /// Reliable-delivery accounting summed over every NIC (all zeros when
  /// `StackConfig::reliability` is off) — the stack-metrics view of
  /// retransmits, suppressed duplicates, exhausted budgets, and ops
  /// recovered across a replan.
  [[nodiscard]] hsn::ReliabilityCounters reliability_counters() const {
    return fabric_->reliability_totals();
  }
  /// Sharded data-plane executor counters (windows/flush, items/window,
  /// pool hit rate, barrier and wakeup amortization — the glossary
  /// lives in docs/performance.md).  All zeros when
  /// `StackConfig::data_plane_threads` is 0: the perf claims of the
  /// batched executor are observable through the stack, not asserted.
  [[nodiscard]] hsn::ShardEngineStats data_plane_stats() const {
    return shard_engine_ ? shard_engine_->stats() : hsn::ShardEngineStats{};
  }

  // -- Control-plane recovery observability (all zeros unless a crash
  //    was armed via fabric().manager().arm_crash and fm_watchdog is on).

  /// Virtual time the watchdog observed the fabric manager down
  /// (accumulated per watchdog tick while crashed).
  [[nodiscard]] SimDuration fm_downtime_vt() const noexcept {
    return fm_downtime_vt_;
  }
  /// Fabric-wide packets dropped because a switch's applied plan lagged
  /// the committed epoch (DropReason::kStaleEpoch) — the observable cost
  /// of staggered publishing, never silent loss.
  [[nodiscard]] std::uint64_t stale_epoch_drops() const {
    return fabric_->total_counters().dropped_stale_epoch;
  }
  /// Successful fabric-manager restart recoveries (journal replay +
  /// republish).
  [[nodiscard]] std::size_t recovered_publishes() const {
    return fabric_->manager().recovered_publishes();
  }

 private:
  /// Schedules the fabric manager's repair for a just-injected failure
  /// or restore and records the re-route latency metric when it lands.
  void schedule_reroute();
  /// Drains a staggered publish's apply waves from the event loop (the
  /// synchronous-mode path; under a ShardEngine the waves drain at
  /// window barriers instead).
  void schedule_publish_waves();
  /// Starts the periodic fabric-manager health watchdog (fm_watchdog).
  void start_fm_watchdog();

  StackConfig config_;
  sim::EventLoop loop_;
  Rng master_rng_;
  std::unique_ptr<k8s::ApiServer> api_;
  std::unique_ptr<hsn::Fabric> fabric_;
  /// Declared after fabric_ so it is destroyed first (its worker pool
  /// must quiesce while the fabric is still alive).
  std::unique_ptr<hsn::ShardEngine> shard_engine_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<VniRegistry> registry_;
  std::unique_ptr<VniEndpoint> endpoint_;
  std::unique_ptr<k8s::JobController> job_controller_;
  std::unique_ptr<k8s::Scheduler> scheduler_;
  std::unique_ptr<k8s::DecoratorController> vni_controller_;
  std::unique_ptr<k8s::KubeletRound> kubelet_round_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t reroute_events_ = 0;
  SimDuration last_reroute_latency_ = 0;
  SimDuration total_reroute_latency_ = 0;
  // -- Fabric-manager watchdog state (see start_fm_watchdog).
  bool fm_degraded_ = false;
  int fm_restart_backoff_ = 0;  ///< restart backoff, in watchdog ticks
  SimTime fm_next_restart_vt_ = 0;
  SimDuration fm_downtime_vt_ = 0;
};

}  // namespace shs::core
