// scheduler.hpp — binds pending pods to nodes.
//
// Implements the placement features the paper's evaluation needs:
// topology-spread constraints ("spread the two involved containers onto
// the two nodes", Section IV-A) plus fabric-topology awareness for
// multi-switch clusters.  Pods sharing a non-empty `spec.spread_key` are
// placed on distinct nodes where possible, and — when the cluster spans
// several switches — preferentially on nodes attached to a switch that
// already hosts members of the same group, so tightly coupled ranks stay
// one hop apart; everything else balances by bound-pod count.
//
// Change-driven: the load view (bound pods per node, spread-group members
// per node and per switch) and the pending queue are kept up to date from
// the pods that changed since the last cycle (the API server's change
// sink) and from the scheduler's own in-flight binds, so a cycle costs
// O(changes + quota * nodes), not O(pods).  Switch health is polled once
// per switch per cycle; a switch that went unhealthy since the last cycle
// gets its nodes' pods (an index lookup) checked for draining.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "k8s/api_server.hpp"
#include "util/rng.hpp"

namespace shs::k8s {

inline constexpr const char* kKubeletFinalizer = "shs.io/kubelet";

class Scheduler {
 public:
  /// `node_switch` maps node name -> fabric switch id; empty means "no
  /// topology knowledge" (every node counts as the same switch).  Nodes
  /// missing from a non-empty map share an "unknown" pseudo-switch
  /// distinct from every real one.
  Scheduler(ApiServer& api, std::vector<std::string> nodes, Rng rng,
            std::unordered_map<std::string, std::uint32_t> node_switch = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void start();
  void stop();

  /// Simulates a scheduler process crash + restart: every in-memory bind
  /// decision is dropped and in-flight bind writes from the old
  /// incarnation never land.  The new incarnation reconciles purely from
  /// the API server — pods whose binds were lost are still Pending there
  /// and get re-placed on the next cycle.  Telemetry counters survive
  /// (they describe the run, not the process).
  void restart_from_api();

  [[nodiscard]] std::size_t binds_issued() const noexcept {
    return telemetry_.binds;
  }
  /// Binds whose spread group already had members on a different switch
  /// (telemetry for the scale-out bench).
  [[nodiscard]] std::size_t cross_switch_binds() const noexcept {
    return telemetry_.cross_switch_binds;
  }

  /// Snapshot of the fabric's cross-switch congestion, sampled whenever
  /// the scheduler is forced to split a spread group across switches
  /// (the placements whose traffic rides the contended uplinks).  The
  /// stack wires this to Fabric::max_uplink_lag.
  using CongestionProbe = std::function<SimDuration()>;
  void set_congestion_probe(CongestionProbe probe) {
    congestion_probe_ = std::move(probe);
  }

  /// Fabric-health input: returns true when the given switch is healthy.
  /// When set, the scheduler (a) never binds onto a node whose switch is
  /// unhealthy, and (b) drains pods already on such nodes — unstarted
  /// pods are unbound back to Pending, started ones are evicted (deleted;
  /// the job controller replaces them).  Unset = all switches healthy.
  using SwitchHealthProbe = std::function<bool(std::uint32_t)>;
  void set_switch_health_probe(SwitchHealthProbe probe) {
    switch_health_probe_ = std::move(probe);
  }

  /// Aggregated bind telemetry, congestion included.
  struct BindTelemetry {
    std::size_t binds = 0;
    std::size_t cross_switch_binds = 0;
    /// Cross-switch binds for which the congestion probe was sampled.
    std::uint64_t congestion_samples = 0;
    /// Worst / summed fabric uplink queue lag over those samples.
    SimDuration max_cross_switch_lag = 0;
    SimDuration total_cross_switch_lag = 0;
    /// Pods taken off nodes whose switch went unhealthy: unbound back to
    /// Pending (rebound) or deleted for replacement (evicted).
    std::size_t drained_rebound = 0;
    std::size_t drained_evicted = 0;

    [[nodiscard]] std::size_t drained_total() const noexcept {
      return drained_rebound + drained_evicted;
    }

    [[nodiscard]] double mean_cross_switch_lag_us() const noexcept {
      return congestion_samples == 0
                 ? 0.0
                 : to_micros(total_cross_switch_lag) /
                       static_cast<double>(congestion_samples);
    }
  };
  [[nodiscard]] BindTelemetry bind_telemetry() const noexcept {
    return telemetry_;
  }

 private:
  void cycle();
  [[nodiscard]] std::uint32_t switch_of(const std::string& node) const;
  /// True when `switch_id` may host new work (probe unset, pseudo-switch,
  /// or the probe reports healthy).
  [[nodiscard]] bool switch_usable(std::uint32_t switch_id) const;
  /// Takes the drained pods off their dead-switch nodes (see
  /// set_switch_health_probe).
  void drain(const std::vector<Uid>& uids);
  /// Marks every pod dirty and empties the load view: the initial list
  /// at construction and the relist after a restart (the only full walk).
  void relist();
  /// Re-reads the dirty pods into the pending queue and the load view.
  /// Returns the bound dirty pods (drain candidates).
  std::set<Uid> refresh();
  /// Adds (`delta` = +1) or removes (-1) one pod placed on `node` in
  /// spread group `spread_key` from the load view.
  void count_load(const std::string& node, const std::string& spread_key,
                  int delta);

  /// Where the load view counts one pod: its node and spread group.
  struct Placement {
    std::string node;
    std::string spread_key;
  };
  /// One spread group's members in the load view.
  struct SpreadGroup {
    int members = 0;
    std::unordered_map<std::size_t, int> per_slot;  ///< node slot -> count
    std::unordered_map<std::uint32_t, int> per_switch;
  };

  ApiServer& api_;
  std::vector<std::string> nodes_;
  Rng rng_;
  std::unordered_map<std::string, std::uint32_t> node_switch_;
  /// switch_of(nodes_[i]), precomputed in the constructor so the scoring
  /// loop never does a by-name map lookup.
  std::vector<std::uint32_t> node_switch_ids_;
  /// Node name -> load slot (one per distinct name in nodes_), and the
  /// slot of each nodes_[i].
  std::unordered_map<std::string, std::size_t> slot_of_;
  std::vector<std::size_t> node_slot_;
  /// Every switch in node_switch_ with the nodes behind it.
  std::unordered_map<std::uint32_t, std::vector<std::string>> switch_nodes_;
  sim::EventLoop::TaskId task_ = sim::EventLoop::kInvalidTask;
  /// Bumped by restart_from_api(); deferred API writes scheduled by an
  /// older incarnation check it and bail (the crashed process's
  /// in-flight RPCs die with it).
  std::uint64_t incarnation_ = 0;
  /// Bind decisions whose deferred API write has not landed yet.  They
  /// are in the load view so later cycles see them in their load and
  /// same-switch accounting (the pod object still looks unbound until
  /// the write fires).
  std::unordered_map<Uid, Placement> in_flight_;
  SubId pod_sink_ = 0;
  /// Pods to re-read on the next cycle, in uid order.
  std::set<Uid> dirty_;
  /// Unbound, undeleted Pending pods with no bind in flight, uid order.
  std::set<Uid> pending_;
  /// The load view counts every bound pod (as last read; listed here)
  /// and every in-flight bind, per node slot and per spread group.
  std::unordered_map<Uid, Placement> counted_;
  std::vector<int> bound_;  ///< per slot
  std::unordered_map<std::string, SpreadGroup> groups_;
  /// Switches the latest cycle's health poll found unusable.
  std::unordered_set<std::uint32_t> unusable_;
  CongestionProbe congestion_probe_;
  SwitchHealthProbe switch_health_probe_;
  BindTelemetry telemetry_;
  std::size_t rr_ = 0;  ///< round-robin tiebreaker
};

}  // namespace shs::k8s
