// topology.hpp — fabric topology planning.
//
// The paper's testbed is two nodes on one Rosetta switch; production
// Slingshot fabrics wire many switches into fat-tree or dragonfly
// topologies.  A TopologyPlan turns a TopologyConfig + node count into
// the concrete switch graph the Fabric instantiates:
//   * which edge switch each NIC attaches to,
//   * the directed inter-switch links (each with its own rate/latency,
//     so per-link virtual-time accounting stays honest under contention),
//   * a flat next-hop table realizing minimal routing (fat-tree:
//     deterministic spine selection; dragonfly: dimension-order
//     local -> global -> local),
//   * the routing metadata adaptive policies need at packet time: the
//     full *set* of minimal next hops per destination (fat-tree spine
//     candidates), minimal hop distances between switches (UGAL's delay
//     estimate), and the dragonfly group map (Valiant intermediate
//     selection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "hsn/types.hpp"
#include "util/units.hpp"

namespace shs::hsn {

enum class TopologyKind : std::uint8_t {
  kSingleSwitch = 0,  ///< the paper's testbed: every NIC on one switch
  kFatTree,           ///< 2-level: leaf switches under a spine layer
  kDragonfly,         ///< groups of switches, all-to-all global links
};

constexpr std::string_view topology_kind_name(TopologyKind k) noexcept {
  switch (k) {
    case TopologyKind::kSingleSwitch: return "single-switch";
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kDragonfly: return "dragonfly";
  }
  return "UNKNOWN";
}

/// How switches pick among routes (Slingshot's Rosetta supports adaptive
/// non-minimal routing; the policy is fabric-wide here, as the fabric
/// manager would program it).
enum class RoutingPolicy : std::uint8_t {
  /// Static minimal routes only — the PR 2 behaviour: fat-tree spine
  /// chosen by a seeded hash of the (src leaf, dst leaf) pair, dragonfly
  /// dimension-order local -> global -> local.
  kMinimal = 0,
  /// Valiant load balancing: every cross-switch packet detours through a
  /// random intermediate (fat-tree: uniform random spine; dragonfly:
  /// random switch in a third group), trading path length for guaranteed
  /// load spreading under adversarial patterns.
  kValiant,
  /// Universal Globally-Adaptive Load-balanced routing: per packet,
  /// compare the estimated delay of the minimal route against one
  /// sampled Valiant route (queue lag + hops x per-hop cost) and take
  /// the cheaper.  On fat-trees this degenerates to congestion-aware
  /// spine selection among the minimal candidates.
  kUgal,
};
constexpr int kNumRoutingPolicies = 3;

constexpr std::string_view routing_policy_name(RoutingPolicy p) noexcept {
  switch (p) {
    case RoutingPolicy::kMinimal: return "minimal";
    case RoutingPolicy::kValiant: return "valiant";
    case RoutingPolicy::kUgal: return "ugal";
  }
  return "UNKNOWN";
}

struct TopologyConfig {
  TopologyKind kind = TopologyKind::kSingleSwitch;
  /// Route selection policy (fabric-wide, applied at the source edge).
  RoutingPolicy routing = RoutingPolicy::kMinimal;
  /// NICs per edge (leaf / group-local) switch.  Ignored by single-switch.
  std::size_t nodes_per_switch = 16;
  /// Fat-tree: spine switches above the leaf layer.
  std::size_t spines = 2;
  /// Dragonfly: switches per group (`a` in the canonical parametrization).
  std::size_t switches_per_group = 4;
  /// Inter-switch (leaf-spine / group-local) link characteristics.
  DataRate link_rate = DataRate::gbps(200.0);
  SimDuration link_latency = from_micros(0.30);
  /// Dragonfly global (optical, inter-group) links are longer.
  SimDuration global_link_latency = from_micros(1.20);
};

/// The set of dead fabric elements the fabric manager is currently
/// routing around.  Links are directed (one key per direction — a
/// physical link failure kills both); a dead switch implicitly kills
/// every link touching it.
struct FailureSet {
  std::unordered_set<std::uint64_t> links;  ///< directed link_key entries
  std::unordered_set<SwitchId> switches;

  static constexpr std::uint64_t link_key(SwitchId from,
                                          SwitchId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  [[nodiscard]] bool link_dead(SwitchId from, SwitchId to) const {
    return links.contains(link_key(from, to)) || switches.contains(from) ||
           switches.contains(to);
  }
  [[nodiscard]] bool empty() const noexcept {
    return links.empty() && switches.empty();
  }
};

/// Reusable workspace for plan derivation.  The fabric manager keeps one
/// across republishes so repeated failures do not re-allocate the
/// adjacency and BFS scratch each time.
struct PlanScratch {
  /// CSR adjacency of the surviving links: switch `s`'s neighbours are
  /// `adj[adj_begin[s] .. adj_begin[s + 1]]`, ascending.
  std::vector<std::uint32_t> adj_begin;
  std::vector<SwitchId> adj;
  std::vector<SwitchId> queue;  ///< BFS frontier (head index, no pops)
};

/// The instantiated wiring and routing tables for one fabric.  `build` is
/// total: degenerate configurations are clamped (zero counts become one)
/// rather than rejected, so Fabric::create never fails on topology
/// grounds.
///
/// The routing tables are flat and index-addressed — exactly what
/// switches consult per packet.  NIC addresses, switch ids and routing
/// targets are dense integers, so the per-packet critical section is
/// branch-and-array-only: no hashing, no allocation.  All pairwise tables
/// are row-major `n x n` vectors indexed by `s * n + d` (n =
/// switch_count); candidate sets use a CSR layout (`cand_begin[cell] ..
/// cand_begin[cell + 1]` indexes into `cand`), in the ascending switch-id
/// order adaptive tie-breaking relies on.
///
/// Plans are *versioned and republishable*: version 0 is the pristine
/// build; the fabric manager derives repaired successors via `replan`
/// and pushes them to every switch, so the routing state a switch holds
/// is always one immutable snapshot (swapped atomically, never edited
/// in place).
struct TopologyPlan {
  struct PlannedLink {
    SwitchId from = 0;
    SwitchId to = 0;
    DataRate rate;
    SimDuration latency = 0;
  };

  TopologyKind kind = TopologyKind::kSingleSwitch;
  /// Switch count, and the row stride of every pairwise table.
  std::size_t switch_count = 1;
  /// NicAddr -> edge switch hosting that NIC (index == address).
  std::vector<SwitchId> nic_home;
  /// Directed inter-switch links.
  std::vector<PlannedLink> links;
  /// Static minimal next hop per (switch, target); kInvalidSwitch when
  /// unreachable or not routed statically.
  std::vector<SwitchId> next_hop;
  /// Inter-switch links on a minimal route (BFS over the surviving
  /// `links`); kUnreachableHops when unreachable and on the diagonal.
  /// UGAL multiplies this by a per-hop cost to estimate path delay.
  std::vector<std::int32_t> min_hops;
  /// CSR offsets (n*n + 1 entries) and data of the minimal-candidate
  /// sets: every neighbour of `s` that starts a minimal route toward `d`.
  /// Defined for *all* switch pairs, not just edge destinations, so
  /// Valiant detours can target any intermediate switch.
  std::vector<std::uint32_t> cand_begin;
  std::vector<SwitchId> cand;
  /// Dragonfly group per switch; empty for other topologies.
  std::vector<SwitchId> group_of;
  /// Dragonfly constants (0 when not a dragonfly): group count and
  /// switches per group — the per-packet Valiant draw must not re-derive
  /// them with a division.
  SwitchId df_groups = 0;
  SwitchId df_per_group = 0;
  /// Routing policy copied from the config (what switches consult).
  RoutingPolicy routing = RoutingPolicy::kMinimal;
  /// Monotonic plan generation: 0 for the initial build, +1 per
  /// fabric-manager republish.
  std::uint64_t version = 0;
  /// The fabric seed the plan was built with.  Re-plans re-derive their
  /// static next hops from it, so recovery routing is deterministic per
  /// seed (and reshuffles with it), exactly like the initial build.
  std::uint64_t seed = 0;

  static constexpr int kUnreachableHops = 1 << 20;

  [[nodiscard]] SwitchId next(SwitchId s, SwitchId d) const noexcept {
    return next_hop[static_cast<std::size_t>(s) * switch_count + d];
  }
  /// Minimal hop distance s -> d (0 when s == d), or kUnreachableHops.
  [[nodiscard]] int hops_between(SwitchId s, SwitchId d) const noexcept {
    if (s == d) return 0;
    return min_hops[static_cast<std::size_t>(s) * switch_count + d];
  }
  [[nodiscard]] std::span<const SwitchId> candidates(
      SwitchId s, SwitchId d) const noexcept {
    const std::size_t cell = static_cast<std::size_t>(s) * switch_count + d;
    return {cand.data() + cand_begin[cell],
            cand.data() + cand_begin[cell + 1]};
  }

  static TopologyPlan build(const TopologyConfig& config, std::size_t nodes,
                            std::uint64_t seed);

  /// Derives into `out` a repaired plan that routes around `failures`:
  /// hop distances and candidates are recomputed over the surviving links
  /// only, and every static next hop is re-derived from the surviving
  /// minimal candidates by a seeded per-(src, dst) hash — the same
  /// determinism contract as the initial fat-tree spine selection.  Dead
  /// switches route nothing and are routed to by nobody.  An empty
  /// failure set copies this plan's tables verbatim, so a fail/restore
  /// cycle returns the fabric to byte-identical routing.  Must be called
  /// on the pristine (version 0) plan, whose `links` describe the full
  /// wiring.  `out`'s buffers are reused (the fabric manager recycles
  /// retired snapshots), as is `scratch`.
  void replan(const FailureSet& failures, std::uint64_t new_version,
              PlanScratch& scratch, TopologyPlan& out) const;
};

}  // namespace shs::hsn
