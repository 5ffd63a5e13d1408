// rosetta_switch.hpp — model of the Slingshot Rosetta switch.
//
// The property the paper relies on (Section II-C): "The Rosetta switch can
// be configured to strictly enforce VNIs and only route packets within a
// VNI if both the sender and receiver NIC have been granted access to that
// VNI."  This class implements exactly that check, plus cut-through
// timing with egress-port contention and per-traffic-class queueing
// penalties, and per-VNI delivery/drop accounting used by the isolation
// tests.
//
// Multi-switch fabrics: switches are wired together with directed uplinks
// (each carrying its own per-link, per-traffic-class virtual-time
// bandwidth horizon) and routing tables compiled by the fabric manager
// from the TopologyPlan.  A packet enters at its source NIC's edge
// switch, which performs the *source* VNI check and the per-packet
// routing decision (see RoutingPolicy); transit switches forward
// hop-by-hop along minimal routes toward the packet's current target
// (its Valiant intermediate, then its destination); the destination's
// edge switch performs the *destination* VNI check and final egress-port
// scheduling.  VNI enforcement thus stays an edge property, as on real
// Slingshot, while inter-switch contention is modeled per link.
//
// Hot-path contract (see docs/performance.md): the per-packet critical
// section under mutex_ is branch-and-array-only — no hashing, no
// allocation, no logging.  Ports and uplinks live in dense vectors
// indexed by NicAddr / peer SwitchId; routing state is an immutable
// TopologyPlan snapshot of flat tables; per-VNI counters are pre-resolved slabs
// (per-port cached pointers for the edge checks, a sorted slab index
// for transit), created only on the cold authorize/first-drop paths.
//
// Congestion telemetry: each uplink's per-class bandwidth horizon doubles
// as its congestion signal — `queue lag` is how far the horizon is ahead
// of a packet's arrival time, i.e. how long a newly arriving packet of
// that class would wait before its first bit goes on the wire.  Adaptive
// policies steer by this lag; uplink_queue_lag()/max_uplink_lag() expose
// it to the fabric manager and scheduler telemetry.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "hsn/packet.hpp"
#include "hsn/timing.hpp"
#include "hsn/topology.hpp"
#include "hsn/types.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/status.hpp"

namespace shs::hsn {

class CassiniNic;

/// Why the switch refused to route a packet.
enum class DropReason : std::uint8_t {
  kNone = 0,
  kSrcNotAuthorized,   ///< sender port lacks VNI access
  kDstNotAuthorized,   ///< receiver port lacks VNI access
  kUnknownDestination, ///< no NIC connected at the destination address
  kNoRoute,            ///< no uplink toward the destination / TTL exceeded
  kLinkDown,           ///< dead link or failed switch on the path
  kLossInjected,       ///< fault model: probabilistic loss on a lossy link
  kCorrupt,            ///< fault model: CRC failure discarded at next hop
  kAckLost,            ///< delivered, but the link-level ACK was lost
  kRxOverflow,         ///< NIC RX ring full (reported by CassiniNic)
  /// Epoch fencing (staggered publish): the packet could only progress
  /// under a plan epoch the fabric manager has committed but this switch
  /// has not applied yet — counted instead of kNoRoute/kLinkDown so the
  /// publish lag is observable and never silent loss.
  kStaleEpoch,
};

/// Stable human-readable name for a drop reason (diagnostics, examples).
[[nodiscard]] const char* drop_reason_name(DropReason r) noexcept;

/// Per-link transient-fault injection (see docs/reliability.md).  All
/// rates are independent per-packet probabilities in [0, 1], drawn from
/// the switch's dedicated fault RNG so enabling faults never perturbs
/// the routing or timing streams.  Zero-initialized = no faults.
struct FaultProfile {
  double drop_rate = 0.0;      ///< packet vanishes on the link
  double corrupt_rate = 0.0;   ///< CRC-detected corruption; discarded
  /// Delivered, but the link-level ACK back to the sender is lost.
  /// Applied only to `Packet::reliable` traffic (the only traffic that
  /// can observe the difference) at final delivery — this is what
  /// produces genuine duplicates for the NIC's suppression window.
  double ack_loss_rate = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || ack_loss_rate > 0.0;
  }
};

struct RouteResult {
  bool delivered = false;
  DropReason reason = DropReason::kNone;
  SimTime arrival_vt = 0;  ///< valid when delivered
};

/// Upper bound on NIC addresses a switch will materialize a port slot
/// for.  The port table is dense (indexed by NicAddr), so an absurd
/// address from a hand-wired rig must be rejected instead of allocating
/// gigabytes: real Slingshot fabrics top out well below a million
/// endpoints per switch.
constexpr NicAddr kMaxPortAddr = 1u << 20;

/// Hop budget for one packet.  The longest supported route is a Valiant
/// detour on a dragonfly: up to 3 inter-switch hops to the intermediate
/// plus up to 3 more to the destination = 6; the slack guards against
/// forwarding-table bugs turning into infinite recursion.
constexpr int kMaxFabricHops = 8;

/// One switch.  Thread-safe: NIC threads route concurrently.
class RosettaSwitch {
 public:
  /// Callback a NIC registers to accept delivered packets.
  using DeliveryFn = std::function<void(Packet&&)>;

  /// `seed` feeds the switch-local RNG behind Valiant intermediate
  /// selection (per-packet draws are otherwise deterministic).
  explicit RosettaSwitch(std::shared_ptr<TimingModel> timing,
                         SwitchId id = 0, std::uint64_t seed = 0);

  [[nodiscard]] SwitchId id() const noexcept { return id_; }

  /// Connects a NIC at fabric address `addr`.  Fails if taken.
  Status connect(NicAddr addr, DeliveryFn deliver);
  /// Fast-path variant: the Fabric connects its own CassiniNic objects
  /// directly, so delivery is one virtual-free member call instead of a
  /// std::function dispatch.  The NIC must outlive the switch wiring
  /// (the Fabric owns both and destroys NICs first, after traffic
  /// stops).
  Status connect(NicAddr addr, CassiniNic& nic);
  Status disconnect(NicAddr addr);

  // -- Topology wiring (done by the Fabric before any NIC attaches; not
  //    safe against concurrent routing).

  /// Adds a directed uplink to `peer` with its own rate/latency and
  /// per-traffic-class bandwidth horizon.  Fails if a link to that peer
  /// already exists.  The reference is non-owning: the Fabric owns every
  /// switch and keeps peers alive for the fabric's lifetime (owning
  /// pointers here would form A<->B cycles and leak the whole topology).
  Status add_uplink(RosettaSwitch& peer, DataRate rate,
                    SimDuration latency);
  /// Installs the NIC-home map and the routing plan this switch routes
  /// by: its static next-hop row, the minimal-candidate sets and hop
  /// distances adaptive policies consult, and the routing policy itself.
  /// Both shared and immutable; the fabric manager swaps in a new
  /// snapshot on every republish.
  void set_forwarding(std::shared_ptr<const std::vector<SwitchId>> nic_home,
                      std::shared_ptr<const TopologyPlan> plan);

  /// Fabric-manager plane: grants/revokes VNI access on a port.  In the
  /// real system the fabric manager programs this; in ours the CXI driver
  /// does, when CXI services are created/destroyed.
  Status authorize_vni(NicAddr port, Vni vni);
  Status revoke_vni(NicAddr port, Vni vni);
  [[nodiscard]] bool vni_authorized(NicAddr port, Vni vni) const;

  /// Strict VNI enforcement is on by default (the converged-deployment
  /// configuration).  Disabling reproduces a flat, unisolated fabric.
  void set_enforcement(bool on) noexcept;
  [[nodiscard]] bool enforcement() const noexcept;

  // -- Health plane (programmed by the FabricManager).

  /// Marks the whole switch failed/healthy.  A failed switch drops every
  /// packet presented to it (local injection, transit, and delivery),
  /// counted as dropped_link_down.
  void set_health(SwitchHealth health) noexcept;
  [[nodiscard]] SwitchHealth health() const noexcept;

  /// Marks the directed uplink toward `peer` up/down.  Down uplinks are
  /// excluded from every adaptive candidate set; a packet whose static
  /// next hop is down (the window before the fabric manager republishes
  /// repaired tables, or a packet mid-detour) is dropped and counted.
  Status set_uplink_state(SwitchId peer, LinkState state);
  [[nodiscard]] LinkState uplink_state(SwitchId peer) const;

  /// Installs the fabric manager's committed-epoch cell (the plan version
  /// the FM has decided on, which per-switch staggered publishes lag
  /// behind).  When set, routing drops that can only be cured by a
  /// not-yet-applied plan (no route / dead static next hop while
  /// plan_->version < committed epoch) are reclassified as kStaleEpoch.
  /// Null (the default) keeps the legacy classification bit-identical.
  void set_committed_epoch_source(
      std::shared_ptr<const std::atomic<std::uint64_t>> src);
  /// Plan version this switch currently routes by (its applied epoch);
  /// 0 until set_forwarding installs a compiled plan.
  [[nodiscard]] std::uint64_t applied_epoch() const;

  // -- Lossy/transient fault model (composes with the health plane; see
  //    docs/reliability.md).  One `faults_armed_` flag gates every fault
  //    check on the admission path, so the model is a single predicted
  //    branch when disabled — off the PR 5 hot-path budget.

  /// Installs `p` as this switch's edge profile (applied at final
  /// delivery to a local NIC) AND on every existing uplink.
  void set_fault_profile(const FaultProfile& p);
  /// Installs `p` on the directed uplink toward `peer` only.
  Status set_uplink_fault_profile(SwitchId peer, const FaultProfile& p);
  /// Schedules a transient flap of the uplink toward `peer`: packets
  /// whose egress falls in [down_from, down_until) see the link down
  /// (counted as dropped_link_down) without any health-plane event —
  /// the fabric manager never learns of it, so no replan is triggered.
  Status add_uplink_flap(SwitchId peer, SimTime down_from,
                         SimTime down_until);
  /// Removes every fault profile and flap window; disarms the flag.
  void clear_faults();
  [[nodiscard]] bool faults_armed() const;

  /// Routes `p` from its src port (which must be local to this switch).
  /// Computes `arrival_vt` from the timing model (per-hop latency,
  /// per-link serialization, egress contention, TC penalty) and invokes
  /// the destination NIC's delivery callback — possibly after forwarding
  /// through peer switches — or drops.
  RouteResult route(Packet&& p);

  /// One admission step of the hop-by-hop walk, exposed for external
  /// drivers (the sharded data-plane engine) that interleave hops from
  /// many packets in virtual-time order instead of walking each packet
  /// to completion.  Takes this switch's mutex once.  Outcomes:
  ///  - delivered locally (or consumed with reason == kAckLost): the
  ///    packet has been moved into the NIC/callback, `*next` is null;
  ///  - dropped: `*next` is null, `result.reason` set, `p` untouched
  ///    beyond the admission mutations;
  ///  - forward: `*next` is the peer switch for the following step and
  ///    `p.inject_vt` has been advanced to its arrival there.  The
  ///    caller passes check_src = false and ttl - 1 on that next step.
  /// route() is exactly this in a loop; semantics are identical.
  RouteResult step(Packet& p, bool check_src, int ttl, RosettaSwitch** next);

  /// Variant for drivers that own delivery ordering (the ShardEngine):
  /// identical admission semantics, but when the packet would land on a
  /// NIC attached via the direct-fabric path, the packet is NOT handed
  /// to the NIC — `*deliver_to` is set and `p` left intact so the caller
  /// can invoke `CassiniNic::deliver_from_engine` itself and route any
  /// target-side reply through its own deterministic merge machinery.
  /// Callback-attached ports (no CassiniNic to return) still deliver
  /// inline.  `*deliver_to` is also set on kAckLost consumption: the
  /// packet DID reach the NIC (the effect must be applied; only the
  /// fabric-level ACK was lost on the return path).
  RouteResult step(Packet& p, bool check_src, int ttl, RosettaSwitch** next,
                   CassiniNic** deliver_to);

  [[nodiscard]] SwitchCounters counters() const;
  [[nodiscard]] SwitchCounters counters_for_vni(Vni vni) const;
  [[nodiscard]] std::size_t connected_ports() const;
  [[nodiscard]] std::size_t uplink_count() const;
  /// Transit accounting for the uplink toward `peer` (zeroes if absent).
  [[nodiscard]] LinkCounters uplink_counters(SwitchId peer) const;

  // -- Congestion telemetry.

  /// Queue lag a class-`tc` packet arriving at virtual time `at` would
  /// see on the uplink toward `peer`: how long until the link's horizon
  /// (for its own and higher-priority classes) frees up.  0 when idle or
  /// no such uplink.
  [[nodiscard]] SimDuration uplink_queue_lag(SwitchId peer, SimTime at,
                                             TrafficClass tc) const;
  /// Worst queue lag across all of this switch's uplinks at `at`, over
  /// every traffic class (a fabric-manager-style congestion snapshot).
  [[nodiscard]] SimDuration max_uplink_lag(SimTime at) const;
  /// Lifetime high-water mark of forward-time queue lag over this
  /// switch's uplinks (max of LinkCounters::peak_queue_lag).
  [[nodiscard]] SimDuration peak_uplink_lag() const;

 private:
  struct Port {
    /// Direct-delivery fast path (Fabric-owned NICs); preferred when set.
    CassiniNic* nic = nullptr;
    /// Generic delivery callback (tests, custom rigs).  Shared so it can
    /// be invoked outside mutex_ with one refcount bump instead of a
    /// std::function copy per packet.  A connected port has exactly one
    /// of `nic` / `deliver` set.
    std::shared_ptr<const DeliveryFn> deliver;
    /// Authorized VNIs with their pre-resolved counter slabs, ascending
    /// by VNI.  Ports hold a handful of VNIs, so the edge check is a
    /// short linear scan — no hashing, and the delivered/dropped
    /// counters come for free from the cached pointer.
    std::vector<std::pair<Vni, SwitchCounters*>> vnis;
    /// Per-traffic-class egress horizon.  Priority scheduling: a packet
    /// of class k waits for all queued traffic of class <= k (higher or
    /// equal priority) plus at most one in-flight frame of lower-priority
    /// traffic (preemption is frame-granular, as on Rosetta).
    SimTime egress_free_vt[kNumTrafficClasses] = {0, 0, 0, 0};

    [[nodiscard]] bool connected() const noexcept {
      return nic != nullptr || deliver != nullptr;
    }
    /// Counter slab for `vni` if this port is authorized, else nullptr.
    [[nodiscard]] SwitchCounters* slab_for(Vni vni) const noexcept {
      for (const auto& [v, slab] : vnis) {
        if (v == vni) return slab;
        if (v > vni) break;  // ascending
      }
      return nullptr;
    }
  };
  /// A directed inter-switch link with its own virtual-time bandwidth
  /// accounting (same priority model as NIC-facing egress ports).
  /// `peer` is non-owning; see add_uplink.  An empty slot in the dense
  /// uplink table has peer == nullptr.
  struct Uplink {
    RosettaSwitch* peer = nullptr;
    DataRate rate;
    SimDuration latency = 0;
    LinkState state = LinkState::kUp;
    SimTime egress_free_vt[kNumTrafficClasses] = {0, 0, 0, 0};
    LinkCounters counters;
    /// Fault model: per-link loss/corruption rates and timed down
    /// windows.  Only consulted when faults_armed_ is set.
    FaultProfile faults;
    std::vector<std::pair<SimTime, SimTime>> flaps;
  };
  /// What one locked admission step decided: deliver locally (non-null
  /// `deliver`), forward to `next`, or drop (`result.reason` set).  The
  /// delivery/forward happens outside the lock.
  struct AdmitStep {
    RouteResult result;
    CassiniNic* nic = nullptr;  ///< direct local delivery
    std::shared_ptr<const DeliveryFn> deliver;  ///< callback delivery
    RosettaSwitch* next = nullptr;
  };

  /// Ingress processing shared by route() (check_src = true) and
  /// hop-by-hop forwarding from a peer switch (check_src = false).
  /// Takes the switch mutex once; mutates `p` in place (the caller moves
  /// the packet onward per the returned step).
  AdmitStep admit_step(Packet& p, bool check_src, int ttl);

  /// Port slot for `addr`, or nullptr when empty.  Caller holds mutex_.
  [[nodiscard]] Port* port_at(NicAddr addr) noexcept {
    return addr < ports_.size() && ports_[addr].connected() ? &ports_[addr]
                                                            : nullptr;
  }
  [[nodiscard]] const Port* port_at(NicAddr addr) const noexcept {
    return addr < ports_.size() && ports_[addr].connected() ? &ports_[addr]
                                                            : nullptr;
  }
  /// Uplink slot toward `peer` (regardless of link state), or nullptr.
  /// Caller holds mutex_.
  [[nodiscard]] Uplink* uplink_at(SwitchId peer) noexcept {
    return peer < uplinks_.size() && uplinks_[peer].peer != nullptr
               ? &uplinks_[peer]
               : nullptr;
  }
  [[nodiscard]] const Uplink* uplink_at(SwitchId peer) const noexcept {
    return peer < uplinks_.size() && uplinks_[peer].peer != nullptr
               ? &uplinks_[peer]
               : nullptr;
  }
  /// The live uplink toward `peer`, or nullptr when absent or down —
  /// the single definition of "usable link" every routing policy
  /// consults.  Caller holds mutex_.
  [[nodiscard]] Uplink* live_uplink_locked(SwitchId peer) noexcept {
    Uplink* up = uplink_at(peer);
    return up != nullptr && up->state == LinkState::kUp ? up : nullptr;
  }

  /// Counter slab for `vni`: binary search over the sorted slab index;
  /// inserts a zeroed slab on first sight (cold — authorize time or a
  /// drop/transit of a never-seen VNI).  Caller holds mutex_.
  SwitchCounters& slab_for_locked(Vni vni);

  /// Per-packet routing decision at the source edge switch.  Returns the
  /// chosen neighbor (kInvalidSwitch if none) and may set p.via_switch
  /// when a Valiant detour wins.  Caller holds mutex_.
  SwitchId choose_route_locked(Packet& p, SwitchId home,
                               SwitchCounters& vni_counters);
  /// Static minimal next hop toward switch `target` (kInvalidSwitch if
  /// the table has no entry).  Caller holds mutex_.
  [[nodiscard]] SwitchId static_next_locked(SwitchId target) const noexcept {
    return plan_ != nullptr && id_ < plan_->switch_count &&
                   target < plan_->switch_count
               ? plan_->next(id_, target)
               : kInvalidSwitch;
  }
  /// Least-lag minimal candidate toward `target`; falls back to the
  /// static next hop when the plan has no candidate list.  Caller holds
  /// mutex_.
  SwitchId least_lag_candidate_locked(const Packet& p, SwitchId target,
                                      SimDuration* lag_out);
  /// Random Valiant intermediate for a packet headed to edge switch
  /// `home`: a switch in a third dragonfly group, or kInvalidSwitch when
  /// no eligible group exists (same-group traffic, < 3 groups, or a
  /// non-dragonfly topology).  Consumes route_rng_; caller holds mutex_.
  SwitchId pick_intermediate_locked(SwitchId home);
  /// Queue lag of `up` for priority `prio` at time `at` (see
  /// uplink_queue_lag).
  [[nodiscard]] static SimDuration lag_of(
      const Uplink& up, SimTime at, int prio) noexcept;
  /// UGAL delay estimate: first-hop queue lag plus `hops` x (per-hop
  /// fall-through latency + this packet's serialization on the first
  /// link).  Caller holds mutex_.
  [[nodiscard]] SimDuration estimate_delay_locked(
      const Packet& p, SimDuration first_hop_lag, int hops,
      DataRate rate) const;

  /// Recomputes faults_armed_ from the installed profiles and flap
  /// windows.  Caller holds mutex_.
  void rearm_faults_locked() noexcept;
  /// True when a flap window of `up` covers egress time `at`.
  [[nodiscard]] static bool flapped_down(const Uplink& up,
                                         SimTime at) noexcept {
    for (const auto& [from, until] : up.flaps) {
      if (at >= from && at < until) return true;
    }
    return false;
  }

  /// Priority-scheduled egress: earliest start for a packet of `prio`
  /// given the per-class horizons, charging frame-granular preemption of
  /// lower-priority in-flight traffic.  `ser_time` is the packet's
  /// pre-computed serialization on this link — callers need the same
  /// value for the departure time, so it is computed once per hop.
  /// Caller holds mutex_.
  SimTime schedule_egress_locked(SimTime at_egress, int prio,
                                 SimTime (&free_vt)[kNumTrafficClasses],
                                 SimDuration ser_time, DataRate rate);

  const SwitchId id_;
  std::shared_ptr<TimingModel> timing_;
  mutable SpinLock mutex_;  ///< guards ~100 ns admission steps; never blocks
  bool enforce_ = true;
  SwitchHealth health_ = SwitchHealth::kHealthy;
  /// Dense port table indexed by NicAddr (empty slots between the
  /// addresses homed here; a switch hosts a contiguous handful, so the
  /// table stays small).
  std::vector<Port> ports_;
  std::size_t connected_ports_ = 0;
  /// Dense uplink table indexed by peer SwitchId.
  std::vector<Uplink> uplinks_;
  std::size_t uplink_count_ = 0;
  std::shared_ptr<const std::vector<SwitchId>> nic_home_;
  /// Routing tables (static next hops, minimal candidates, hop
  /// distances, policy).  Null until set_forwarding — local-only switch.
  std::shared_ptr<const TopologyPlan> plan_;
  /// Fabric manager's committed plan epoch (see
  /// set_committed_epoch_source).  Null on legacy rigs — stale-epoch
  /// reclassification is then disabled entirely.  Guarded by mutex_
  /// (the pointed-to atomic is written by the FM thread).
  std::shared_ptr<const std::atomic<std::uint64_t>> committed_epoch_;
  /// Valiant intermediate selection stream (seeded; guarded by mutex_).
  Rng route_rng_;
  /// Fault-model draw stream, separate from route_rng_ so arming faults
  /// never shifts the routing decisions of surviving packets (the
  /// determinism tests pin goldens on the fault-free stream).  Guarded
  /// by mutex_.
  Rng fault_rng_;
  /// Single gate for every fault check on the admission path: set iff
  /// any profile or flap window is installed.  Guarded by mutex_.
  bool faults_armed_ = false;
  /// Edge profile: applied at final delivery to a locally homed NIC
  /// (the switch->NIC link).  Guarded by mutex_.
  FaultProfile edge_faults_;
  SwitchCounters totals_;
  /// Per-VNI counter slabs: stable addresses (deque) + a sorted index
  /// for O(log n) cold lookups.  Edge checks use the per-port cached
  /// pointers; transit hops hit the one-entry cache (a switch forwards
  /// long runs of same-VNI traffic).
  std::deque<SwitchCounters> slab_store_;
  std::vector<std::pair<Vni, SwitchCounters*>> slab_index_;
  Vni last_slab_vni_ = kInvalidVni;
  SwitchCounters* last_slab_ = nullptr;
};

}  // namespace shs::hsn
