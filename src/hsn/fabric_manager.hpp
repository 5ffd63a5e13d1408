// fabric_manager.hpp — the Slingshot fabric manager's fault-handling
// plane.
//
// Real Slingshot fabrics lose links and switches routinely; the fabric
// manager (a host-side service on real systems) observes those failures,
// recomputes routes around the dead elements, and reprograms every
// switch — without touching the VNI enforcement state, so tenant
// isolation holds across the failure and the detours it causes.
//
// This class implements exactly that control loop over the simulated
// fabric:
//   * fail_link / fail_switch mark the data plane down *immediately*
//     (packets committed to a dead element drop, counted as
//     dropped_link_down — the in-flight loss window real fabrics see);
//   * repair() derives a new TopologyPlan version from the pristine
//     build via TopologyPlan::replan (BFS over surviving links, seeded
//     next-hop re-derivation) into a recycled snapshot and pushes it to
//     every switch;
//   * with auto-repair on (the default, for direct Fabric users) every
//     injection/restore repairs synchronously; the SlingshotStack turns
//     it off and schedules repair() after a configurable detection +
//     reprogramming delay, which opens an honest loss window and yields
//     the stack's re-route latency metric.
//
// Control-plane robustness (docs/fault_tolerance.md, "Control-plane
// fault tolerance"):
//   * Staggered publish: set_publish_stagger switches publishing from the
//     atomic everywhere-at-once swap to per-switch apply waves with a
//     seeded per-switch delay.  The fabric manager first *commits* the
//     new epoch (a shared atomic every switch reads), then applies the
//     plan snapshot switch by switch — drivers drain the waves either at
//     ShardEngine barriers (apply_next_publish_wave) or from the event
//     loop (apply_publishes_older_than).  While a switch's applied plan
//     lags the committed epoch, its epoch-curable drops are counted as
//     DropReason::kStaleEpoch.
//   * Crash/restart: attach_journal records every failure event and
//     publish intent in a db::Database redo journal; arm_crash injects a
//     controller kill at a chosen crash-point; restart() replays the
//     journal, sweeps the data-plane hardware state for unjournaled
//     events, completes any half-published plan, and converges to a
//     state byte-identical to an uncrashed run.
//   * While crashed, the manager stops journaling and republishing but
//     the data plane keeps routing on each switch's last-applied plan;
//     physical failure injections still program the switches (dead
//     silicon does not wait for software).
//
// VNI enforcement is deliberately out of scope: ACLs live on the edge
// switches and are untouched by republishing, so a detoured packet is
// still checked at both edges.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "hsn/rosetta_switch.hpp"
#include "hsn/topology.hpp"
#include "hsn/types.hpp"
#include "util/status.hpp"

namespace shs::db {
class Database;
}

namespace shs::hsn {

/// Staggered-publish configuration.  Disabled (the default) keeps the
/// legacy instantaneous swap bit-identical.  When enabled, each publish
/// assigns every switch a deterministic apply delay in
/// [0, max_delay] drawn from (seed, plan version, switch id).
struct PublishStagger {
  bool enabled = false;
  SimDuration max_delay = 0;
  std::uint64_t seed = 0x57a6;
};

/// Control-plane crash injection: where in the repair/publish sequence
/// the next repair "loses power".  One-shot: the armed point fires once
/// and the manager enters the crashed state until restart().
struct ControlPlaneFaultProfile {
  enum class CrashPoint : std::uint8_t {
    kNone = 0,
    /// Before the publish intent reaches the journal: the failure events
    /// are journaled but the replan is not — restart leaves the repair
    /// pending and a subsequent repair() converges.
    kBeforeJournal,
    /// Intent journaled, nothing recomputed or programmed yet.
    kAfterJournal,
    /// Plan recomputed in memory, no switch reprogrammed.
    kBeforePublish,
    /// Mid-publish: `publish_after_switches` switches carry the new plan,
    /// the rest still route the old one (instant mode); in stagger mode
    /// the waves are staged but never drained.  Restart replays the
    /// half-published plan onto every switch.
    kMidPublish,
    /// Everything published; the crash hits after completion.
    kAfterPublish,
  };
  CrashPoint point = CrashPoint::kNone;
  /// kMidPublish, instant mode: switches that receive the new plan
  /// before the crash.
  std::size_t publish_after_switches = 0;
};

class FabricManager {
 public:
  /// `base_plan` must be the pristine version-0 plan the switches were
  /// wired from (its `links` list is the ground-truth cabling).  The
  /// constructor publishes it to every switch.
  FabricManager(std::vector<std::shared_ptr<RosettaSwitch>> switches,
                std::shared_ptr<const std::vector<SwitchId>> nic_home,
                TopologyPlan base_plan);
  FabricManager(const FabricManager&) = delete;
  FabricManager& operator=(const FabricManager&) = delete;

  // -- Failure injection / recovery.  Links are physical: failing (a, b)
  //    kills both directions.  Each call marks the data plane first and
  //    then repairs (synchronously iff auto-repair is on).

  Status fail_link(SwitchId a, SwitchId b);
  Status restore_link(SwitchId a, SwitchId b);
  Status fail_switch(SwitchId s);
  Status restore_switch(SwitchId s);

  /// Synchronous repair on every fail_*/restore_* when on (default).
  /// The SlingshotStack turns this off and drives repair() from the
  /// event loop to model detection + reprogramming time.
  void set_auto_repair(bool on);

  /// Recomputes routes around the current failure set and pushes the
  /// repaired tables to all switches.  Returns the published version.
  std::uint64_t repair();

  /// repair() only when an unrepaired failure/restore is outstanding;
  /// otherwise a no-op returning the current version.  What NIC
  /// retransmit hooks call between attempts: an idempotent nudge that
  /// never bumps the plan version of a healthy fabric.
  std::uint64_t repair_if_pending();

  // -- Staggered publish (see PublishStagger).

  void set_publish_stagger(const PublishStagger& s);
  /// True while staged per-switch applies are outstanding.  Lock-free —
  /// this is the one-relaxed-load idle check on the ShardEngine barrier
  /// path.
  [[nodiscard]] bool publish_pending() const noexcept {
    return publish_pending_.load(std::memory_order_relaxed);
  }
  /// Applies the earliest-delay wave of staged publishes (all switches
  /// sharing the minimum outstanding delay).  Called with the data plane
  /// quiescent (ShardEngine barriers) so the wave boundary is
  /// deterministic and thread-count invariant.
  void apply_next_publish_wave();
  /// Applies every staged publish with delay <= `d`, provided `gen`
  /// still names the staging generation (stale event-loop callbacks from
  /// a superseded publish are ignored).
  void apply_publishes_older_than(SimDuration d, std::uint64_t gen);
  /// Drains every staged publish immediately.
  void apply_all_publishes();
  [[nodiscard]] std::size_t pending_publish_count() const;
  /// Distinct outstanding apply delays, ascending — what the stack
  /// schedules event-loop callbacks for.
  [[nodiscard]] std::vector<SimDuration> pending_publish_delays() const;
  /// Bumped every time a publish (re)stages waves; restart() bumps it
  /// too so scheduled callbacks from before the crash are ignored.
  [[nodiscard]] std::uint64_t publish_generation() const;
  /// The plan epoch the manager has committed (switch applies may lag).
  [[nodiscard]] std::uint64_t committed_epoch() const noexcept;

  // -- Crash/restart (see ControlPlaneFaultProfile).

  /// Records every failure event and publish intent in `db` (table
  /// "fm_journal", created if absent).  The database must outlive the
  /// manager.  Journal writes tolerate database faults (logged, never
  /// fatal to the control loop).
  void attach_journal(db::Database& db);
  /// Arms a one-shot crash at the given point of the next repair.
  void arm_crash(const ControlPlaneFaultProfile& profile);
  [[nodiscard]] bool crashed() const;
  /// Recovers a crashed manager: recovers the journal database if it
  /// crashed too, replays the journal to the last published plan
  /// (recomputed deterministically, so byte-identical to the uncrashed
  /// publish), sweeps switch hardware state for failures injected while
  /// down (re-journaling the delta), completes any half-published plan
  /// with an instant publish to every switch, and leaves repair_pending
  /// set iff failures accumulated past the last publish.  Fails on a
  /// manager that has not crashed.
  Status restart();
  /// Successful restart() recoveries so far.
  [[nodiscard]] std::size_t recovered_publishes() const;

  // -- Observation.
  [[nodiscard]] SwitchHealth switch_health(SwitchId s) const;
  [[nodiscard]] bool link_up(SwitchId a, SwitchId b) const;
  /// The currently published plan — the snapshot switches route by once
  /// they have applied it (never null).
  [[nodiscard]] std::shared_ptr<const TopologyPlan> plan() const;
  /// The pristine version-0 plan — the fabric's ground-truth cabling,
  /// immutable for the manager's lifetime (no lock needed).  Failure
  /// state never edits it; repairs re-derive from it.  The sharded
  /// data-plane engine reads link latencies from here so its lookahead
  /// windows survive replans unchanged.
  [[nodiscard]] std::shared_ptr<const TopologyPlan> base_plan()
      const noexcept {
    return base_;
  }
  [[nodiscard]] std::uint64_t plan_version() const;
  /// Repairs published so far (0 on a healthy-from-birth fabric).
  [[nodiscard]] std::size_t replans() const;
  /// True when a failure/restore has not been repaired yet (the loss
  /// window is open).
  [[nodiscard]] bool repair_pending() const;
  [[nodiscard]] std::size_t failed_link_count() const;
  [[nodiscard]] std::size_t failed_switch_count() const;

 private:
  struct PendingApply {
    SimDuration delay = 0;
    SwitchId sw = 0;
  };

  /// Applies the effective up/down state of both directions of the
  /// physical link (a, b) to the owning switches.  Caller holds mutex_.
  void sync_link_state_locked(SwitchId a, SwitchId b);
  std::uint64_t repair_locked();
  /// A snapshot to replan into: the retired one when no switch (or
  /// caller) references it anymore, so steady-state republishing
  /// allocates nothing new; a fresh one otherwise.  Caller holds mutex_.
  [[nodiscard]] std::shared_ptr<TopologyPlan> spare_plan_locked();
  /// Makes `plan` the published snapshot, commits its epoch, and either
  /// swaps it into every switch (instant mode) or stages per-switch
  /// apply waves (stagger mode), honoring an armed kMidPublish crash.
  /// `recovery` (the restart path) always publishes instantly and
  /// clears any staged waves.  Caller holds mutex_.
  void publish_locked(std::shared_ptr<TopologyPlan> plan, bool recovery);
  /// Installs the published snapshot on switch `sw`.  Caller holds
  /// mutex_.
  void apply_to_switch_locked(SwitchId sw);
  /// Stages one PendingApply per switch with its seeded delay, sorted by
  /// (delay, switch id).  Caller holds mutex_.
  void stage_publish_locked();
  /// One-shot transition into the crashed state.  Caller holds mutex_.
  void enter_crash_locked();
  /// Appends `rows` to the journal in one transaction; no-op without an
  /// attached (healthy) journal database.  Caller holds mutex_.
  void journal_rows_locked(const std::vector<std::vector<
                               std::variant<std::monostate, std::int64_t,
                                            std::string>>>& rows);
  [[nodiscard]] bool has_link_locked(SwitchId from, SwitchId to) const;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<RosettaSwitch>> switches_;
  std::shared_ptr<const std::vector<SwitchId>> nic_home_;
  /// Pristine wiring, version 0 — also the initially published plan.
  /// Never written after construction; holding it here also keeps it out
  /// of recycling.
  const std::shared_ptr<TopologyPlan> base_;
  /// Directed link keys of base_.links — O(1) existence checks.
  std::unordered_set<std::uint64_t> link_keys_;
  /// Physical neighbors per switch (each cable listed once per end),
  /// ascending — one sync per cable on switch fail/restore.
  std::vector<std::vector<SwitchId>> adjacent_;
  /// The published snapshot, and the one it replaced — once every switch
  /// has swapped off it, `retired_` is the only owner left and the next
  /// replan writes into its buffers.
  std::shared_ptr<TopologyPlan> live_;
  std::shared_ptr<TopologyPlan> retired_;
  /// BFS/adjacency workspace reused across replans.
  PlanScratch replan_scratch_;
  FailureSet failures_;
  bool auto_repair_ = true;
  bool repair_pending_ = false;
  std::uint64_t version_ = 0;
  std::size_t replans_ = 0;

  // -- Staggered publish.
  PublishStagger stagger_;
  /// The committed plan epoch, shared with every switch (see
  /// RosettaSwitch::set_committed_epoch_source).
  std::shared_ptr<std::atomic<std::uint64_t>> committed_epoch_cell_;
  std::atomic<bool> publish_pending_{false};
  /// Staged per-switch applies, ascending (delay, switch id).
  std::vector<PendingApply> pending_applies_;
  std::uint64_t publish_seq_ = 0;

  // -- Crash/restart.
  db::Database* journal_db_ = nullptr;
  ControlPlaneFaultProfile crash_profile_;
  bool crashed_ = false;
  std::size_t recovered_publishes_ = 0;
};

}  // namespace shs::hsn
