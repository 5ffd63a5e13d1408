// shard_engine.hpp — conservative parallel data plane: the fabric's
// switches are partitioned into sequential *domains* (dragonfly groups;
// one switch per domain elsewhere), each domain is driven by exactly one
// worker thread at a time, and domains advance together through
// conservative virtual-time windows.  Each domain j gets its own window
// edge E_j = min over source domains i of (earliest_i + edge(i, j)),
// where edge(i, j) is the cheapest single cross-domain hop from i to j
// (link latency plus the hop floor) taken from the pristine base plan —
// the per-domain-pair lookahead matrix.  Within one window only
// single-hop cross-domain transfers can occur (a forwarded packet parks
// in the outbox until the barrier), so direct edges are the exact bound;
// domains with no in-edge from any pending domain run unbounded.
// Inside a window a domain processes its pending packet hops in
// (virtual time, sequence) order; hops that cross a domain boundary are
// buffered in per-destination outboxes and merged at the window barrier
// in a fixed order (destination domain id, then source domain id, then
// FIFO).  Because every cross-domain hop arrives at or beyond the
// receiving domain's window edge, no domain can receive work dated
// inside the window it is executing — so the schedule, and therefore
// every per-seed golden digest, is bit-identical whether the windows
// run on 1 thread or N.
//
// Executor layout (the overhead-gap rework; see docs/performance.md,
// "Threading model"):
//   - Packet storage is *pooled*: every staged attempt lives in a
//     per-domain slot pool (`Domain::pool` + free list) and never moves
//     while it hops inside its domain.  Only the 24-byte (vt, seq,
//     slot) refs move through the ordering structures.
//   - Windows execute off a *batched run queue*: newly staged refs
//     collect in `fresh`, are sorted once per batch and merged into the
//     ascending `sorted` array, and a window drains the prefix dated
//     before the window edge by bumping a cursor — no per-item
//     push_heap/pop_heap.  Items spawned mid-window (intra-domain
//     forwards, target-side replies) that still land inside the window
//     go through a small ref min-heap (`spawn`) that is empty again by
//     the window's end.
//   - Outbox and notice staging is epoch-cleared (capacity retained
//     mid-flush, nothing shrinks while traffic is in flight) and
//     trimmed back to the flush's high-water mark after the flush
//     drains, so a chaos burst does not pin O(burst) memory forever.
//   - Window boundaries are deliberately *not* adaptive-extended:
//     under reliable traffic the barrier bucketing of retransmit
//     charges and error events is part of the deterministic schedule
//     (per-NIC RNG draws happen in barrier order), so moving an edge
//     would change per-seed digests.  What is adaptive is the barrier
//     *cost*: a window that staged no cross-domain traffic and no
//     notices skips the merge entirely, and with no observer installed
//     the worker pool chains consecutive windows itself — the last
//     worker to finish a window runs the barrier and relaunches the
//     next one without a driver wake-up (spin-then-park keeps the
//     workers hot between windows).
//
// Thread-safety contract (see docs/performance.md, "Threading model"):
//   - All public methods are driver-thread-only.  The engine owns the
//     worker pool internally; callers never see worker threads.
//   - Between flush() calls (and inside a barrier observer) the workers
//     are quiescent and every fabric/NIC counter read is coherent.
//   - Control-plane mutations (fail_link, repair, set_fault_profile,
//     VNI churn, ...) are only legal between flushes.
//   - Determinism across thread counts additionally requires
//     TimingConfig::jitter_amplitude == 0 (jitter draws come from one
//     shared RNG whose draw order is schedule-dependent otherwise).
//
// The engine drives the full verb set: two-sided sends (post_send) and
// one-sided RMA (post_rma_write / post_rma_read).  A delivery's
// target-side reply (RMA ACK, read response, NACK) is returned by
// CassiniNic::deliver_from_engine instead of re-entering Fabric::inject
// from the callback, and is staged in the *target's* domain — so
// completion traffic, and its reliable-delivery retransmits, ride the
// same deterministic (domain, vt, seq) merge order as everything else.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hsn/packet.hpp"
#include "hsn/rosetta_switch.hpp"
#include "hsn/types.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace shs::hsn {

class Fabric;

/// Engine-level perf-counter block (see docs/performance.md for the
/// glossary).  Snapshot via ShardEngine::stats(); all counters are
/// cumulative over the engine's lifetime and coherent whenever the
/// driver can legally read them (between flushes / at barriers).
struct ShardEngineStats {
  std::uint64_t flushes = 0;        ///< flush() calls that ran >= 1 window
  std::uint64_t windows = 0;        ///< conservative windows executed
  std::uint64_t items_stepped = 0;  ///< one-hop step() calls executed
  std::uint64_t intra_forwards = 0; ///< forwards staying in-domain (no move)
  std::uint64_t cross_forwards = 0; ///< forwards parked in an outbox
  std::uint64_t spawn_heap_ops = 0; ///< push+pop on the mid-window ref heap
  std::uint64_t batch_sorts = 0;    ///< fresh-ref batches sorted+merged
  std::uint64_t batch_sorted_refs = 0;  ///< refs across those batches
  std::uint64_t notices = 0;        ///< terminal outcomes staged
  std::uint64_t pool_hits = 0;      ///< slot allocs served by the free list
  std::uint64_t pool_misses = 0;    ///< slot allocs that grew the pool
  std::uint64_t silent_barriers = 0;  ///< barriers with nothing to merge
  std::uint64_t chained_windows = 0;  ///< windows relaunched worker-side
  std::uint64_t worker_wakeups = 0;   ///< cv wake-ups of parked workers
  std::uint64_t staging_trims = 0;    ///< post-flush high-water-mark trims

  [[nodiscard]] double windows_per_flush() const noexcept {
    return flushes ? static_cast<double>(windows) / static_cast<double>(flushes)
                   : 0.0;
  }
  [[nodiscard]] double items_per_window() const noexcept {
    return windows
               ? static_cast<double>(items_stepped) / static_cast<double>(windows)
               : 0.0;
  }
  [[nodiscard]] double pool_hit_rate() const noexcept {
    const double total = static_cast<double>(pool_hits + pool_misses);
    return total > 0 ? static_cast<double>(pool_hits) / total : 0.0;
  }
};

class ShardEngine {
 public:
  /// Builds the domain partition and lookahead from `fabric`'s topology
  /// and spawns `threads` workers (<= 1 runs windows inline on the
  /// driver thread — the reference schedule).  The fabric must outlive
  /// the engine; topology wiring must be complete.
  ShardEngine(Fabric& fabric, int threads);
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Stages a two-sided send exactly as CassiniNic::post_send would
  /// accept it (same TX scheduling, same sequence numbers), to be walked
  /// through the fabric by the next flush().  Size-only; completion
  /// events are not raised (op_id 0 semantics), but terminal failures
  /// still push kError events at flush time.  With reliability enabled
  /// on the source NIC the op gets the full retransmit protocol, driven
  /// at window barriers.
  Status post_send(NicAddr src, EndpointId ep, NicAddr dst,
                   EndpointId dst_ep, std::uint64_t tag,
                   std::uint64_t size_bytes, SimTime local_vt);

  /// Stages a one-sided write exactly as CassiniNic::rdma_write would
  /// accept it.  `op_id` tags the initiator's completion (the target's
  /// ACK — or fail-fast NACK — raises the endpoint event at flush time);
  /// op_id 0 means the caller does not want per-op events matched.
  Status post_rma_write(NicAddr src, EndpointId ep, NicAddr dst, RKey rkey,
                        std::uint64_t offset, std::uint64_t size_bytes,
                        std::span<const std::byte> payload, SimTime local_vt,
                        std::uint64_t op_id = 0);

  /// Stages a one-sided read request; the target's data response (or
  /// NACK) raises the initiator's endpoint event at flush time.
  Status post_rma_read(NicAddr src, EndpointId ep, NicAddr dst, RKey rkey,
                       std::uint64_t offset, std::uint64_t size_bytes,
                       SimTime local_vt, std::uint64_t op_id = 0);

  /// Runs conservative windows until every staged packet (including
  /// retransmits and target-side replies it spawns) has delivered or
  /// terminally dropped.
  void flush();

  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }
  [[nodiscard]] int threads() const noexcept { return threads_; }
  /// Smallest entry of the per-pair lookahead matrix — the conservative
  /// global window floor (0 when there is a single domain, i.e. windows
  /// are unbounded).  Individual domain windows are at least this wide.
  [[nodiscard]] SimDuration lookahead() const noexcept { return lookahead_; }
  /// Windows executed across all flushes (one barrier each).
  [[nodiscard]] std::uint64_t windows_run() const noexcept {
    return windows_run_;
  }
  /// Fabric-injection attempts staged so far: posts plus retransmits.
  /// Every attempt terminates in exactly one switch-counter bucket
  /// (delivered — including ACK-lost deliveries — or one drop reason),
  /// so at any barrier:
  ///   attempts_injected() == delivered + dropped_total() + in_flight().
  [[nodiscard]] std::uint64_t attempts_injected() const noexcept {
    std::uint64_t total = 0;
    for (const auto& d : domains_) total += d.attempts;
    return total;
  }
  /// Attempts currently staged in domain run queues or outboxes (0
  /// after flush() returns).  Driver-thread-only, like everything else.
  [[nodiscard]] std::uint64_t in_flight() const;

  /// Cumulative executor counters (windows, items, pool hit rate,
  /// wakeups, ...) — the observability block the stack metrics surface.
  [[nodiscard]] ShardEngineStats stats() const;
  /// Host bytes currently reserved by the per-domain staging structures
  /// (slot pools, run-queue refs, outboxes, notice buffers).  Post-flush
  /// trimming bounds this near the flush's high-water mark — the memory
  /// observable the compaction tests pin.
  [[nodiscard]] std::size_t staging_bytes_reserved() const;

  /// Installs `fn` to run at every window barrier, after outbox/notice
  /// merging, while all workers are quiescent — the hook
  /// counter-invariant tests use to observe mid-flush state coherently.
  /// With an observer installed every barrier runs on the driver thread
  /// (worker-side window chaining is disabled).  Pass nullptr to
  /// remove.
  void set_barrier_observer(std::function<void()> fn) {
    barrier_observer_ = std::move(fn);
  }

 private:
  /// One staged attempt: packet `p` parked at switch `at`.  Lives in a
  /// per-domain slot pool; the ordering structures hold Refs, so the
  /// ~170-byte Item never moves for intra-domain hops.
  struct Item {
    // Scalars first: together with the packet's leading header fields
    // they fit the first cache line, so a step's capture block touches
    // one line before the switch walks the rest of the packet.
    SwitchId at = kInvalidSwitch;
    std::int32_t ttl = 0;
    std::uint64_t seq = 0;  ///< globally unique, thread-count-invariant
    std::uint32_t attempt = 0;  ///< 0 = first try, n = nth retransmit
    bool check_src = false;
    Packet p;
  };
  /// Ordering handle for one pooled item: (vt, seq) is the total order,
  /// `slot` resolves the payload.  24 bytes — this is what sorts, sits
  /// in run queues, and transits the spawn heap, instead of Items.
  ///
  /// `slot` packs the owning domain (high kSlotDomainBits) with the
  /// pool index, so a ref can outlive a hand-off to another domain's
  /// run queue without its Item moving: in single-threaded inline mode
  /// a cross-domain forward re-queues the 24-byte ref and the ~170-byte
  /// Item stays put in its source pool until the attempt terminates.
  /// (Pooled mode never queues foreign-owned refs — workers would race
  /// on the source pool — so there the packed domain always matches the
  /// executing domain.)
  struct Ref {
    SimTime vt = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    /// (vt, seq) fused into one 128-bit key so the run-queue sort and
    /// the three-way merge compare with a single wide comparison
    /// instead of a data-dependent two-field branch.  Virtual time is
    /// non-negative for the life of an engine, so the int64 -> uint64
    /// cast is order-preserving.
    unsigned __int128 key() const noexcept {
      return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(vt))
              << 64) |
             seq;
    }
  };
  static constexpr std::uint32_t kSlotDomainShift = 20;
  static constexpr std::uint32_t kSlotIndexMask =
      (1u << kSlotDomainShift) - 1;
  /// Ascending (vt, seq) — the engine's canonical processing order.
  struct RefBefore {
    bool operator()(const Ref& a, const Ref& b) const noexcept {
      return a.key() < b.key();
    }
  };
  /// Max-heap comparator giving the (vt, seq)-minimum at front() for
  /// the small mid-window spawn heap.
  struct RefAfter {
    bool operator()(const Ref& a, const Ref& b) const noexcept {
      return a.key() > b.key();
    }
  };
  /// Outcome of a terminal step, reported to the op's home domain and
  /// processed single-threaded at the barrier.
  struct Notice {
    enum class Kind : std::uint8_t { kDelivered, kRetry, kDrop };
    Kind kind = Kind::kDrop;
    NicAddr src = kInvalidNic;
    EndpointId src_ep = 0;
    std::uint64_t nic_seq = 0;  ///< NIC-assigned Packet::seq (op key)
    std::uint64_t op_id = 0;    ///< caller's completion tag (0 = none)
    DropReason reason = DropReason::kNone;
    SimTime vt = 0;
    std::uint32_t attempt = 0;
    bool budget_exhausted = false;
  };
  /// Retransmit state for one reliable op, owned by its home domain's
  /// map but only ever touched at barriers (single-threaded).
  struct OpState {
    Packet master;
    SimTime vt_io = 0;  ///< accepted_vt plus charged backoffs
    std::uint64_t plan_v0 = 0;
    bool have_v0 = false;
    std::uint32_t attempt = 0;
  };
  /// Per-domain executor counters, written only by the domain's owning
  /// thread (worker mid-window, driver at barriers) and summed by
  /// stats() while everything is quiescent.
  struct DomainStats {
    std::uint64_t items_stepped = 0;
    std::uint64_t intra_forwards = 0;
    std::uint64_t cross_forwards = 0;
    std::uint64_t spawn_heap_ops = 0;
    std::uint64_t batch_sorts = 0;
    std::uint64_t batch_sorted_refs = 0;
    std::uint64_t notices = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
  };
  struct Domain {
    std::uint32_t id = 0;

    // -- Pooled item storage.  `pool` only grows mid-flush; freed slots
    //    recycle through `free_slots` so steady-state staging allocates
    //    nothing.  Trimmed back to the flush high-water mark between
    //    flushes (never mid-flight).
    std::vector<Item> pool;
    std::vector<std::uint32_t> free_slots;

    // -- Batched run queue: two sorted runs consumed by a two-cursor
    //    merge (plus the spawn heap — three-way at the step loop).
    //    `sorted[cursor..]` is the large stable backlog and is never
    //    recopied; `incoming[in_cursor..]` is the small churn run fed
    //    by each window's arrivals.  Newly staged refs collect unsorted
    //    in `fresh` (min tracked in fresh_min) and are sorted + folded
    //    into `incoming` in one batch when the domain next runs; when
    //    the backlog drains, the incoming run is promoted wholesale
    //    (vector swap, no copy) into its place.  `spawn` is the small
    //    mid-window run for items spawned inside the current window,
    //    kept ascending by sorted insertion and consumed at
    //    `sp_cursor` — spawn keys only grow as the window advances, so
    //    insertion is almost always a plain append and never lands
    //    below the cursor.  `scratch` is the reused merge buffer.
    std::vector<Ref> sorted;
    std::size_t cursor = 0;
    std::vector<Ref> incoming;
    std::size_t in_cursor = 0;
    std::vector<Ref> fresh;
    SimTime fresh_min = 0;  ///< kNoPendingWork when fresh is empty
    std::vector<Ref> spawn;
    std::size_t sp_cursor = 0;
    std::vector<Ref> scratch;

    /// Cross-domain hops produced this window, per destination domain.
    std::vector<std::vector<Item>> outbox;
    /// Terminal outcomes this window, per home (= source) domain.
    std::vector<std::vector<Notice>> notices;
    /// Set by the owning thread when this window parked anything in an
    /// outbox or staged a notice — lets the barrier skip the merge
    /// scan entirely for silent windows.
    bool staged_cross = false;

    std::uint64_t next_seq = 0;
    /// Reliable ops homed here, keyed (src NIC << 44 | packet seq).
    /// Touched by the owning worker mid-window (target-side reply
    /// registration) and at barriers — never both at once.
    std::unordered_map<std::uint64_t, OpState> ops;
    /// Fabric-injection attempts staged into this domain so far.
    /// Per-domain (not one engine-wide counter) because workers stage
    /// target-side replies mid-window; summed by the driver.
    std::uint64_t attempts = 0;
    /// Min (vt) over everything pending in this domain (kNoPendingWork
    /// when idle), valid at every barrier — maintained at staging and
    /// refreshed from the run-queue head at window end, so barrier
    /// scans are O(domains) instead of O(backlog).
    SimTime earliest = 0;
    /// This window's edge for the domain, computed from the
    /// pair-lookahead matrix before the window starts.
    SimTime window_end = 0;

    // -- Flush-local high-water marks, for the post-flush trim.
    std::size_t live_hwm = 0;    ///< max live pool slots this flush
    std::size_t ref_hwm = 0;     ///< max run-queue length this flush
    std::size_t outbox_hwm = 0;  ///< max single-outbox depth this flush
    std::size_t notice_hwm = 0;  ///< max single-notice-queue depth

    DomainStats stats;
  };

  static std::uint64_t op_key(NicAddr src, std::uint64_t nic_seq) noexcept {
    return (static_cast<std::uint64_t>(src) << 44) |
           (nic_seq & ((1ULL << 44) - 1));
  }
  std::uint64_t take_seq(Domain& d) noexcept {
    return d.next_seq++ * domains_.size() + d.id;
  }

  /// Grabs a pool slot (free list first) and returns it packed with the
  /// owning domain id.  The resolved Item reference is only stable
  /// until the next alloc_slot on the same domain.
  std::uint32_t alloc_slot(Domain& d) {
    std::uint32_t idx;
    if (!d.free_slots.empty()) {
      idx = d.free_slots.back();
      d.free_slots.pop_back();
      ++d.stats.pool_hits;
    } else {
      idx = static_cast<std::uint32_t>(d.pool.size());
      d.pool.emplace_back();
      ++d.stats.pool_misses;
    }
    const std::size_t live = d.pool.size() - d.free_slots.size();
    if (live > d.live_hwm) d.live_hwm = live;
    return (d.id << kSlotDomainShift) | idx;
  }
  Item& slot_item(std::uint32_t slot) {
    return domains_[slot >> kSlotDomainShift].pool[slot & kSlotIndexMask];
  }
  void free_slot(std::uint32_t slot) {
    domains_[slot >> kSlotDomainShift].free_slots.push_back(slot &
                                                            kSlotIndexMask);
  }
  /// Appends a staged ref to `fresh` (driver-side staging and
  /// beyond-window spawns), maintaining the pending-min caches.
  void push_fresh(Domain& d, const Ref& r) {
    d.fresh.push_back(r);
    if (r.vt < d.fresh_min) d.fresh_min = r.vt;
    if (r.vt < d.earliest) d.earliest = r.vt;
  }
  /// Sorted insertion into the mid-window spawn run.  Spawns are dated
  /// strictly after their spawner and items are consumed in ascending
  /// key order, so the new ref lands at or after `sp_cursor` — and in
  /// the common case (keys arriving near-ascending) at the very end.
  void push_spawn(Domain& d, const Ref& r) {
    ++d.stats.spawn_heap_ops;
    if (d.spawn.empty() || !RefBefore{}(r, d.spawn.back())) {
      d.spawn.push_back(r);
      return;
    }
    const auto pos = std::upper_bound(
        d.spawn.begin() + static_cast<std::ptrdiff_t>(d.sp_cursor),
        d.spawn.end(), r, RefBefore{});
    d.spawn.insert(pos, r);
  }

  void stage_attempt(Domain& home, Packet&& p, std::uint32_t attempt);
  /// Appends a terminal-outcome notice to the producing domain's
  /// per-home-domain queue (processed at the barrier) and marks the
  /// window non-silent.
  void stage_notice(Domain& d, const Notice& n);
  /// Shared post_* tail: registers reliable-op state in the source
  /// NIC's home domain and stages the first attempt.
  void stage_post(NicAddr src, Packet&& pkt, SimTime accepted_vt);
  /// Stages a target-side reply (RMA ACK / read response / NACK) in the
  /// target's own domain `d` — called by the owning worker mid-window,
  /// which is safe because the worker is the domain's only toucher and
  /// the reply's source NIC is homed exactly here.  Replies dated
  /// inside the running window enter the spawn heap.
  void stage_reply(Domain& d, Packet&& reply, SimTime window_end);
  /// Sorts the fresh batch and merges it into `sorted` (one batch per
  /// window at most; consumed prefix dropped in the same pass).
  void integrate_fresh(Domain& d);
  /// Drains every item dated before `d.window_end` in (vt, seq) order
  /// (worker or inline driver; must be the domain's only toucher).
  /// Refreshes `d.earliest` on exit.
  void run_domain_window(Domain& d);
  void step_item(Domain& d, const Ref& ref, SimTime window_end);
  /// Merges outboxes and processes notices in deterministic order.
  /// Returns false when the window was silent (nothing merged).
  bool barrier_merge();
  void process_notice(const Notice& n);
  /// One fused O(domains) scan: refreshes the earliest-pending view and
  /// computes every domain's `window_end` from the pair-lookahead
  /// matrix.  Returns false when no domain has pending work (flush
  /// done).  Rows of idle domains are skipped, so the pair part is
  /// O(pending-domains x domains).
  bool compute_window_ends();
  /// Runs one window across all domains inline (threads_ <= 1).
  void run_window_inline();
  /// Full worker-pool flush loop: launches windows, runs barriers, and
  /// (without an observer) lets the pool chain windows itself.
  void run_windows_pooled();
  /// Post-flush high-water-mark trim of the staging structures; a
  /// burst's memory is released once a later, smaller flush proves it
  /// dead (never mid-flush).
  void trim_staging();
  void worker_main();

  // -- Worker pool signalling (see the protocol comment in the .cpp).
  void bump_go_and_wake();
  void signal_driver(std::atomic<bool>& flag);
  void driver_wait(std::atomic<bool>& flag);
  /// Spin-then-park until `go_` moves past `seen`; returns false on
  /// shutdown.
  bool wait_for_go(std::uint64_t& seen);
  /// Barrier + relaunch executed by the last worker of a window when
  /// chaining is enabled.
  void worker_barrier_and_relaunch();

  static constexpr SimTime kNoPendingWork =
      std::numeric_limits<SimTime>::max();
  /// "No direct cross-domain link" sentinel in the pair matrix: the
  /// pair imposes no window constraint (within one window only
  /// single-hop cross-domain transfers occur, so only direct edges can
  /// carry work between domains).
  static constexpr SimDuration kInfEdge =
      std::numeric_limits<SimDuration>::max();
  /// Spin budget before a worker (or the waiting driver) parks on the
  /// condvar; windows are microseconds apart, so staying hot across a
  /// handful of them is the common case.  Past kSpinBeforeYield the
  /// spin yields each probe so oversubscribed hosts stay livable.
  static constexpr int kSpinBudget = 4096;
  static constexpr int kSpinBeforeYield = 128;
  /// Containers whose capacity exceeds 4x the flush high-water mark
  /// (and this floor) are trimmed after the flush drains.
  static constexpr std::size_t kTrimFloor = 64;

  Fabric& fabric_;
  int threads_ = 1;
  SimDuration lookahead_ = 0;
  std::vector<std::uint32_t> domain_of_switch_;
  std::vector<std::uint32_t> home_domain_of_nic_;
  std::vector<RosettaSwitch*> switch_ptr_;
  std::vector<Domain> domains_;
  /// Per-domain-pair lookahead, row-major [from * nd + to]: the cheapest
  /// single cross-domain hop (link latency + hop floor, clamped >= 1),
  /// or kInfEdge when no base-plan link connects the pair directly.
  std::vector<SimDuration> pair_edge_;
  std::uint64_t windows_run_ = 0;
  std::function<void()> barrier_observer_;

  // -- Driver-written global counters (domain-local ones live in
  //    DomainStats and are summed by stats()).
  std::uint64_t flushes_ = 0;
  std::uint64_t silent_barriers_ = 0;
  std::uint64_t chained_windows_ = 0;
  /// Atomic, not driver-written: bump_go_and_wake() counts it after
  /// publishing `go_`, when the next window's coordinator (a chaining
  /// worker) may already be counting its own wakeup.
  std::atomic<std::uint64_t> worker_wakeups_{0};
  std::uint64_t staging_trims_ = 0;

  // -- Worker pool.  Window-generation driven: `go_` names the window
  //    generation workers should execute; each worker claims domains
  //    off the `next_domain_` ticket and bumps `arrived_` when the
  //    claims run dry.  The last arriver either runs the barrier itself
  //    and bumps `go_` again (chaining, no observer) or signals the
  //    driver.  Both sides spin kSpinBudget before parking on the
  //    condvar; the park/wake race is closed Dekker-style with seq_cst
  //    flags (`parked_workers_`, `driver_parked_`) rechecked under
  //    `pool_mu_`.  The acq_rel arrival counter orders every domain
  //    mutation before the barrier work, and the release bump of `go_`
  //    orders the barrier before the next window's claims.
  /// Inline (no-worker) mode only: cross-domain hops move straight into
  /// the destination's fresh batch instead of an outbox — the driver
  /// owns every domain, and run-queue order depends only on the
  /// already-assigned (vt, seq) keys, so the shortcut is digest-free.
  bool direct_cross_ = false;

  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;    // workers: new window / shutdown
  std::condition_variable driver_cv_;  // driver: window or flush done
  std::atomic<std::uint64_t> go_{0};
  std::atomic<std::size_t> next_domain_{0};
  std::atomic<std::size_t> arrived_{0};
  std::atomic<bool> window_done_{false};  // per-window handoff (observer mode)
  std::atomic<bool> flush_done_{false};   // chained-flush handoff
  std::atomic<int> parked_workers_{0};
  std::atomic<bool> driver_parked_{false};
  bool chain_barriers_ = false;  ///< set per flush; workers read it quiescent
  std::atomic<bool> shutdown_{false};
  /// Reused scratch for compute_window_ends (coordinator-only).
  std::vector<std::uint32_t> pending_;
};

}  // namespace shs::hsn
