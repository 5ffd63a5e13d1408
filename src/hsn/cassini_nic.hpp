// cassini_nic.hpp — model of the Slingshot Cassini (CXI) NIC.
//
// The real Cassini exposes RDMA through a character device: applications
// allocate endpoints (command + event queues), register memory regions,
// and then communicate with no kernel involvement (Section II-A/II-B).
// This model keeps those semantics:
//   * endpoints are NIC-level objects bound to exactly one VNI and one
//     traffic class at allocation time (the security-relevant binding —
//     authorization happens in the CXI driver *before* this call);
//   * two-sided sends land in the target endpoint's RX queue;
//   * one-sided RDMA read/write touch registered memory regions only,
//     validated against the packet's VNI, with completions raised at the
//     initiator via a real ACK/response packet routed back through the
//     switch (so isolation applies to both directions);
//   * every operation advances *virtual* time via the shared TimingModel
//     (callers carry their own virtual clock; see src/mpi).
//
// Fabric attachment: the NIC does not hold a switch pointer.  It emits
// packets through an injection callback (Fabric::inject routes at the
// packet's home edge switch, always against the fabric manager's
// current tables) and receives deliveries via deliver(), which the
// Fabric wires as the edge switch's delivery callback.  This keeps the
// NIC valid across topology republishes with nothing to re-validate.
//
// Thread-safety: all public methods may be called from any thread; RX and
// event queues sit behind a per-endpoint spinlock and are read by polling
// (the synchronous walk queues a packet, and its reply or ACK, before the
// send returns, so there is nothing to block for).
// The endpoint directory is read lock-free (three dependent atomic loads
// through an append-only chunked index), so the steady-state send and
// receive paths never touch the NIC-wide lock for endpoint resolution.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hsn/packet.hpp"
#include "hsn/rosetta_switch.hpp"
#include "hsn/timing.hpp"
#include "util/spinlock.hpp"
#include "util/status.hpp"

namespace shs::hsn {

class Fabric;

/// Completion event, as Cassini would write into an event queue.
struct Event {
  enum class Type : std::uint8_t {
    kSendComplete,
    kRdmaWriteComplete,
    kRdmaReadComplete,
    kError,
  };
  Type type = Type::kError;
  Status status;               ///< non-OK for kError
  std::uint64_t op_id = 0;     ///< initiator-side correlation id
  std::uint64_t size = 0;
  SimTime vt = 0;              ///< virtual completion time
  std::vector<std::byte> data; ///< RDMA-read response payload
};

/// Why a target NIC refused a one-sided op (carried back to the
/// initiator in a kRmaNack packet's `tag`).  All three are *permanent*
/// failures: retransmitting the same request can never succeed, so the
/// initiator completes the op immediately with a non-retryable status.
enum class RmaNackReason : std::uint8_t {
  kNoSuchMr = 1,     ///< rkey does not name a registered region
  kVniMismatch = 2,  ///< MR is registered on a different VNI
  kOutOfBounds = 3,  ///< offset + length exceeds the region
};

/// NIC hardware resource limits (per NIC).
struct NicLimits {
  std::uint32_t max_endpoints = 2048;
  std::uint32_t max_memory_regions = 8192;
  std::size_t max_rx_queue_packets = 1 << 16;
};

struct NicCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_dropped = 0;       ///< refused by the switch
  std::uint64_t rx_unknown_ep = 0;    ///< arrived for a freed endpoint
  std::uint64_t rx_vni_mismatch = 0;  ///< NIC-side VNI double-check failed
  std::uint64_t rma_denied = 0;       ///< RMA to missing/foreign-VNI MR
  /// Two-sided packets tail-dropped because the destination endpoint's
  /// RX ring was at max_rx_queue_packets (DropReason::kRxOverflow) —
  /// a counted, observable drop instead of the silent loss it was.
  std::uint64_t rx_overflow = 0;
};

/// NIC-level reliable-delivery protocol knobs (see docs/reliability.md).
/// Disabled by default: the zero-cost path is one predicted branch per
/// post.  Configure before traffic starts; not safe to flip mid-flight.
struct ReliabilityConfig {
  bool enabled = false;
  /// Retransmits after the initial attempt; an op that still fails
  /// degrades into a Status-reported kError completion (never a hang).
  int max_retries = 8;
  /// First retransmit timeout; grows by `backoff_factor` per attempt,
  /// capped at `rto_max`, each draw jittered by ±`jitter` (seeded, so
  /// per-seed schedules are bit-identical).
  SimDuration rto_base = from_micros(10);
  double backoff_factor = 2.0;
  SimDuration rto_max = from_millis(2);
  double jitter = 0.1;
  std::uint64_t seed = 0x5eed;
  /// Receiver-side duplicate-suppression window: most recent (src, seq)
  /// pairs remembered per NIC.
  std::size_t dedup_window = 1 << 14;
  /// Degraded mode (control plane down, see docs/fault_tolerance.md):
  /// multiplier on max_retries for drops only a republish can cure
  /// (kLinkDown / kNoRoute / kStaleEpoch) — instead of failing fast on a
  /// replan that cannot arrive, the op stretches its budget and rides
  /// out the outage.  <= 1 disables the stretch.
  double degraded_retry_factor = 2.0;
};

/// Reliable-delivery accounting, per NIC (Fabric::reliability_totals()
/// sums these fabric-wide; the stack surfaces them in its metrics).
struct ReliabilityCounters {
  std::uint64_t retransmits = 0;        ///< retry attempts injected
  std::uint64_t duplicates = 0;         ///< suppressed at the receiver
  std::uint64_t budget_exhausted = 0;   ///< ops failed after max_retries
  std::uint64_t recovered = 0;          ///< ops that needed >= 1 retry
  /// Recovered ops whose successful attempt routed on a newer
  /// CompiledPlan than their first try — packets lost in the
  /// failure->replan window and carried across it by retransmission.
  std::uint64_t recovered_after_replan = 0;
};

/// The NIC.  One per node; the Fabric constructs it with an injection
/// callback and connects deliver() to the node's edge switch.
class CassiniNic {
 public:
  /// Hands a packet to the fabric's data plane (Fabric::inject — or, in
  /// single-switch unit tests, RosettaSwitch::route directly).
  using InjectFn = std::function<RouteResult(Packet&&)>;

  CassiniNic(NicAddr addr, InjectFn inject,
             std::shared_ptr<TimingModel> timing, NicLimits limits = {});
  /// Fabric-owned NICs inject through the Fabric directly (no
  /// std::function dispatch on the per-packet path).  The Fabric
  /// outlives its NICs by construction.
  CassiniNic(NicAddr addr, Fabric& fabric,
             std::shared_ptr<TimingModel> timing, NicLimits limits = {});
  CassiniNic(const CassiniNic&) = delete;
  CassiniNic& operator=(const CassiniNic&) = delete;

  [[nodiscard]] NicAddr addr() const noexcept { return addr_; }
  [[nodiscard]] const NicLimits& limits() const noexcept { return limits_; }

  /// Fabric-side entry point: the edge switch's delivery callback.
  /// Dispatches by PacketOp; never holds an endpoint lock while
  /// re-entering the fabric (loopback RMA replies).  One-sided targets
  /// that owe the initiator a reply (ACK / read response / NACK) inject
  /// it back into the fabric synchronously from here.
  void deliver(Packet&& p);

  /// Engine-side delivery: identical to deliver() except that a reply
  /// the target owes is *returned* (TX-scheduled onto this NIC's seq
  /// stream but not injected) instead of re-entering the fabric from the
  /// delivery callback.  The sharded engine stages it as a fresh attempt
  /// in the target's own domain, so reply traffic obeys the same
  /// (domain, vt, seq) merge order as everything else.  The returned
  /// packet's `reliable` flag is pre-set from this NIC's
  /// ReliabilityConfig; nullopt when the packet needed no reply.
  std::optional<Packet> deliver_from_engine(Packet&& p);

  // -- Endpoint lifecycle (invoked by the CXI driver after authentication).

  /// Allocates a hardware endpoint bound to `vni`/`tc`.
  Result<EndpointId> alloc_endpoint(Vni vni, TrafficClass tc);
  Status free_endpoint(EndpointId ep);
  [[nodiscard]] std::size_t endpoint_count() const;
  /// VNI an endpoint is bound to (kInvalidVni if unknown).
  [[nodiscard]] Vni endpoint_vni(EndpointId ep) const;

  // -- Memory registration (one-sided targets).

  /// Registers `region` for remote access via the returned RKey.  The
  /// region inherits the endpoint's VNI; remote ops on other VNIs are
  /// refused by the NIC even if the switch somehow routed them.
  Result<RKey> register_mr(EndpointId ep, std::span<std::byte> region);
  Status deregister_mr(RKey key);
  [[nodiscard]] std::size_t mr_count() const;

  // -- Data path.  `local_vt` is the caller's virtual clock; the returned
  //    SimTime is the clock after the NIC accepted the operation.

  /// Two-sided send.  If `payload` is non-empty its bytes travel with the
  /// packet; otherwise the packet is size-only (`size_bytes` governs
  /// timing either way).  Completion is *local* (eager): the returned
  /// time is when the send buffer is reusable.  Switch-level drops raise
  /// a kError event on the sender's event queue.
  Result<SimTime> post_send(EndpointId ep, NicAddr dst, EndpointId dst_ep,
                            std::uint64_t tag, std::uint64_t size_bytes,
                            std::span<const std::byte> payload,
                            SimTime local_vt, std::uint64_t op_id = 0);

  /// One-sided RDMA write into the remote MR `rkey` at `offset`.
  /// Completion (kRdmaWriteComplete) arrives on this endpoint's event
  /// queue once the target NIC's ACK returns.
  Result<SimTime> rdma_write(EndpointId ep, NicAddr dst, RKey rkey,
                             std::uint64_t offset, std::uint64_t size_bytes,
                             std::span<const std::byte> payload,
                             SimTime local_vt, std::uint64_t op_id);

  /// One-sided RDMA read of `size_bytes` from remote MR `rkey`+`offset`.
  /// Completion (kRdmaReadComplete, with data) arrives on the event queue.
  Result<SimTime> rdma_read(EndpointId ep, NicAddr dst, RKey rkey,
                            std::uint64_t offset, std::uint64_t size_bytes,
                            SimTime local_vt, std::uint64_t op_id);

  // -- Queues.

  /// Dequeues the next two-sided packet for `ep` (kUnavailable if none).
  Result<Packet> poll_rx(EndpointId ep);
  /// Bulk-discards every packet queued on `ep` (a completion-queue
  /// drain: one lock, no per-packet move).  Returns the discard count —
  /// what rate benchmarks use to keep queues bounded without paying a
  /// poll round trip per packet.
  std::size_t drain_rx(EndpointId ep);

  /// Dequeues the endpoint's next event (kUnavailable if none).
  Result<Event> poll_event(EndpointId ep);

  [[nodiscard]] NicCounters counters() const;

  // -- Reliable delivery (see docs/reliability.md).

  /// Installs the retransmit protocol on this NIC's send paths.  Must be
  /// called before traffic; reads of the config on the data path are
  /// unsynchronized by design.
  void set_reliability(const ReliabilityConfig& cfg);
  [[nodiscard]] const ReliabilityConfig& reliability() const noexcept {
    return rel_;
  }
  /// Invoked between a failed attempt and its retransmit (outside every
  /// lock) with the 1-based attempt number and the backoff about to be
  /// charged.  Harnesses use it to advance control-plane virtual time /
  /// trigger fabric-manager repair during the retry window.  Only safe
  /// when sends are single-threaded (the chaos/bench drivers); do not
  /// install one under multi-threaded MPI ranks.
  using RetryHook = std::function<void(int attempt, SimDuration backoff)>;
  void set_retry_hook(RetryHook hook) { retry_hook_ = std::move(hook); }
  [[nodiscard]] ReliabilityCounters reliability_counters() const;

  /// Degraded mode: flipped by the stack's fabric-manager watchdog while
  /// the control plane is down/restarting.  Replan-dependent failures
  /// then retry against the stretched budget (degraded_retry_factor)
  /// instead of failing fast waiting for a republish that cannot come.
  void set_degraded(bool on) noexcept {
    degraded_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// Retry budget for an op whose last attempt failed with `r`:
  /// max_retries, stretched by degraded_retry_factor while degraded for
  /// the replan-dependent reasons.  Consulted by inject_reliable and the
  /// ShardEngine's retry staging.
  [[nodiscard]] int retry_budget(DropReason r) const noexcept;

  // -- Sharded data-plane engine hooks (see hsn/shard_engine.hpp).  The
  //    engine splits post_send into prepare (build + TX scheduling,
  //    here) and walk (hop-by-hop across domains, engine-side), then
  //    reports each op's outcome back on the engine's driver thread at
  //    a window barrier via the note_* calls below.  All four are
  //    driver-thread-only by contract.

  /// A packet built and TX-scheduled but not yet handed to the fabric.
  struct PreparedSend {
    Packet packet;
    /// local_vt + tx overhead — the base the retransmit backoff grows
    /// from (post_send's `done_vt`).
    SimTime accepted_vt = 0;
  };
  /// Engine-side prefix of post_send(): validates the endpoint, builds
  /// the kSend packet (size-only, no payload), assigns its NIC-global
  /// sequence number and charges the TX link horizon.  Does not inject,
  /// retry, or raise completion events; packet.reliable is pre-set from
  /// this NIC's ReliabilityConfig.
  Result<PreparedSend> prepare_send(EndpointId ep, NicAddr dst,
                                    EndpointId dst_ep, std::uint64_t tag,
                                    std::uint64_t size_bytes,
                                    SimTime local_vt);
  /// Zero-copy variant of prepare_send for the engine's pooled staging:
  /// builds the packet directly into caller-owned storage `out`
  /// (typically a slot of a ShardEngine item pool) and returns the
  /// accepted_vt, skipping the PreparedSend move chain on the
  /// highest-rate verb.  `out` is only written on success.
  Result<SimTime> prepare_send_into(Packet& out, EndpointId ep, NicAddr dst,
                                    EndpointId dst_ep, std::uint64_t tag,
                                    std::uint64_t size_bytes,
                                    SimTime local_vt);
  /// Engine-side prefix of rdma_write(): same packet rdma_write would
  /// inject (payload copied when non-empty), same accepted_vt, seq and
  /// TX charge.  The completion (kRdmaWriteComplete via the target's
  /// ACK, or kError via a NACK/drop) is raised with `op_id` when the
  /// reply lands.
  Result<PreparedSend> prepare_rma_write(EndpointId ep, NicAddr dst,
                                         RKey rkey, std::uint64_t offset,
                                         std::uint64_t size_bytes,
                                         std::span<const std::byte> payload,
                                         SimTime local_vt,
                                         std::uint64_t op_id);
  /// Engine-side prefix of rdma_read(): the small read *request* packet
  /// (wanted length rides in `tag`, as on the synchronous path).
  Result<PreparedSend> prepare_rma_read(EndpointId ep, NicAddr dst,
                                        RKey rkey, std::uint64_t offset,
                                        std::uint64_t size_bytes,
                                        SimTime local_vt,
                                        std::uint64_t op_id);
  /// Charges one retransmit of master packet `proto` for 1-based retry
  /// number `attempt`: recomputes the capped exponential backoff, draws
  /// the seeded jitter, advances `vt_io` (the op's send-buffer hold
  /// time) by the backoff, re-schedules the TX horizon (updating
  /// proto.inject_vt) and counts the retransmit.  Returns the backoff.
  SimDuration schedule_retransmit(Packet& proto, int attempt,
                                  SimTime& vt_io);
  /// Terminal-failure accounting for an engine-driven send: TX-drop
  /// counter plus a kError event on the source endpoint's queue;
  /// `budget_exhausted` additionally counts a reliable op that ran out
  /// of retries.
  void note_tx_drop(DropReason r, EndpointId src_ep, std::uint64_t op_id,
                    SimTime error_vt, bool budget_exhausted);
  /// Recovery accounting for an engine-driven reliable op that needed
  /// >= 1 retransmit before delivering.
  void note_recovered(bool after_replan);
  /// True when `r` is worth retrying under the reliable protocol (the
  /// engine's retry/fail-fast decision, same predicate post_send uses).
  [[nodiscard]] static bool is_transient(DropReason r) noexcept {
    return transient_reason(r);
  }

 private:
  /// FIFO of received packets: a power-of-two ring over one contiguous
  /// buffer.  A deque allocates and frees block nodes as the queue
  /// breathes with every burst/drain cycle; the ring touches the
  /// allocator only when the high-water mark grows.
  class PacketRing {
   public:
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    void push_back(Packet&& p) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(p);
      ++size_;
    }
    Packet pop_front() {
      Packet p = std::move(buf_[head_]);
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
      return p;
    }
    /// Discards everything queued (releases payload buffers in place —
    /// no per-packet moves), returning how many packets were dropped.
    std::size_t clear() noexcept {
      const std::size_t n = size_;
      for (std::size_t i = 0; i < n; ++i) {
        // Move-assign an empty vector: actually frees the heap buffer
        // (vector::clear() would only reset the size and pin capacity).
        buf_[(head_ + i) & (buf_.size() - 1)].payload =
            std::vector<std::byte>();
      }
      head_ = 0;
      size_ = 0;
      return n;
    }

   private:
    void grow() {
      const std::size_t n = buf_.empty() ? 16 : buf_.size() * 2;
      std::vector<Packet> next(n);
      for (std::size_t i = 0; i < size_; ++i) {
        next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
      }
      buf_ = std::move(next);
      head_ = 0;
    }
    std::vector<Packet> buf_;  ///< power-of-two capacity
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// A hardware endpoint.  Owns its queues behind its own lock so
  /// endpoints never contend with each other or with the NIC-wide maps.
  struct Endpoint {
    Vni vni = kInvalidVni;
    TrafficClass tc = TrafficClass::kBestEffort;
    /// Guards the queues.  A spinlock: every push/poll/drain is a few
    /// dozen nanoseconds, and ShardEngine workers push from their own
    /// threads.
    SpinLock qlock;
    PacketRing rx;
    std::deque<Event> events;
    /// Two-sided packets accepted into rx (plain: incremented under
    /// qlock, which the push holds anyway — no extra atomic RMW on the
    /// per-packet path).  counters() sums these across endpoints.
    std::uint64_t rx_accepted = 0;
  };
  struct MemRegion {
    EndpointId ep = 0;
    Vni vni = kInvalidVni;
    std::span<std::byte> region;
  };
  // Lock-free endpoint directory.  EndpointIds are dense and never
  // reused; slots live in fixed-size chunks reached through a spine of
  // chunk pointers.  Storage is append-only: chunks and spines are never
  // freed before the NIC itself, and every Endpoint ever allocated is
  // parked in ep_owned_ until destruction (a freed endpoint's slot is
  // nulled; the object stays valid for any reader that raced the free —
  // the same "packet in flight while endpoint closes" window the real
  // hardware has).  Readers therefore need no lock and no refcount
  // traffic: three dependent acquire loads resolve an id to a raw
  // Endpoint*.  Writers (alloc/free, cold) serialize on mutex_.
  //
  // Deliberate trade: parked endpoints make NIC memory grow with the
  // number of endpoints ever allocated (a few hundred bytes plus any
  // retained queue capacity each) rather than the number live.  A NIC
  // churns at job granularity — thousands over a long soak, not
  // millions — so this buys lock-free reads for kilobytes.  Revisit
  // with epoch-based reclamation if endpoint churn ever scales with
  // packet counts.
  static constexpr std::size_t kEpChunkSize = 128;
  struct EpChunk {
    std::array<std::atomic<Endpoint*>, kEpChunkSize> slots{};
  };
  struct EpSpine {
    explicit EpSpine(std::size_t n) : chunks(n) {}
    std::vector<std::atomic<EpChunk*>> chunks;
  };

  /// Everything that varies between the TX verbs; prepare_tx supplies
  /// the invariant parts (src addressing, VNI/TC binding, reliability
  /// flag, serialization cache, seq and TX-horizon charge).
  struct TxParams {
    PacketOp op = PacketOp::kSend;
    NicAddr dst = kInvalidNic;
    EndpointId dst_ep = 0;
    std::uint64_t tag = 0;
    std::uint64_t size_bytes = 0;
    RKey rkey = 0;
    std::uint64_t mr_offset = 0;
    std::uint64_t op_id = 0;
    std::span<const std::byte> payload;
  };
  /// The one validate/build/schedule prefix every TX verb shares —
  /// post_send, rdma_write, rdma_read, and the engine's prepare_*
  /// hooks all delegate here, so the legacy and engine paths cannot
  /// drift: endpoint validation, packet field setup, accepted_vt,
  /// serialization cache, and the locked seq + TX-horizon charge.
  Result<PreparedSend> prepare_tx(EndpointId ep, const TxParams& tx,
                                  SimTime local_vt);
  /// Core of prepare_tx, writing into caller-owned packet storage and
  /// returning accepted_vt — the allocation-free form the engine's
  /// pooled staging calls; prepare_tx wraps it for the by-value users.
  Result<SimTime> prepare_tx_into(Packet& out, EndpointId ep,
                                  const TxParams& tx, SimTime local_vt);

  [[nodiscard]] Endpoint* find_ep(EndpointId ep) const;
  /// Ensures a slot for `id` exists and returns it.  Caller holds mutex_.
  std::atomic<Endpoint*>& ep_slot_locked(EndpointId id);
  static void push_event(Endpoint& ep, Event e, std::size_t cap);
  void count_tx_drop(const RouteResult& rr, EndpointId src_ep,
                     std::uint64_t op_id, SimTime error_vt);
  /// Shared body of deliver()/deliver_from_engine(): consumes the
  /// packet, applies its effect, and returns the reply the target owes
  /// (TX-sequenced, `reliable` pre-set, not injected) — the two public
  /// entry points differ only in who routes that reply.
  std::optional<Packet> deliver_impl(Packet&& p);
  /// Builds the fail-fast NACK a target owes the initiator of a denied
  /// one-sided op (reason code in `tag`, op_id echoed).
  Packet make_rma_nack(const Packet& req, RmaNackReason why);
  /// Injection scheduling: computes when a packet of `tc` leaves the NIC
  /// given `accepted_vt`, honouring per-class priority (same model as the
  /// switch egress).  `ser_time` is the packet's serialization on the
  /// edge link, computed once by the caller (and cached on the packet
  /// so same-rate fabric hops skip recomputing it).  Caller holds
  /// mutex_.
  SimTime schedule_tx_locked(SimTime accepted_vt, TrafficClass tc,
                             SimDuration ser_time);

  /// Routes `p` into the fabric: direct Fabric call when fabric_ is
  /// set, the generic callback otherwise.
  RouteResult inject(Packet&& p);

  /// Reliable injection: attempts `proto` (kept intact as the
  /// retransmit master copy) up to 1 + max_retries times, charging
  /// exponential seeded-jitter backoff to `vt_io` (the caller's
  /// accepted-time, which the retries push forward) and rescheduling
  /// each copy on the TX link.  Returns the final RouteResult;
  /// non-transient reasons (authorization, unknown destination) fail
  /// fast without consuming budget.
  RouteResult inject_reliable(Packet& proto, SimTime& vt_io);
  /// Reasons a retransmit can cure (loss, flaps, dead links awaiting
  /// replan) vs. permanent rejections.
  [[nodiscard]] static bool transient_reason(DropReason r) noexcept;
  /// The fabric manager's published table version (0 without a Fabric).
  [[nodiscard]] std::uint64_t plan_version_now() const;
  /// Status for a failed op: annotates transient reasons with the
  /// exhausted retry budget when reliability is on.
  [[nodiscard]] Status drop_status_for(DropReason r) const;
  /// Receiver-side duplicate suppression for reliable packets: records
  /// (src, seq); false when already seen (the duplicate is counted and
  /// must be discarded with no effect).
  bool accept_reliable(const Packet& p);

  const NicAddr addr_;
  Fabric* const fabric_ = nullptr;  ///< direct injection fast path
  const InjectFn inject_;           ///< generic fallback (unit-test rigs)
  std::shared_ptr<TimingModel> timing_;
  const NicLimits limits_;

  mutable SpinLock mutex_;  ///< guards endpoint dir writes, tx horizons
  /// Memory-region table lock.  A real (blocking) mutex, separate from
  /// the spinlock above: RMA targets hold it across payload-sized
  /// copies, which would break the spinlock's nanoseconds-only
  /// contract.  Lock order where both are needed: mr_mutex_ (outer) ->
  /// mutex_ (inner) — a spinlock holder never blocks.
  mutable std::mutex mr_mutex_;
  EndpointId next_ep_ = 1;
  std::uint64_t tx_packets_ = 0;  ///< plain: incremented under mutex_
  RKey next_rkey_ = 1;
  /// Atomic so RMA reply packets (sequenced under mr_mutex_) never need
  /// the spinlock — taking it there would invert the lock order.
  std::atomic<std::uint64_t> next_seq_{1};
  std::size_t endpoint_count_ = 0;
  /// Sender-side link serialization horizon, per traffic class
  /// (priority-scheduled, frame-granular preemption).
  SimTime tx_free_vt_[kNumTrafficClasses] = {0, 0, 0, 0};
  std::atomic<EpSpine*> ep_spine_;
  std::vector<std::unique_ptr<EpSpine>> ep_spines_;  ///< all generations
  std::vector<std::unique_ptr<EpChunk>> ep_chunks_;  ///< stable chunk storage
  std::vector<std::shared_ptr<Endpoint>> ep_owned_;  ///< alive until ~CassiniNic
  std::unordered_map<RKey, MemRegion> mrs_;
  /// Relaxed atomics for the paths that hold no lock; the two
  /// per-packet counters (tx under mutex_, two-sided rx under the
  /// endpoint qlock) are plain integers under locks the path already
  /// holds.
  struct {
    std::atomic<std::uint64_t> rx_packets{0};  ///< ACK/RMA receptions
    std::atomic<std::uint64_t> tx_dropped{0};
    std::atomic<std::uint64_t> rx_unknown_ep{0};
    std::atomic<std::uint64_t> rx_vni_mismatch{0};
    std::atomic<std::uint64_t> rma_denied{0};
    std::atomic<std::uint64_t> rx_overflow{0};
    std::atomic<std::uint64_t> rel_retransmits{0};
    std::atomic<std::uint64_t> rel_duplicates{0};
    std::atomic<std::uint64_t> rel_budget_exhausted{0};
    std::atomic<std::uint64_t> rel_recovered{0};
    std::atomic<std::uint64_t> rel_recovered_after_replan{0};
  } counters_;

  // -- Reliable-delivery state.
  ReliabilityConfig rel_;
  RetryHook retry_hook_;
  /// Degraded-mode flag (see set_degraded); relaxed atomic so the
  /// watchdog can flip it without taking the NIC's data-path lock.
  std::atomic<bool> degraded_{false};
  /// Backoff-jitter stream (guarded by mutex_; reseeded per NIC so
  /// retry schedules decorrelate across senders but stay per-seed
  /// deterministic).
  Rng rel_rng_{0x5eed};
  /// Duplicate-suppression window: seen (src, seq) keys + FIFO eviction
  /// order.  Own lock — the receive path must not contend with senders
  /// on mutex_, and entries are only touched for reliable packets.
  mutable SpinLock dedup_lock_;
  std::unordered_set<std::uint64_t> rel_seen_;
  std::deque<std::uint64_t> rel_seen_fifo_;
};

}  // namespace shs::hsn
