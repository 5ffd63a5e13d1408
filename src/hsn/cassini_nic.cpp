#include "hsn/cassini_nic.hpp"

#include <algorithm>

#include "hsn/fabric.hpp"
#include <cstring>
#include <optional>
#include <utility>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::hsn {

namespace {
constexpr const char* kTag = "cassini";

Status drop_status(DropReason r) {
  switch (r) {
    case DropReason::kSrcNotAuthorized:
      return permission_denied("switch: source port not authorized for VNI");
    case DropReason::kDstNotAuthorized:
      return permission_denied(
          "switch: destination port not authorized for VNI");
    case DropReason::kUnknownDestination:
      return not_found("switch: no NIC at destination address");
    case DropReason::kNoRoute:
      return unavailable("switch: no route to destination switch");
    case DropReason::kLinkDown:
      return unavailable("switch: dead link or failed switch on the path");
    case DropReason::kLossInjected:
      return unavailable("fabric: packet lost on a lossy link");
    case DropReason::kCorrupt:
      return unavailable("fabric: packet corrupted in transit");
    case DropReason::kAckLost:
      return unavailable("fabric: delivery unacknowledged (ACK lost)");
    case DropReason::kRxOverflow:
      return resource_exhausted("nic: receiver RX ring overflow");
    case DropReason::kStaleEpoch:
      return unavailable("switch: routing plan lags the committed epoch");
    case DropReason::kNone:
      break;
  }
  return internal_error("unexpected drop reason");
}
}  // namespace

CassiniNic::CassiniNic(NicAddr addr, InjectFn inject,
                       std::shared_ptr<TimingModel> timing, NicLimits limits)
    : addr_(addr), inject_(std::move(inject)), timing_(std::move(timing)),
      limits_(limits) {
  ep_spines_.push_back(std::make_unique<EpSpine>(4));
  ep_spine_.store(ep_spines_.back().get(), std::memory_order_release);
  if (!inject_) {
    SHS_ERROR(kTag) << "NIC " << addr_ << " built without injection path";
  }
}

CassiniNic::CassiniNic(NicAddr addr, Fabric& fabric,
                       std::shared_ptr<TimingModel> timing, NicLimits limits)
    : addr_(addr), fabric_(&fabric), timing_(std::move(timing)),
      limits_(limits) {
  ep_spines_.push_back(std::make_unique<EpSpine>(4));
  ep_spine_.store(ep_spines_.back().get(), std::memory_order_release);
}

RouteResult CassiniNic::inject(Packet&& p) {
  if (fabric_ != nullptr) return fabric_->inject(std::move(p));
  return inject_(std::move(p));
}

std::atomic<CassiniNic::Endpoint*>& CassiniNic::ep_slot_locked(
    EndpointId id) {
  const std::size_t chunk = id / kEpChunkSize;
  EpSpine* spine = ep_spine_.load(std::memory_order_relaxed);
  if (chunk >= spine->chunks.size()) {
    // Grow the spine by generations; the old one stays alive (and
    // valid) for any reader that loaded it a moment ago.
    const std::size_t grown = std::max(chunk + 1, spine->chunks.size() * 2);
    auto next = std::make_unique<EpSpine>(grown);
    for (std::size_t i = 0; i < spine->chunks.size(); ++i) {
      next->chunks[i].store(spine->chunks[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    ep_spines_.push_back(std::move(next));
    spine = ep_spines_.back().get();
    ep_spine_.store(spine, std::memory_order_release);
  }
  if (spine->chunks[chunk].load(std::memory_order_relaxed) == nullptr) {
    ep_chunks_.push_back(std::make_unique<EpChunk>());
    spine->chunks[chunk].store(ep_chunks_.back().get(),
                               std::memory_order_release);
  }
  return spine->chunks[chunk].load(std::memory_order_relaxed)
      ->slots[id % kEpChunkSize];
}

Result<EndpointId> CassiniNic::alloc_endpoint(Vni vni, TrafficClass tc) {
  if (vni == kInvalidVni) {
    return Result<EndpointId>(invalid_argument("VNI 0 is reserved"));
  }
  std::lock_guard<SpinLock> lock(mutex_);
  if (endpoint_count_ >= limits_.max_endpoints) {
    return Result<EndpointId>(
        resource_exhausted(strfmt("NIC %u endpoint limit (%u) reached", addr_,
                                  limits_.max_endpoints)));
  }
  const EndpointId id = next_ep_++;
  auto ep = std::make_shared<Endpoint>();
  ep->vni = vni;
  ep->tc = tc;
  // Publish: the release store makes the fully-built Endpoint visible to
  // the lock-free readers.
  std::atomic<Endpoint*>& slot = ep_slot_locked(id);
  ep_owned_.push_back(ep);
  slot.store(ep.get(), std::memory_order_release);
  ++endpoint_count_;
  SHS_DEBUG(kTag) << "NIC " << addr_ << " allocated EP " << id << " on VNI "
                  << vni;
  return id;
}

Status CassiniNic::free_endpoint(EndpointId id) {
  {
    // mr_mutex_ is the OUTER lock (the documented order): the spinlock
    // section inside stays nanoseconds-long and never blocks, and
    // holding mr_mutex_ across slot-null + MR sweep serializes this
    // whole teardown against register_mr's lookup + insert.
    std::lock_guard<std::mutex> mr_lock(mr_mutex_);
    {
      std::lock_guard<SpinLock> lock(mutex_);
      if (find_ep(id) == nullptr) {
        return not_found(strfmt("NIC %u: no endpoint %u", addr_, id));
      }
      // Ids are never reused; the slot stays empty.  The object itself
      // stays parked in ep_owned_ so a racing reader is never left with
      // a dangling pointer.
      ep_slot_locked(id).store(nullptr, std::memory_order_release);
      --endpoint_count_;
    }
    // Registered MRs die with the endpoint, as the driver would enforce.
    for (auto mr_it = mrs_.begin(); mr_it != mrs_.end();) {
      if (mr_it->second.ep == id) {
        mr_it = mrs_.erase(mr_it);
      } else {
        ++mr_it;
      }
    }
  }
  return Status::ok();
}

std::size_t CassiniNic::endpoint_count() const {
  std::lock_guard<SpinLock> lock(mutex_);
  return endpoint_count_;
}

Vni CassiniNic::endpoint_vni(EndpointId id) const {
  const auto ep = find_ep(id);
  return ep ? ep->vni : kInvalidVni;
}

CassiniNic::Endpoint* CassiniNic::find_ep(EndpointId id) const {
  // Lock-free read: three dependent acquire loads (spine -> chunk ->
  // slot) — the steady-state fast path for every send and receive, with
  // no lock and no refcount traffic.
  const EpSpine* spine = ep_spine_.load(std::memory_order_acquire);
  const std::size_t chunk = id / kEpChunkSize;
  if (chunk >= spine->chunks.size()) return nullptr;
  const EpChunk* c = spine->chunks[chunk].load(std::memory_order_acquire);
  if (c == nullptr) return nullptr;
  return c->slots[id % kEpChunkSize].load(std::memory_order_acquire);
}

Result<RKey> CassiniNic::register_mr(EndpointId ep_id,
                                     std::span<std::byte> region) {
  // mr_mutex_ serializes the lookup + insert against free_endpoint's
  // slot-null + MR sweep (which also runs under mr_mutex_), so no MR
  // can be registered against an endpoint being freed and then outlive
  // the per-endpoint sweep.  No spinlock is held across this blocking
  // section.
  std::lock_guard<std::mutex> mr_lock(mr_mutex_);
  const Endpoint* ep = find_ep(ep_id);
  if (ep == nullptr) {
    return Result<RKey>(not_found(strfmt("NIC %u: no endpoint %u", addr_,
                                         ep_id)));
  }
  if (mrs_.size() >= limits_.max_memory_regions) {
    return Result<RKey>(resource_exhausted(
        strfmt("NIC %u MR limit (%u) reached", addr_,
               limits_.max_memory_regions)));
  }
  const RKey key = next_rkey_++;
  mrs_.emplace(key, MemRegion{ep_id, ep->vni, region});
  return key;
}

Status CassiniNic::deregister_mr(RKey key) {
  std::lock_guard<std::mutex> lock(mr_mutex_);
  if (mrs_.erase(key) == 0) {
    return not_found(strfmt("NIC %u: no MR with rkey %llu", addr_,
                            static_cast<unsigned long long>(key)));
  }
  return Status::ok();
}

std::size_t CassiniNic::mr_count() const {
  std::lock_guard<std::mutex> lock(mr_mutex_);
  return mrs_.size();
}

void CassiniNic::push_event(Endpoint& ep, Event e, std::size_t cap) {
  std::lock_guard<SpinLock> lock(ep.qlock);
  if (ep.events.size() >= cap) ep.events.pop_front();  // oldest-first drop
  ep.events.push_back(std::move(e));
}

SimTime CassiniNic::schedule_tx_locked(SimTime accepted_vt, TrafficClass tc,
                                       SimDuration ser_time) {
  const int prio = static_cast<int>(tc);  // 0 = highest priority
  SimTime start = accepted_vt;
  for (int c = 0; c <= prio; ++c) {
    start = std::max(start, tx_free_vt_[c]);
  }
  for (int c = prio + 1; c < kNumTrafficClasses; ++c) {
    if (tx_free_vt_[c] > start) {
      // One lower-priority frame may be in flight (non-preemptible).
      start += timing_->serialize_time(timing_->config().frame_bytes);
      break;
    }
  }
  tx_free_vt_[prio] = start + ser_time;
  return tx_free_vt_[prio];
}

void CassiniNic::count_tx_drop(const RouteResult& rr, EndpointId src_ep,
                               std::uint64_t op_id, SimTime error_vt) {
  counters_.tx_dropped.fetch_add(1, std::memory_order_relaxed);
  if (const auto ep = find_ep(src_ep)) {
    Event e;
    e.type = Event::Type::kError;
    e.status = drop_status_for(rr.reason);
    e.op_id = op_id;
    e.vt = error_vt;
    push_event(*ep, std::move(e), limits_.max_rx_queue_packets);
  }
}

bool CassiniNic::transient_reason(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNoRoute:       // replan may restore a path
    case DropReason::kLinkDown:      // dead/flapped element, repair pending
    case DropReason::kLossInjected:
    case DropReason::kCorrupt:
    case DropReason::kAckLost:
    case DropReason::kStaleEpoch:    // a lagging switch will apply the plan
      return true;
    default:
      return false;
  }
}

Status CassiniNic::drop_status_for(DropReason r) const {
  if (rel_.enabled && transient_reason(r)) {
    return unavailable(strfmt(
        "reliable delivery failed after %d attempts (last: %s)",
        rel_.max_retries + 1, drop_reason_name(r)));
  }
  return drop_status(r);
}

int CassiniNic::retry_budget(DropReason r) const noexcept {
  const int base = std::max(rel_.max_retries, 0);
  if (!degraded_.load(std::memory_order_relaxed)) return base;
  switch (r) {
    case DropReason::kLinkDown:
    case DropReason::kNoRoute:
    case DropReason::kStaleEpoch: {
      // Only the replan-dependent reasons stretch: a lossy link or CRC
      // failure retries the same whether or not the controller is up.
      const double f = rel_.degraded_retry_factor;
      return f > 1.0 ? static_cast<int>(static_cast<double>(base) * f)
                     : base;
    }
    default:
      return base;
  }
}

std::uint64_t CassiniNic::plan_version_now() const {
  return fabric_ != nullptr ? fabric_->manager().plan_version() : 0;
}

void CassiniNic::set_reliability(const ReliabilityConfig& cfg) {
  std::lock_guard<SpinLock> lock(mutex_);
  rel_ = cfg;
  rel_rng_.reseed(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (addr_ + 1)));
}

ReliabilityCounters CassiniNic::reliability_counters() const {
  ReliabilityCounters out;
  out.retransmits =
      counters_.rel_retransmits.load(std::memory_order_relaxed);
  out.duplicates =
      counters_.rel_duplicates.load(std::memory_order_relaxed);
  out.budget_exhausted =
      counters_.rel_budget_exhausted.load(std::memory_order_relaxed);
  out.recovered = counters_.rel_recovered.load(std::memory_order_relaxed);
  out.recovered_after_replan =
      counters_.rel_recovered_after_replan.load(std::memory_order_relaxed);
  return out;
}

RouteResult CassiniNic::inject_reliable(Packet& proto, SimTime& vt_io) {
  proto.reliable = true;
  RouteResult rr;
  std::uint64_t plan_v0 = 0;
  bool have_v0 = false;
  for (int attempt = 0;; ++attempt) {
    {
      // Each attempt sends a copy; `proto` stays intact as the
      // retransmit master.  The copy is fields-only for the size-only
      // packets the benches send; payload-carrying packets pay one
      // buffer copy per attempt (reliability is off on the PR 5 hot
      // path, so this costs nothing when disabled).
      Packet copy = proto;
      rr = inject(std::move(copy));
    }
    if (rr.delivered) {
      if (attempt > 0) {
        counters_.rel_recovered.fetch_add(1, std::memory_order_relaxed);
        if (have_v0 && plan_version_now() != plan_v0) {
          counters_.rel_recovered_after_replan.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      return rr;
    }
    if (!transient_reason(rr.reason) || attempt >= retry_budget(rr.reason)) {
      if (transient_reason(rr.reason)) {
        counters_.rel_budget_exhausted.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      return rr;
    }
    if (!have_v0) {
      // Captured lazily at the first failure so the (overwhelmingly
      // common) first-attempt success never touches the manager's lock.
      plan_v0 = plan_version_now();
      have_v0 = true;
    }
    // Exponential backoff with seeded jitter, capped at rto_max.
    SimDuration rto = rel_.rto_base;
    for (int i = 0; i < attempt && rto < rel_.rto_max; ++i) {
      rto = static_cast<SimDuration>(static_cast<double>(rto) *
                                     rel_.backoff_factor);
    }
    rto = std::min(rto, rel_.rto_max);
    double jitter = 1.0;
    if (rel_.jitter > 0.0) {
      std::lock_guard<SpinLock> lock(mutex_);
      jitter = rel_rng_.jitter(rel_.jitter);
    }
    const auto backoff =
        static_cast<SimDuration>(static_cast<double>(rto) * jitter);
    counters_.rel_retransmits.fetch_add(1, std::memory_order_relaxed);
    if (retry_hook_) retry_hook_(attempt + 1, backoff);
    vt_io += backoff;
    {
      // The retransmitted copy re-queues on the TX link at the
      // backed-off time — and, crucially, re-enters the fabric through
      // Fabric::inject, which always routes by the manager's currently
      // published tables: a retransmit straddling a replan picks up the
      // new plan automatically.
      std::lock_guard<SpinLock> lock(mutex_);
      proto.inject_vt = schedule_tx_locked(vt_io, proto.tc, proto.ser_cache);
      ++tx_packets_;
    }
  }
}

bool CassiniNic::accept_reliable(const Packet& p) {
  // NIC-global sequence numbers make (src, seq) unique per sender; 44
  // bits of seq + 20 bits of src (kMaxPortAddr) pack into one key.
  const std::uint64_t key = (static_cast<std::uint64_t>(p.src) << 44) |
                            (p.seq & ((1ULL << 44) - 1));
  std::lock_guard<SpinLock> lock(dedup_lock_);
  if (!rel_seen_.insert(key).second) {
    counters_.rel_duplicates.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  rel_seen_fifo_.push_back(key);
  const std::size_t window = rel_.dedup_window > 0 ? rel_.dedup_window : 1;
  if (rel_seen_fifo_.size() > window) {
    rel_seen_.erase(rel_seen_fifo_.front());
    rel_seen_fifo_.pop_front();
  }
  return true;
}

Result<SimTime> CassiniNic::prepare_tx_into(Packet& p, EndpointId ep_id,
                                            const TxParams& tx,
                                            SimTime local_vt) {
  // The validate/build/schedule prefix every TX verb shares: same field
  // setup, same accepted_vt, same locked seq + TX-horizon charge — so an
  // engine-driven op is bit-identical in virtual time to a legacy one,
  // and the two paths cannot drift.
  const auto ep = find_ep(ep_id);
  if (!ep) {
    return Result<SimTime>(
        not_found(strfmt("NIC %u: no endpoint %u", addr_, ep_id)));
  }
  // `p` may be a recycled pool slot; every field must match a freshly
  // built packet bit-for-bit (hops, via_switch, arrival_vt included).
  p = Packet{};
  p.src = addr_;
  p.dst = tx.dst;
  p.src_ep = ep_id;
  p.dst_ep = tx.dst_ep;
  p.vni = ep->vni;
  p.tc = ep->tc;
  p.op = tx.op;
  p.size_bytes = tx.size_bytes;
  p.tag = tx.tag;
  p.rkey = tx.rkey;
  p.mr_offset = tx.mr_offset;
  p.op_id = tx.op_id;
  // Pre-set from the config: inject_reliable would set it anyway, and
  // the engine path needs it before the packet leaves the NIC.
  p.reliable = rel_.enabled;
  if (!tx.payload.empty()) {
    p.payload.assign(tx.payload.begin(), tx.payload.end());
  }
  const SimTime accepted_vt = local_vt + timing_->tx_overhead();
  p.ser_cache = timing_->serialize_time(tx.size_bytes);
  p.ser_cache_bps = timing_->config().link_rate.bps();
  {
    std::lock_guard<SpinLock> lock(mutex_);
    p.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    p.inject_vt = schedule_tx_locked(accepted_vt, ep->tc, p.ser_cache);
    ++tx_packets_;
  }
  return Result<SimTime>(accepted_vt);
}

Result<CassiniNic::PreparedSend> CassiniNic::prepare_tx(EndpointId ep_id,
                                                        const TxParams& tx,
                                                        SimTime local_vt) {
  PreparedSend out;
  auto accepted = prepare_tx_into(out.packet, ep_id, tx, local_vt);
  if (!accepted.is_ok()) return Result<PreparedSend>(accepted.status());
  out.accepted_vt = accepted.value();
  return Result<PreparedSend>(std::move(out));
}

Result<CassiniNic::PreparedSend> CassiniNic::prepare_send(
    EndpointId ep_id, NicAddr dst, EndpointId dst_ep, std::uint64_t tag,
    std::uint64_t size_bytes, SimTime local_vt) {
  TxParams tx;
  tx.op = PacketOp::kSend;
  tx.dst = dst;
  tx.dst_ep = dst_ep;
  tx.tag = tag;
  tx.size_bytes = size_bytes;
  return prepare_tx(ep_id, tx, local_vt);
}

Result<SimTime> CassiniNic::prepare_send_into(Packet& out, EndpointId ep_id,
                                              NicAddr dst, EndpointId dst_ep,
                                              std::uint64_t tag,
                                              std::uint64_t size_bytes,
                                              SimTime local_vt) {
  TxParams tx;
  tx.op = PacketOp::kSend;
  tx.dst = dst;
  tx.dst_ep = dst_ep;
  tx.tag = tag;
  tx.size_bytes = size_bytes;
  return prepare_tx_into(out, ep_id, tx, local_vt);
}

Result<CassiniNic::PreparedSend> CassiniNic::prepare_rma_write(
    EndpointId ep_id, NicAddr dst, RKey rkey, std::uint64_t offset,
    std::uint64_t size_bytes, std::span<const std::byte> payload,
    SimTime local_vt, std::uint64_t op_id) {
  TxParams tx;
  tx.op = PacketOp::kRdmaWrite;
  tx.dst = dst;
  tx.size_bytes = size_bytes;
  tx.rkey = rkey;
  tx.mr_offset = offset;
  tx.op_id = op_id;
  tx.payload = payload;
  return prepare_tx(ep_id, tx, local_vt);
}

Result<CassiniNic::PreparedSend> CassiniNic::prepare_rma_read(
    EndpointId ep_id, NicAddr dst, RKey rkey, std::uint64_t offset,
    std::uint64_t size_bytes, SimTime local_vt, std::uint64_t op_id) {
  TxParams tx;
  tx.op = PacketOp::kRdmaRead;
  tx.dst = dst;
  tx.size_bytes = 64;  // the request is small; data rides the response
  tx.tag = size_bytes;  // requested length travels in the tag field
  tx.rkey = rkey;
  tx.mr_offset = offset;
  tx.op_id = op_id;
  return prepare_tx(ep_id, tx, local_vt);
}

SimDuration CassiniNic::schedule_retransmit(Packet& proto, int attempt,
                                            SimTime& vt_io) {
  // Mirrors one backoff iteration of inject_reliable: retry #1 waits
  // rto_base, each later retry doubles (factor) up to rto_max, jittered
  // by the same seeded per-NIC stream.
  SimDuration rto = rel_.rto_base;
  for (int i = 1; i < attempt && rto < rel_.rto_max; ++i) {
    rto = static_cast<SimDuration>(static_cast<double>(rto) *
                                   rel_.backoff_factor);
  }
  rto = std::min(rto, rel_.rto_max);
  double jitter = 1.0;
  if (rel_.jitter > 0.0) {
    std::lock_guard<SpinLock> lock(mutex_);
    jitter = rel_rng_.jitter(rel_.jitter);
  }
  const auto backoff =
      static_cast<SimDuration>(static_cast<double>(rto) * jitter);
  counters_.rel_retransmits.fetch_add(1, std::memory_order_relaxed);
  vt_io += backoff;
  {
    std::lock_guard<SpinLock> lock(mutex_);
    proto.inject_vt = schedule_tx_locked(vt_io, proto.tc, proto.ser_cache);
    ++tx_packets_;
  }
  return backoff;
}

void CassiniNic::note_tx_drop(DropReason r, EndpointId src_ep,
                              std::uint64_t op_id, SimTime error_vt,
                              bool budget_exhausted) {
  if (budget_exhausted) {
    counters_.rel_budget_exhausted.fetch_add(1, std::memory_order_relaxed);
  }
  RouteResult rr;
  rr.reason = r;
  count_tx_drop(rr, src_ep, op_id, error_vt);
}

void CassiniNic::note_recovered(bool after_replan) {
  counters_.rel_recovered.fetch_add(1, std::memory_order_relaxed);
  if (after_replan) {
    counters_.rel_recovered_after_replan.fetch_add(
        1, std::memory_order_relaxed);
  }
}

Result<SimTime> CassiniNic::post_send(EndpointId ep_id, NicAddr dst,
                                      EndpointId dst_ep, std::uint64_t tag,
                                      std::uint64_t size_bytes,
                                      std::span<const std::byte> payload,
                                      SimTime local_vt, std::uint64_t op_id) {
  TxParams tx;
  tx.op = PacketOp::kSend;
  tx.dst = dst;
  tx.dst_ep = dst_ep;
  tx.tag = tag;
  tx.size_bytes = size_bytes;
  tx.op_id = op_id;
  tx.payload = payload;
  auto prepared = prepare_tx(ep_id, tx, local_vt);
  if (!prepared.is_ok()) return Result<SimTime>(prepared.status());
  PreparedSend ps = std::move(prepared).value();

  // Send-buffer hold time: with reliability on, retries push the local
  // completion out by their backoff (the buffer stays pinned until the
  // final attempt left the NIC).
  SimTime done_vt = ps.accepted_vt;
  const RouteResult rr = rel_.enabled
                             ? inject_reliable(ps.packet, done_vt)
                             : inject(std::move(ps.packet));
  if (!rr.delivered) {
    count_tx_drop(rr, ep_id, op_id, done_vt);
    return Result<SimTime>(drop_status_for(rr.reason));
  }
  if (op_id != 0) {
    // Selective completion, like FI_SELECTIVE_COMPLETION: only requested
    // sends generate an event (the OSU window loop posts quietly).
    if (const auto ep = find_ep(ep_id)) {
      Event e;
      e.type = Event::Type::kSendComplete;
      e.op_id = op_id;
      e.size = size_bytes;
      e.vt = done_vt;
      push_event(*ep, std::move(e), limits_.max_rx_queue_packets);
    }
  }
  return done_vt;
}

Result<SimTime> CassiniNic::rdma_write(EndpointId ep_id, NicAddr dst,
                                       RKey rkey, std::uint64_t offset,
                                       std::uint64_t size_bytes,
                                       std::span<const std::byte> payload,
                                       SimTime local_vt,
                                       std::uint64_t op_id) {
  auto prepared = prepare_rma_write(ep_id, dst, rkey, offset, size_bytes,
                                    payload, local_vt, op_id);
  if (!prepared.is_ok()) return Result<SimTime>(prepared.status());
  PreparedSend ps = std::move(prepared).value();
  SimTime done_vt = ps.accepted_vt;
  const RouteResult rr = rel_.enabled
                             ? inject_reliable(ps.packet, done_vt)
                             : inject(std::move(ps.packet));
  if (!rr.delivered) {
    count_tx_drop(rr, ep_id, op_id, done_vt);
    return Result<SimTime>(drop_status_for(rr.reason));
  }
  return done_vt;
}

Result<SimTime> CassiniNic::rdma_read(EndpointId ep_id, NicAddr dst,
                                      RKey rkey, std::uint64_t offset,
                                      std::uint64_t size_bytes,
                                      SimTime local_vt, std::uint64_t op_id) {
  auto prepared = prepare_rma_read(ep_id, dst, rkey, offset, size_bytes,
                                   local_vt, op_id);
  if (!prepared.is_ok()) return Result<SimTime>(prepared.status());
  PreparedSend ps = std::move(prepared).value();
  SimTime done_vt = ps.accepted_vt;
  const RouteResult rr = rel_.enabled
                             ? inject_reliable(ps.packet, done_vt)
                             : inject(std::move(ps.packet));
  if (!rr.delivered) {
    count_tx_drop(rr, ep_id, op_id, done_vt);
    return Result<SimTime>(drop_status_for(rr.reason));
  }
  return done_vt;
}

void CassiniNic::deliver(Packet&& p) {
  std::optional<Packet> reply = deliver_impl(std::move(p));
  if (reply) {
    if (rel_.enabled) {
      // Completion traffic (RMA ACKs / read responses / NACKs) rides the
      // same retransmit protocol: losing the ACK of a delivered write
      // must not strand the initiator's completion.
      SimTime vt = reply->inject_vt;
      (void)inject_reliable(*reply, vt);
    } else {
      (void)inject(std::move(*reply));
    }
  }
}

std::optional<Packet> CassiniNic::deliver_from_engine(Packet&& p) {
  return deliver_impl(std::move(p));
}

std::optional<Packet> CassiniNic::deliver_impl(Packet&& p) {
  // Duplicate suppression for reliable traffic: a retransmit whose
  // earlier copy was delivered-but-unacknowledged must have no second
  // effect — not an RX push, not an MR write, not a completion event.
  // One check covers every PacketOp.
  if (p.reliable && !accept_reliable(p)) {
    return std::nullopt;
  }
  std::optional<Packet> reply;
  switch (p.op) {
    // Two-sided and completion traffic resolves its endpoint through the
    // lock-free snapshot and only takes the *endpoint's* lock — the
    // steady-state receive path never touches the NIC-wide mutex.
    case PacketOp::kSend: {
      const auto ep = find_ep(p.dst_ep);
      if (ep == nullptr) {
        counters_.rx_unknown_ep.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      if (ep->vni != p.vni) {
        counters_.rx_vni_mismatch.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      std::lock_guard<SpinLock> ep_lock(ep->qlock);
      if (ep->rx.size() >= limits_.max_rx_queue_packets) {
        // Tail-drop the arriving packet, counted (kRxOverflow):
        // backpressure must be observable, and data the receiver
        // already holds must never be silently destroyed to admit more.
        counters_.rx_overflow.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      ep->rx.push_back(std::move(p));
      ++ep->rx_accepted;
      return std::nullopt;
    }

    case PacketOp::kAck: {
      const auto ep = find_ep(p.dst_ep);
      if (ep == nullptr) {
        counters_.rx_unknown_ep.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      counters_.rx_packets.fetch_add(1, std::memory_order_relaxed);
      Event e;
      e.type = Event::Type::kRdmaWriteComplete;
      e.op_id = p.op_id;
      e.size = p.tag;  // echoed write size
      e.vt = p.arrival_vt + timing_->rx_overhead();
      push_event(*ep, std::move(e), limits_.max_rx_queue_packets);
      return std::nullopt;
    }

    case PacketOp::kRdmaReadResp: {
      const auto ep = find_ep(p.dst_ep);
      if (ep == nullptr) {
        counters_.rx_unknown_ep.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      counters_.rx_packets.fetch_add(1, std::memory_order_relaxed);
      Event e;
      e.type = Event::Type::kRdmaReadComplete;
      e.op_id = p.op_id;
      e.size = p.size_bytes;
      e.vt = p.arrival_vt + timing_->rx_overhead();
      e.data = std::move(p.payload);
      push_event(*ep, std::move(e), limits_.max_rx_queue_packets);
      return std::nullopt;
    }

    // Initiator side of a denied one-sided op: the target's NACK
    // completes the op with a *permanent* status — never retried, never
    // silent (the fail-fast contract of rma_denied).
    case PacketOp::kRmaNack: {
      const auto ep = find_ep(p.dst_ep);
      if (ep == nullptr) {
        counters_.rx_unknown_ep.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      counters_.rx_packets.fetch_add(1, std::memory_order_relaxed);
      Event e;
      e.type = Event::Type::kError;
      switch (static_cast<RmaNackReason>(p.tag)) {
        case RmaNackReason::kNoSuchMr:
          e.status = not_found("rma target: no MR registered for rkey");
          break;
        case RmaNackReason::kVniMismatch:
          e.status = permission_denied(
              "rma target: MR registered on a different VNI");
          break;
        case RmaNackReason::kOutOfBounds:
          e.status = invalid_argument(
              "rma target: offset + length exceeds the MR");
          break;
        default:
          e.status = internal_error("rma target: malformed NACK");
          break;
      }
      e.op_id = p.op_id;
      e.vt = p.arrival_vt + timing_->rx_overhead();
      push_event(*ep, std::move(e), limits_.max_rx_queue_packets);
      return std::nullopt;
    }

    // One-sided targets touch the MR table, so they take the MR mutex —
    // a blocking lock, because the payload copy under it is as large as
    // the transfer — and release it before re-entering the fabric.
    case PacketOp::kRdmaWrite: {
      std::unique_lock<std::mutex> lock(mr_mutex_);
      const auto mr_it = mrs_.find(p.rkey);
      if (mr_it == mrs_.end() || mr_it->second.vni != p.vni ||
          p.mr_offset + p.size_bytes > mr_it->second.region.size()) {
        counters_.rma_denied.fetch_add(1, std::memory_order_relaxed);
        const RmaNackReason why =
            mr_it == mrs_.end()          ? RmaNackReason::kNoSuchMr
            : mr_it->second.vni != p.vni ? RmaNackReason::kVniMismatch
                                         : RmaNackReason::kOutOfBounds;
        lock.unlock();
        reply = make_rma_nack(p, why);
        break;
      }
      if (!p.payload.empty()) {
        std::memcpy(mr_it->second.region.data() + p.mr_offset,
                    p.payload.data(),
                    std::min<std::size_t>(p.payload.size(), p.size_bytes));
      }
      counters_.rx_packets.fetch_add(1, std::memory_order_relaxed);
      // ACK back to the initiator (size 0, echoes write size in tag).
      Packet ack;
      ack.src = addr_;
      ack.dst = p.src;
      ack.dst_ep = p.src_ep;
      ack.vni = p.vni;
      ack.tc = p.tc;
      ack.op = PacketOp::kAck;
      ack.size_bytes = 0;
      ack.tag = p.size_bytes;
      ack.op_id = p.op_id;
      ack.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
      ack.inject_vt = p.arrival_vt + timing_->rx_overhead();
      reply = std::move(ack);
      break;
    }

    case PacketOp::kRdmaRead: {
      std::unique_lock<std::mutex> lock(mr_mutex_);
      const std::uint64_t want = p.tag;
      const auto mr_it = mrs_.find(p.rkey);
      if (mr_it == mrs_.end() || mr_it->second.vni != p.vni ||
          p.mr_offset + want > mr_it->second.region.size()) {
        counters_.rma_denied.fetch_add(1, std::memory_order_relaxed);
        const RmaNackReason why =
            mr_it == mrs_.end()          ? RmaNackReason::kNoSuchMr
            : mr_it->second.vni != p.vni ? RmaNackReason::kVniMismatch
                                         : RmaNackReason::kOutOfBounds;
        lock.unlock();
        reply = make_rma_nack(p, why);
        break;
      }
      counters_.rx_packets.fetch_add(1, std::memory_order_relaxed);
      Packet resp;
      resp.src = addr_;
      resp.dst = p.src;
      resp.dst_ep = p.src_ep;
      resp.vni = p.vni;
      resp.tc = p.tc;
      resp.op = PacketOp::kRdmaReadResp;
      resp.size_bytes = want;
      resp.op_id = p.op_id;
      resp.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
      resp.payload.assign(
          mr_it->second.region.begin() +
              static_cast<std::ptrdiff_t>(p.mr_offset),
          mr_it->second.region.begin() +
              static_cast<std::ptrdiff_t>(p.mr_offset + want));
      resp.inject_vt = p.arrival_vt + timing_->rx_overhead();
      reply = std::move(resp);
      break;
    }
  }
  // Completion traffic (RMA ACKs / read responses / NACKs) rides the same
  // retransmit protocol as data when reliability is on: losing the ACK of
  // a delivered write must not strand the initiator's completion.  The
  // caller — deliver() on the legacy path, the ShardEngine on the sharded
  // path — owns injecting the reply back into the fabric.
  if (reply) reply->reliable = rel_.enabled;
  return reply;
}

Packet CassiniNic::make_rma_nack(const Packet& req, RmaNackReason why) {
  Packet nack;
  nack.src = addr_;
  nack.dst = req.src;
  nack.dst_ep = req.src_ep;
  nack.vni = req.vni;
  nack.tc = req.tc;
  nack.op = PacketOp::kRmaNack;
  nack.size_bytes = 0;
  nack.tag = static_cast<std::uint64_t>(why);
  nack.op_id = req.op_id;
  nack.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  nack.inject_vt = req.arrival_vt + timing_->rx_overhead();
  return nack;
}

Result<Packet> CassiniNic::poll_rx(EndpointId ep_id) {
  const auto ep = find_ep(ep_id);
  if (!ep) {
    return Result<Packet>(not_found(strfmt("NIC %u: no endpoint %u", addr_,
                                           ep_id)));
  }
  std::lock_guard<SpinLock> lock(ep->qlock);
  if (ep->rx.empty()) return Result<Packet>(unavailable("rx queue empty"));
  return ep->rx.pop_front();
}

std::size_t CassiniNic::drain_rx(EndpointId ep_id) {
  const auto ep = find_ep(ep_id);
  if (!ep) return 0;
  std::lock_guard<SpinLock> lock(ep->qlock);
  return ep->rx.clear();
}

Result<Event> CassiniNic::poll_event(EndpointId ep_id) {
  const auto ep = find_ep(ep_id);
  if (!ep) {
    return Result<Event>(not_found(strfmt("NIC %u: no endpoint %u", addr_,
                                          ep_id)));
  }
  std::lock_guard<SpinLock> lock(ep->qlock);
  if (ep->events.empty()) return Result<Event>(unavailable("no events"));
  Event e = std::move(ep->events.front());
  ep->events.pop_front();
  return e;
}

NicCounters CassiniNic::counters() const {
  NicCounters out;
  out.rx_packets = counters_.rx_packets.load(std::memory_order_relaxed);
  out.tx_dropped = counters_.tx_dropped.load(std::memory_order_relaxed);
  out.rx_unknown_ep =
      counters_.rx_unknown_ep.load(std::memory_order_relaxed);
  out.rx_vni_mismatch =
      counters_.rx_vni_mismatch.load(std::memory_order_relaxed);
  out.rma_denied = counters_.rma_denied.load(std::memory_order_relaxed);
  out.rx_overflow = counters_.rx_overflow.load(std::memory_order_relaxed);
  {
    std::lock_guard<SpinLock> lock(mutex_);
    out.tx_packets = tx_packets_;
  }
  // Sum per-endpoint receive counts without holding the NIC spinlock
  // across the scan: fetch one endpoint per short lock section (the
  // parked list is append-only, so the index walk is stable and only
  // the vector itself needs the lock).
  for (std::size_t i = 0;; ++i) {
    std::shared_ptr<Endpoint> ep;
    {
      std::lock_guard<SpinLock> lock(mutex_);
      if (i >= ep_owned_.size()) break;
      ep = ep_owned_[i];
    }
    std::lock_guard<SpinLock> ql(ep->qlock);
    out.rx_packets += ep->rx_accepted;
  }
  return out;
}

}  // namespace shs::hsn
