#include "hsn/shard_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "hsn/fabric.hpp"

namespace shs::hsn {

ShardEngine::ShardEngine(Fabric& fabric, int threads)
    : fabric_(fabric), threads_(std::max(threads, 1)) {
  // -- Domain partition: a pure function of the topology, never of the
  //    thread count.  Dragonfly groups map onto domains (intra-group
  //    links are the short ones; the long global links become the
  //    cross-domain hand-offs that fund the lookahead).  Every other
  //    topology gets one domain per switch.
  const std::size_t n = fabric.switch_count();
  const TopologyConfig& topo = fabric.topology();
  domain_of_switch_.resize(n, 0);
  std::size_t nd = 0;
  if (topo.kind == TopologyKind::kDragonfly && topo.switches_per_group > 0) {
    for (std::size_t s = 0; s < n; ++s) {
      domain_of_switch_[s] =
          static_cast<std::uint32_t>(s / topo.switches_per_group);
      nd = std::max(nd, static_cast<std::size_t>(domain_of_switch_[s]) + 1);
    }
  } else {
    for (std::size_t s = 0; s < n; ++s) {
      domain_of_switch_[s] = static_cast<std::uint32_t>(s);
    }
    nd = n;
  }
  nd = std::max<std::size_t>(nd, 1);
  // Slot packing reserves the top (32 - kSlotDomainShift) bits for the
  // owning domain; a topology dense enough to overflow that would need
  // a wider encoding, not a silent wrap.
  if (nd > (std::size_t{1} << (32 - kSlotDomainShift))) {
    std::abort();
  }
  domains_.resize(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    domains_[i].id = static_cast<std::uint32_t>(i);
    domains_[i].outbox.resize(nd);
    domains_[i].notices.resize(nd);
    domains_[i].fresh_min = kNoPendingWork;
    domains_[i].earliest = kNoPendingWork;
  }
  pending_.reserve(nd);
  switch_ptr_.resize(n, nullptr);
  for (std::size_t s = 0; s < n; ++s) switch_ptr_[s] = &fabric.switch_at(s);
  home_domain_of_nic_.resize(fabric.node_count(), 0);
  for (std::size_t a = 0; a < fabric.node_count(); ++a) {
    const SwitchId home = fabric.home_switch(static_cast<NicAddr>(a));
    home_domain_of_nic_[a] =
        home == kInvalidSwitch ? 0 : domain_of_switch_[home];
  }

  // -- Lookahead.  Every cross-domain hand-off advances the packet's
  //    virtual time by at least one switch traversal plus the link's
  //    flight latency (admit_step: inject_vt' = egress_start + ser +
  //    link.latency, egress_start >= inject_vt + hop_latency(tc)).  The
  //    hop floor discounts the worst possible downward jitter/run-bias
  //    so the bound stays conservative even on jittered configs (which
  //    are not digest-stable across thread counts, but must still never
  //    violate window causality).  Derived from the manager's pristine
  //    base plan: link *latencies* never change across replans, so the
  //    window width survives failures and repairs unchanged.
  const TimingConfig& tcfg = fabric.timing()->config();
  const double floor_factor =
      std::max(0.0, 1.0 - tcfg.jitter_amplitude) *
      std::max(0.0, 1.0 - tcfg.run_bias_amplitude);
  const auto hop_floor = static_cast<SimDuration>(
      static_cast<double>(tcfg.hop_latency) * floor_factor);
  // Per-pair matrix: the cheapest direct hop between each ordered domain
  // pair.  Registered symmetrically — the physical cables are
  // bidirectional, and an asymmetric plan listing must never let a
  // reverse-direction hand-off slip under a window edge.
  pair_edge_.assign(nd * nd, kInfEdge);
  if (const auto base = fabric.manager().base_plan()) {
    for (const auto& link : base->links) {
      if (link.from >= n || link.to >= n) continue;
      const std::uint32_t di = domain_of_switch_[link.from];
      const std::uint32_t dj = domain_of_switch_[link.to];
      if (di == dj) continue;
      const auto edge = std::max<SimDuration>(link.latency + hop_floor, 1);
      auto& fwd = pair_edge_[di * nd + dj];
      auto& rev = pair_edge_[dj * nd + di];
      fwd = std::min(fwd, edge);
      rev = std::min(rev, edge);
    }
  }
  SimDuration min_edge = kInfEdge;
  for (const auto e : pair_edge_) min_edge = std::min(min_edge, e);
  // One domain (or fully disconnected domains): windows are unbounded
  // and the engine degenerates to a sequential per-domain drain.
  lookahead_ = (nd <= 1 || min_edge == kInfEdge) ? 0 : min_edge;

  // -- Worker pool.  More workers than domains would only idle; one
  //    domain (or threads <= 1) runs inline on the driver, which is the
  //    schedule every parallel run must reproduce bit-for-bit.
  if (threads_ > 1 && nd > 1) {
    const int w = std::min(threads_, static_cast<int>(nd));
    workers_.reserve(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }
  // Inline mode owns every domain from the driver thread, so cross
  // hand-offs can skip the outbox (see step_item).
  direct_cross_ = workers_.empty();
}

ShardEngine::~ShardEngine() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_.store(true, std::memory_order_seq_cst);
  }
  go_.fetch_add(1, std::memory_order_seq_cst);
  pool_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardEngine::stage_attempt(Domain& home, Packet&& p,
                                std::uint32_t attempt) {
  const std::uint32_t slot = alloc_slot(home);
  Item& it = slot_item(slot);
  it.at = fabric_.home_switch(p.src);
  it.p = std::move(p);
  it.ttl = kMaxFabricHops;
  it.check_src = true;
  it.attempt = attempt;
  it.seq = take_seq(home);
  ++home.attempts;
  push_fresh(home, Ref{it.p.inject_vt, it.seq, slot});
}

void ShardEngine::stage_post(NicAddr src, Packet&& pkt, SimTime accepted_vt) {
  Domain& home = domains_[home_domain_of_nic_[src]];
  if (pkt.reliable) {
    OpState op;
    op.master = pkt;  // retransmit master; attempts send copies
    op.vt_io = accepted_vt;
    home.ops.emplace(op_key(src, pkt.seq), std::move(op));
  }
  stage_attempt(home, std::move(pkt), 0);
}

Status ShardEngine::post_send(NicAddr src, EndpointId ep, NicAddr dst,
                              EndpointId dst_ep, std::uint64_t tag,
                              std::uint64_t size_bytes, SimTime local_vt) {
  // The highest-rate verb builds straight into its pool slot
  // (prepare_send_into): no PreparedSend, no Packet move chain.
  Domain& home = domains_[home_domain_of_nic_[src]];
  const std::uint32_t slot = alloc_slot(home);
  Item& it = slot_item(slot);
  auto accepted = fabric_.nic(src).prepare_send_into(
      it.p, ep, dst, dst_ep, tag, size_bytes, local_vt);
  if (!accepted.is_ok()) {
    free_slot(slot);
    return accepted.status();
  }
  if (it.p.reliable) {
    OpState op;
    op.master = it.p;  // retransmit master; attempts send copies
    op.vt_io = accepted.value();
    home.ops.emplace(op_key(src, it.p.seq), std::move(op));
  }
  it.at = fabric_.home_switch(src);
  it.ttl = kMaxFabricHops;
  it.check_src = true;
  it.attempt = 0;
  it.seq = take_seq(home);
  ++home.attempts;
  push_fresh(home, Ref{it.p.inject_vt, it.seq, slot});
  return Status::ok();
}

Status ShardEngine::post_rma_write(NicAddr src, EndpointId ep, NicAddr dst,
                                   RKey rkey, std::uint64_t offset,
                                   std::uint64_t size_bytes,
                                   std::span<const std::byte> payload,
                                   SimTime local_vt, std::uint64_t op_id) {
  auto prepared = fabric_.nic(src).prepare_rma_write(
      ep, dst, rkey, offset, size_bytes, payload, local_vt, op_id);
  if (!prepared.is_ok()) return prepared.status();
  CassiniNic::PreparedSend ps = std::move(prepared).value();
  stage_post(src, std::move(ps.packet), ps.accepted_vt);
  return Status::ok();
}

Status ShardEngine::post_rma_read(NicAddr src, EndpointId ep, NicAddr dst,
                                  RKey rkey, std::uint64_t offset,
                                  std::uint64_t size_bytes, SimTime local_vt,
                                  std::uint64_t op_id) {
  auto prepared = fabric_.nic(src).prepare_rma_read(
      ep, dst, rkey, offset, size_bytes, local_vt, op_id);
  if (!prepared.is_ok()) return prepared.status();
  CassiniNic::PreparedSend ps = std::move(prepared).value();
  stage_post(src, std::move(ps.packet), ps.accepted_vt);
  return Status::ok();
}

std::uint64_t ShardEngine::in_flight() const {
  // Every live pool slot has exactly one ref in its run queue
  // (sorted[cursor..] / incoming[in_cursor..] / fresh / spawn); outbox
  // items left their source pool when they were parked.
  std::uint64_t count = 0;
  for (const auto& d : domains_) {
    count += d.pool.size() - d.free_slots.size();
    for (const auto& box : d.outbox) count += box.size();
  }
  return count;
}

ShardEngineStats ShardEngine::stats() const {
  ShardEngineStats s;
  s.flushes = flushes_;
  s.windows = windows_run_;
  s.silent_barriers = silent_barriers_;
  s.chained_windows = chained_windows_;
  s.worker_wakeups = worker_wakeups_.load(std::memory_order_relaxed);
  s.staging_trims = staging_trims_;
  for (const auto& d : domains_) {
    s.items_stepped += d.stats.items_stepped;
    s.intra_forwards += d.stats.intra_forwards;
    s.cross_forwards += d.stats.cross_forwards;
    s.spawn_heap_ops += d.stats.spawn_heap_ops;
    s.batch_sorts += d.stats.batch_sorts;
    s.batch_sorted_refs += d.stats.batch_sorted_refs;
    s.notices += d.stats.notices;
    s.pool_hits += d.stats.pool_hits;
    s.pool_misses += d.stats.pool_misses;
  }
  return s;
}

std::size_t ShardEngine::staging_bytes_reserved() const {
  std::size_t bytes = 0;
  for (const auto& d : domains_) {
    bytes += d.pool.capacity() * sizeof(Item);
    for (const auto& it : d.pool) bytes += it.p.payload.capacity();
    bytes += d.free_slots.capacity() * sizeof(std::uint32_t);
    bytes += (d.sorted.capacity() + d.incoming.capacity() +
              d.fresh.capacity() + d.spawn.capacity() +
              d.scratch.capacity()) *
             sizeof(Ref);
    for (const auto& box : d.outbox) {
      bytes += box.capacity() * sizeof(Item);
      for (const auto& it : box) bytes += it.p.payload.capacity();
    }
    for (const auto& nq : d.notices) bytes += nq.capacity() * sizeof(Notice);
  }
  return bytes;
}

void ShardEngine::flush() {
  if (!compute_window_ends()) return;
  if (workers_.empty()) {
    do {
      run_window_inline();
      ++windows_run_;
      if (!barrier_merge()) ++silent_barriers_;
      if (barrier_observer_) barrier_observer_();
    } while (compute_window_ends());
  } else {
    run_windows_pooled();
  }
  ++flushes_;
  trim_staging();
}

bool ShardEngine::compute_window_ends() {
  // One fused scan over the per-domain earliest-pending caches
  // (maintained at staging time and refreshed at window ends, so this
  // never walks a backlog): collect the pending domains, then derive
  // each domain's window edge from the pair matrix.  Domain j may not
  // process items at or beyond the earliest virtual time any *other*
  // domain could hand it this window — earliest_i + edge(i, j).  Pairs
  // without a direct link, and idle domains (skipped rows), impose no
  // bound; a domain nobody can reach runs unbounded.  The domain
  // holding the globally earliest item always gets an edge strictly
  // beyond it (every edge is >= 1), so each window makes progress.
  const std::size_t nd = domains_.size();
  pending_.clear();
  for (const Domain& d : domains_) {
    if (d.earliest != kNoPendingWork) pending_.push_back(d.id);
  }
  if (pending_.empty()) return false;
  for (Domain& to : domains_) {
    SimTime end = kNoPendingWork;
    for (const std::uint32_t from : pending_) {
      if (from == to.id) continue;
      const SimTime e = domains_[from].earliest;
      const SimDuration edge = pair_edge_[from * nd + to.id];
      if (edge == kInfEdge) continue;
      if (e >= kNoPendingWork - edge) continue;  // would overflow: no bound
      end = std::min<SimTime>(end, e + edge);
    }
    to.window_end = end;
  }
  return true;
}

void ShardEngine::run_window_inline() {
  for (auto& d : domains_) run_domain_window(d);
}

void ShardEngine::integrate_fresh(Domain& d) {
  // Keep the big backlog (`sorted`) untouched: fresh refs fold into the
  // small `incoming` run only, and full runs promote by vector swap.
  // Without the second run, every window with arrivals would recopy the
  // entire backlog — the dominant cost at fig16 batch depths.
  if (d.cursor >= d.sorted.size() && d.cursor > 0) {
    d.sorted.clear();
    d.cursor = 0;
  }
  if (d.in_cursor >= d.incoming.size() && d.in_cursor > 0) {
    d.incoming.clear();
    d.in_cursor = 0;
  }
  if (d.fresh.empty()) return;
  // Driver-staged batches arrive almost (often exactly) sorted: posts
  // walk the NICs in address order with near-uniform clocks, so keys
  // ascend with push order.  Detect the sorted prefix first — a fully
  // sorted batch (the common flush-boundary shape, and the largest
  // batches the engine ever sorts) skips the sort outright, and a long
  // prefix reduces it to sorting the short jumbled suffix plus one
  // linear merge through `scratch`.  Any path yields the same unique-
  // key ascending order, so the processing schedule is unaffected.
  const auto first_unsorted =
      std::is_sorted_until(d.fresh.begin(), d.fresh.end(), RefBefore{});
  if (first_unsorted != d.fresh.end()) {
    if (first_unsorted - d.fresh.begin() < 16) {
      std::sort(d.fresh.begin(), d.fresh.end(), RefBefore{});
    } else {
      std::sort(first_unsorted, d.fresh.end(), RefBefore{});
      d.scratch.resize(d.fresh.size());
      std::merge(d.fresh.begin(), first_unsorted, first_unsorted,
                 d.fresh.end(), d.scratch.begin(), RefBefore{});
      d.fresh.swap(d.scratch);
    }
  }
  ++d.stats.batch_sorts;
  d.stats.batch_sorted_refs += d.fresh.size();
  if (d.incoming.empty()) {
    // Churn run consumed: the sorted batch IS the new run (buffer swap,
    // no copy — the vectors ping-pong between roles at their HWMs).
    d.incoming.swap(d.fresh);
    d.in_cursor = 0;
  } else if (d.sorted.empty()) {
    // Backlog drained: promote the unconsumed churn run wholesale and
    // start a new one from the batch.  Neither vector's refs move.
    d.sorted.swap(d.incoming);
    d.cursor = d.in_cursor;
    d.incoming.swap(d.fresh);
    d.in_cursor = 0;
  } else {
    // Merge the batch into the churn run in place, from the back: only
    // the tail at or beyond the batch's first key moves, so the
    // (typically much larger) earlier-dated remainder stays put and the
    // consumed prefix keeps its cursor.  A batch dated entirely beyond
    // the tail degenerates to a bulk append.
    const std::size_t old_size = d.incoming.size();
    d.incoming.resize(old_size + d.fresh.size());
    auto dst = d.incoming.end();
    auto i = d.incoming.begin() + static_cast<std::ptrdiff_t>(old_size);
    const auto ib =
        d.incoming.begin() + static_cast<std::ptrdiff_t>(d.in_cursor);
    auto j = d.fresh.end();
    const auto jb = d.fresh.begin();
    while (j != jb) {
      if (i != ib && RefBefore{}(*(j - 1), *(i - 1))) {
        *--dst = *--i;
      } else {
        *--dst = *--j;
      }
    }
    // Everything below `i` is already in position (dst caught up to i).
  }
  d.fresh.clear();
  d.fresh_min = kNoPendingWork;
  const std::size_t queued =
      (d.sorted.size() - d.cursor) + (d.incoming.size() - d.in_cursor);
  if (queued > d.ref_hwm) d.ref_hwm = queued;
}

void ShardEngine::run_domain_window(Domain& d) {
  // Strict (vt, seq) order within the domain, merged from three
  // sources: the two sorted runs of the batched run queue (backlog +
  // churn, each a cursor walk) and the small spawn heap (items this
  // window spawns that still land before the edge).  Spawned items are
  // always dated strictly after their spawner, so the merge reproduces
  // the single-heap processing order exactly.
  const SimTime window_end = d.window_end;
  integrate_fresh(d);
  const std::vector<Ref>& q = d.sorted;
  const std::vector<Ref>& in = d.incoming;
  const auto end_key =
      static_cast<unsigned __int128>(static_cast<std::uint64_t>(window_end))
      << 64;
  for (;;) {
    // Next ref from the three sorted runs: all ascend in (vt, seq), so
    // the smallest head is the global run-queue minimum.  The spawn
    // run (`d.spawn` can grow inside step_item) is checked first —
    // everything in it is dated inside the window by construction.
    const bool have_q = d.cursor < q.size();
    const bool have_i = d.in_cursor < in.size();
    const bool q_first =
        have_q && (!have_i || RefBefore{}(q[d.cursor], in[d.in_cursor]));
    const Ref* head = q_first ? &q[d.cursor]
                              : (have_i ? &in[d.in_cursor] : nullptr);
    const bool runnable = head != nullptr && head->key() < end_key;
    if (d.sp_cursor < d.spawn.size() &&
        (!runnable || RefBefore{}(d.spawn[d.sp_cursor], *head))) {
      const Ref r = d.spawn[d.sp_cursor++];
      step_item(d, r, window_end);
      continue;
    }
    if (!runnable) break;
    // The winning run holds the minimum: every one of its refs keyed
    // below BOTH the other run's head and the window edge executes
    // next, in order, with no further merge decisions.  Gallop + a
    // bounded binary search find that span end in O(log span), then a
    // tight pass steps it — mid-window spawns are the only thing that
    // can preempt the span, checked with one compare per item (one
    // branch while the spawn run is empty, the common case).
    const std::vector<Ref>& run = q_first ? q : in;
    std::size_t& cur = q_first ? d.cursor : d.in_cursor;
    const Ref* other = q_first ? (have_i ? &in[d.in_cursor] : nullptr)
                               : (have_q ? &q[d.cursor] : nullptr);
    const auto bound =
        other != nullptr ? std::min(end_key, other->key()) : end_key;
    const std::size_t hi = run.size();
    std::size_t lo = cur;  // run[cur] is known to be below the bound
    std::size_t g = 1;
    while (lo + g < hi && run[lo + g].key() < bound) {
      lo += g;
      g <<= 1;
    }
    std::size_t a = lo + 1;
    std::size_t b = std::min(hi, lo + g);
    while (a < b) {
      const std::size_t m = (a + b) / 2;
      if (run[m].key() < bound) {
        a = m + 1;
      } else {
        b = m;
      }
    }
    const std::size_t span_end = a;
    while (cur != span_end) {
      const Ref r = run[cur];
      if (d.sp_cursor < d.spawn.size() &&
          RefBefore{}(d.spawn[d.sp_cursor], r)) {
        break;  // a spawn preempts: the outer merge consumes it
      }
      ++cur;
      if (cur < hi) {
        const char* next =
            reinterpret_cast<const char*>(&slot_item(run[cur].slot));
        __builtin_prefetch(next);
        __builtin_prefetch(next + 64);
      }
      step_item(d, r, window_end);
    }
  }
  // The spawn run drains fully (everything in it is dated inside the
  // window), so the pending minimum is a run head or a fresh ref.
  d.spawn.clear();
  d.sp_cursor = 0;
  SimTime head_vt = kNoPendingWork;
  if (d.cursor < q.size()) head_vt = q[d.cursor].vt;
  if (d.in_cursor < in.size()) {
    head_vt = std::min(head_vt, in[d.in_cursor].vt);
  }
  d.earliest = std::min(head_vt, d.fresh_min);
}

void ShardEngine::step_item(Domain& d, const Ref& ref, SimTime window_end) {
  // `ref.slot` resolves the owning domain's pool — in inline mode a
  // cross-forwarded item keeps its original slot, so the owner can be a
  // domain other than the executing `d`.
  Item& it = slot_item(ref.slot);
  ++d.stats.items_stepped;

  RosettaSwitch* next = nullptr;
  CassiniNic* deliver_to = nullptr;
  const RouteResult rr = switch_ptr_[it.at]->step(it.p, it.check_src, it.ttl,
                                                  &next, &deliver_to);

  if (next != nullptr) {
    // Forwarded; admit_step advanced p.inject_vt to the arrival at the
    // peer.  An intra-domain hop stays in its pool slot — only the
    // 24-byte ref re-enters the order (spawn heap inside the window,
    // fresh batch beyond it).  Cross-domain hops park in the outbox
    // until the barrier — by the pair-lookahead bound they are dated at
    // or beyond the destination's window edge, so it cannot need them
    // this window.
    it.check_src = false;
    --it.ttl;
    it.at = next->id();
    const std::uint32_t target = domain_of_switch_[it.at];
    if (target == d.id) {
      ++d.stats.intra_forwards;
      const Ref nr{it.p.inject_vt, ref.seq, ref.slot};
      if (nr.vt < window_end) {
        push_spawn(d, nr);
      } else {
        push_fresh(d, nr);
      }
    } else {
      ++d.stats.cross_forwards;
      if (direct_cross_) {
        // Single-threaded inline mode: re-queue the 24-byte ref on the
        // destination's fresh batch and leave the Item in its owning
        // pool (the slot encoding keeps resolving it).  Run-queue order
        // depends only on the already-assigned (vt, seq) key and the
        // lookahead bound dates the item at or beyond the destination's
        // window edge, so skipping the outbox round-trip (two Item
        // moves, a slot recycle, and the barrier box scan) cannot
        // change processing order.
        push_fresh(domains_[target], Ref{it.p.inject_vt, ref.seq, ref.slot});
      } else {
        d.staged_cross = true;
        auto& box = d.outbox[target];
        box.push_back(std::move(it));
        if (box.size() > d.outbox_hwm) d.outbox_hwm = box.size();
        free_slot(ref.slot);
      }
    }
    return;
  }

  // Terminal outcome (delivered, dropped, or consumed-with-ACK-lost):
  // capture the header fields a notice needs before the packet moves
  // into the NIC.  Forwards — two-thirds of all steps — never get
  // here, so hoisting these above the switch step would charge every
  // forward six loads it does not use.  `ref.vt` is the pre-step
  // inject_vt by construction (refs are keyed on it at staging).
  const NicAddr src = it.p.src;
  const EndpointId src_ep = it.p.src_ep;
  const std::uint64_t nic_seq = it.p.seq;
  const std::uint64_t op_id = it.p.op_id;
  const bool reliable = it.p.reliable;
  const SimTime vt_before = ref.vt;
  const std::uint32_t attempt = it.attempt;

  if (deliver_to != nullptr) {
    // Landed on a NIC in this domain (set on ACK-lost consumption too:
    // the packet reached the NIC, only the fabric ACK was lost — its
    // effect must apply exactly as on the synchronous path).  Any
    // target-side reply is staged here, in the target's own domain,
    // instead of re-entering Fabric::inject from the delivery callback.
    auto reply = deliver_to->deliver_from_engine(std::move(it.p));
    free_slot(ref.slot);
    if (reply) stage_reply(d, std::move(*reply), window_end);
  } else {
    free_slot(ref.slot);
  }

  if (rr.delivered) {
    if (reliable) {
      // Success notice so the driver can retire the op state (and count
      // a recovery when earlier attempts failed).
      Notice n;
      n.kind = Notice::Kind::kDelivered;
      n.src = src;
      n.src_ep = src_ep;
      n.nic_seq = nic_seq;
      n.vt = rr.arrival_vt;
      n.attempt = attempt;
      stage_notice(d, n);
    }
    return;
  }

  // Failed attempt: dropped, or consumed with its ACK lost.  The
  // retry/fail-fast decision uses the same predicate the synchronous
  // path does; the actual retransmit is charged single-threaded at the
  // barrier (deterministic per-NIC RNG draw order).
  Notice n;
  n.src = src;
  n.src_ep = src_ep;
  n.nic_seq = nic_seq;
  n.op_id = op_id;
  n.reason = rr.reason;
  n.vt = vt_before;
  n.attempt = attempt;
  if (reliable && CassiniNic::is_transient(rr.reason)) {
    const auto budget = static_cast<std::uint32_t>(
        fabric_.nic(src).retry_budget(rr.reason));
    if (attempt < budget) {
      n.kind = Notice::Kind::kRetry;
    } else {
      n.kind = Notice::Kind::kDrop;
      n.budget_exhausted = true;
    }
  } else {
    n.kind = Notice::Kind::kDrop;
  }
  stage_notice(d, n);
}

void ShardEngine::stage_notice(Domain& d, const Notice& n) {
  auto& nq = d.notices[home_domain_of_nic_[n.src]];
  nq.push_back(n);
  if (nq.size() > d.notice_hwm) d.notice_hwm = nq.size();
  ++d.stats.notices;
  d.staged_cross = true;
}

void ShardEngine::stage_reply(Domain& d, Packet&& reply, SimTime window_end) {
  // The reply's source NIC is the target we just delivered to, which is
  // attached to a switch of this domain — so `d` IS the reply's home
  // domain and the worker is its only toucher mid-window.  The reply's
  // inject_vt (arrival + rx overhead) is strictly beyond every item
  // this domain has stepped, so processing order is preserved; other
  // domains' window edges already account for it because it is dated at
  // or beyond this domain's own earliest.
  if (reply.reliable) {
    // Completion traffic gets the full retransmit protocol, same as the
    // synchronous path's inject_reliable on the reply.
    OpState op;
    op.master = reply;
    op.vt_io = reply.inject_vt;
    d.ops.emplace(op_key(reply.src, reply.seq), std::move(op));
  }
  const std::uint32_t slot = alloc_slot(d);
  Item& it = slot_item(slot);
  it.at = fabric_.home_switch(reply.src);
  it.p = std::move(reply);
  it.ttl = kMaxFabricHops;
  it.check_src = true;
  it.attempt = 0;
  it.seq = take_seq(d);
  ++d.attempts;
  const Ref r{it.p.inject_vt, it.seq, slot};
  if (r.vt < window_end) {
    push_spawn(d, r);
  } else {
    push_fresh(d, r);
  }
}

bool ShardEngine::barrier_merge() {
  // Staggered plan publish drains here: barriers are the engine's only
  // all-workers-quiescent points, and their sequence is thread-count
  // invariant — so applying one per-switch publish wave per barrier
  // keeps mixed-epoch routing bit-identical at 1 and N threads.  One
  // relaxed load when no publish is staged (the common case).
  {
    FabricManager& fm = fabric_.manager();
    if (fm.publish_pending()) fm.apply_next_publish_wave();
  }
  // Deterministic merge: destination domain id, then source domain id,
  // then FIFO within each outbox.  (Run-queue order depends only on the
  // unique (vt, seq) keys, so the insertion order here is immaterial to
  // results — the fixed order keeps retransmit RNG draws, error-event
  // pushes, and op retirement identical across thread counts.)  A
  // silent window — no outbox traffic, no notices anywhere — skips the
  // O(domains^2) merge scan entirely; the per-window `staged_cross`
  // flags make that an O(domains) check.
  const std::size_t nd = domains_.size();
  bool any = false;
  for (auto& d : domains_) {
    any |= d.staged_cross;
    d.staged_cross = false;
  }
  if (!any) return false;
  for (std::size_t dst = 0; dst < nd; ++dst) {
    Domain& to = domains_[dst];
    for (std::size_t from = 0; from < nd; ++from) {
      auto& box = domains_[from].outbox[dst];
      for (Item& moved : box) {
        const std::uint32_t slot = alloc_slot(to);
        Item& it = slot_item(slot);
        it = std::move(moved);
        push_fresh(to, Ref{it.p.inject_vt, it.seq, slot});
      }
      box.clear();  // capacity retained mid-flush (epoch-cleared)
    }
  }
  for (std::size_t dst = 0; dst < nd; ++dst) {
    for (std::size_t from = 0; from < nd; ++from) {
      auto& pending = domains_[from].notices[dst];
      for (const Notice& n : pending) process_notice(n);
      pending.clear();
    }
  }
  return true;
}

void ShardEngine::process_notice(const Notice& n) {
  CassiniNic& nic = fabric_.nic(n.src);
  Domain& home = domains_[home_domain_of_nic_[n.src]];
  const std::uint64_t key = op_key(n.src, n.nic_seq);
  switch (n.kind) {
    case Notice::Kind::kDelivered: {
      const auto it = home.ops.find(key);
      if (it == home.ops.end()) break;
      if (n.attempt > 0) {
        const bool after_replan =
            it->second.have_v0 &&
            fabric_.plan_version() != it->second.plan_v0;
        nic.note_recovered(after_replan);
      }
      home.ops.erase(it);
      break;
    }
    case Notice::Kind::kRetry: {
      const auto it = home.ops.find(key);
      if (it == home.ops.end()) break;
      OpState& op = it->second;
      if (!op.have_v0) {
        // Captured at the first failure, as on the synchronous path:
        // recovery on a newer plan version counts as carried-across-
        // replan.
        op.plan_v0 = fabric_.plan_version();
        op.have_v0 = true;
      }
      ++op.attempt;
      (void)nic.schedule_retransmit(op.master,
                                    static_cast<int>(op.attempt), op.vt_io);
      Packet copy = op.master;
      stage_attempt(home, std::move(copy), op.attempt);
      break;
    }
    case Notice::Kind::kDrop: {
      SimTime error_vt = n.vt;
      const auto it = home.ops.find(key);
      if (it != home.ops.end()) {
        error_vt = it->second.vt_io;  // post_send's done_vt semantics
        home.ops.erase(it);
      }
      nic.note_tx_drop(n.reason, n.src_ep, n.op_id, error_vt,
                       n.budget_exhausted);
      break;
    }
  }
}

void ShardEngine::trim_staging() {
  // Post-flush high-water-mark trim (the staging mirror of the
  // EventLoop queue compaction): capacity a chaos burst grew is
  // released once a later, smaller flush proves it dead — never
  // mid-flush, so nothing shrinks while traffic is in flight.  Each
  // container keeps 2x its flush HWM as growth headroom and is trimmed
  // only when it holds more than double that (> 4x the HWM), so
  // steady-state flushes never churn allocations.
  for (auto& d : domains_) {
    const std::size_t pool_keep =
        2 * std::max<std::size_t>(d.live_hwm, kTrimFloor);
    if (d.pool.size() > 2 * pool_keep &&
        d.free_slots.size() == d.pool.size()) {
      d.pool.resize(pool_keep);
      d.pool.shrink_to_fit();
      // Slot indices above the cut are gone; rebuild the free list
      // (descending, so low slots recycle first — deterministic either
      // way, slots never order anything).
      d.free_slots.clear();
      d.free_slots.shrink_to_fit();
      d.free_slots.reserve(d.pool.size());
      for (std::size_t s = d.pool.size(); s-- > 0;) {
        d.free_slots.push_back(static_cast<std::uint32_t>(s));
      }
      ++staging_trims_;
    }
    const std::size_t ref_keep =
        2 * std::max<std::size_t>(d.ref_hwm, kTrimFloor);
    const auto trim_refs = [&](std::vector<Ref>& v) {
      if (v.capacity() > 2 * ref_keep) {
        v.clear();
        v.shrink_to_fit();
        ++staging_trims_;
      }
    };
    // Post-flush both runs are fully consumed (cursors at end);
    // dropping the dead prefixes here — not just on trim — keeps the
    // next flush's integrate from resurrecting consumed refs.
    d.sorted.clear();
    d.cursor = 0;
    d.incoming.clear();
    d.in_cursor = 0;
    trim_refs(d.sorted);
    trim_refs(d.incoming);
    trim_refs(d.fresh);
    trim_refs(d.spawn);
    trim_refs(d.scratch);
    const std::size_t box_keep =
        2 * std::max<std::size_t>(d.outbox_hwm, kTrimFloor);
    for (auto& box : d.outbox) {
      if (box.capacity() > 2 * box_keep) {
        box.shrink_to_fit();  // post-flush: always empty
        ++staging_trims_;
      }
    }
    const std::size_t nq_keep =
        2 * std::max<std::size_t>(d.notice_hwm, kTrimFloor);
    for (auto& nq : d.notices) {
      if (nq.capacity() > 2 * nq_keep) {
        nq.shrink_to_fit();
        ++staging_trims_;
      }
    }
    d.live_hwm = 0;
    d.ref_hwm = 0;
    d.outbox_hwm = 0;
    d.notice_hwm = 0;
  }
}

// ---------------------------------------------------------------------------
// Worker pool.
//
// Window-generation protocol: `go_` names the window generation workers
// should execute.  The coordinator (driver, or — when chaining — the
// last worker to finish the previous window) resets the domain ticket
// and arrival counter, then bumps `go_`; workers claim domains off the
// ticket and bump `arrived_` when the claims run dry.  The acq_rel
// arrival chain orders every domain mutation before the barrier work,
// and the bump of `go_` orders the barrier before the next window's
// claims — so exactly one thread is ever "the coordinator", and its
// plain-field writes (windows_run_, flush bookkeeping) are race-free by
// handoff.
//
// Both sides spin briefly before parking: windows are microseconds
// apart, so staying hot across a handful of them is the common case and
// saves two condvar round-trips per window.  The park/wake race is
// closed Dekker-style: the sleeper publishes its parked flag (seq_cst,
// under the mutex) before re-checking the condition; the waker updates
// the condition (seq_cst) before reading the flag.  Either the waker
// sees the flag and notifies under the mutex, or the sleeper's re-check
// sees the condition — never neither.

void ShardEngine::bump_go_and_wake() {
  go_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_workers_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
    }
    pool_cv_.notify_all();
    worker_wakeups_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardEngine::signal_driver(std::atomic<bool>& flag) {
  flag.store(true, std::memory_order_seq_cst);
  if (driver_parked_.load(std::memory_order_seq_cst)) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
    }
    driver_cv_.notify_one();
  }
}

void ShardEngine::driver_wait(std::atomic<bool>& flag) {
  for (int i = 0; i < kSpinBudget; ++i) {
    if (flag.load(std::memory_order_acquire)) return;
    if (i >= kSpinBeforeYield) std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lk(pool_mu_);
  driver_parked_.store(true, std::memory_order_seq_cst);
  driver_cv_.wait(lk, [&] { return flag.load(std::memory_order_seq_cst); });
  driver_parked_.store(false, std::memory_order_relaxed);
}

bool ShardEngine::wait_for_go(std::uint64_t& seen) {
  for (int i = 0; i < kSpinBudget; ++i) {
    const std::uint64_t g = go_.load(std::memory_order_acquire);
    if (g != seen) {
      seen = g;
      return !shutdown_.load(std::memory_order_acquire);
    }
    if (i >= kSpinBeforeYield) std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lk(pool_mu_);
  parked_workers_.fetch_add(1, std::memory_order_seq_cst);
  pool_cv_.wait(lk, [&] {
    return go_.load(std::memory_order_seq_cst) != seen ||
           shutdown_.load(std::memory_order_seq_cst);
  });
  parked_workers_.fetch_sub(1, std::memory_order_relaxed);
  seen = go_.load(std::memory_order_seq_cst);
  return !shutdown_.load(std::memory_order_seq_cst);
}

void ShardEngine::run_windows_pooled() {
  chain_barriers_ = barrier_observer_ == nullptr;
  if (chain_barriers_) {
    // Single handoff per flush: launch the first window, then the pool
    // chains window -> barrier -> window internally (the last worker of
    // each window runs the merge and relaunches) until the flush
    // drains.
    flush_done_.store(false, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
    next_domain_.store(0, std::memory_order_relaxed);
    bump_go_and_wake();
    driver_wait(flush_done_);
    return;
  }
  // Observer mode: every barrier must run on the driver thread with the
  // observer in the loop, so each window is one round trip.
  for (;;) {
    window_done_.store(false, std::memory_order_relaxed);
    arrived_.store(0, std::memory_order_relaxed);
    next_domain_.store(0, std::memory_order_relaxed);
    bump_go_and_wake();
    driver_wait(window_done_);
    ++windows_run_;
    if (!barrier_merge()) ++silent_barriers_;
    barrier_observer_();
    if (!compute_window_ends()) break;
  }
}

void ShardEngine::worker_barrier_and_relaunch() {
  ++windows_run_;
  if (!barrier_merge()) ++silent_barriers_;
  if (compute_window_ends()) {
    ++chained_windows_;
    arrived_.store(0, std::memory_order_relaxed);
    next_domain_.store(0, std::memory_order_relaxed);
    bump_go_and_wake();  // peers resume; this worker re-enters via wait_for_go
    return;
  }
  signal_driver(flush_done_);
}

void ShardEngine::worker_main() {
  // Generation 0 is "before any window" — NOT the current go_ value: a
  // worker that starts after the first flush's bump must still see that
  // bump, or its window never completes (arrived_ counts all workers).
  std::uint64_t seen = 0;
  for (;;) {
    if (!wait_for_go(seen)) return;
    // Dynamic domain claiming: which worker runs which domain is
    // load-balancing only — a domain's schedule depends solely on its
    // run-queue contents and its precomputed window edge, so the claim
    // order cannot affect results.
    for (;;) {
      const std::size_t idx =
          next_domain_.fetch_add(1, std::memory_order_relaxed);
      if (idx >= domains_.size()) break;
      run_domain_window(domains_[idx]);
    }
    const std::size_t n = arrived_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (n == workers_.size()) {
      if (chain_barriers_) {
        worker_barrier_and_relaunch();
      } else {
        signal_driver(window_done_);
      }
    }
  }
}

}  // namespace shs::hsn
