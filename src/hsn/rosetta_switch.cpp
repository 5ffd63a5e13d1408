#include "hsn/rosetta_switch.hpp"

#include <algorithm>

#include "hsn/cassini_nic.hpp"

#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::hsn {

namespace {
constexpr const char* kTag = "rosetta";
}

const char* drop_reason_name(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kSrcNotAuthorized: return "src_unauthorized";
    case DropReason::kDstNotAuthorized: return "dst_unauthorized";
    case DropReason::kUnknownDestination: return "unknown_dst";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kLinkDown: return "link_down";
    case DropReason::kLossInjected: return "loss_injected";
    case DropReason::kCorrupt: return "corrupt";
    case DropReason::kAckLost: return "ack_lost";
    case DropReason::kRxOverflow: return "rx_overflow";
    case DropReason::kStaleEpoch: return "stale_epoch";
  }
  return "unknown";
}

RosettaSwitch::RosettaSwitch(std::shared_ptr<TimingModel> timing, SwitchId id,
                             std::uint64_t seed)
    : id_(id), timing_(std::move(timing)),
      route_rng_(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))),
      fault_rng_(seed ^ (0xda3e39cb94b95bdbULL * (id + 1))) {}

Status RosettaSwitch::connect(NicAddr addr, DeliveryFn deliver) {
  if (!deliver) {
    // admit_step discriminates local delivery from transit forwarding by
    // the presence of the stored callback, so an empty one must never
    // reach the port table.
    return invalid_argument("delivery callback must be non-empty");
  }
  if (addr >= kMaxPortAddr) {
    return invalid_argument(strfmt("NIC address %u exceeds the port-table "
                                   "bound", addr));
  }
  {
    std::lock_guard<SpinLock> lock(mutex_);
    if (addr >= ports_.size()) {
      ports_.resize(addr + 1);
    }
    if (ports_[addr].connected()) {
      return already_exists(strfmt("port %u already connected", addr));
    }
    ports_[addr].deliver =
        std::make_shared<const DeliveryFn>(std::move(deliver));
    ++connected_ports_;
  }
  SHS_DEBUG(kTag) << "NIC connected at switch " << id_ << " port " << addr;
  return Status::ok();
}

Status RosettaSwitch::connect(NicAddr addr, CassiniNic& nic) {
  if (addr >= kMaxPortAddr) {
    return invalid_argument(strfmt("NIC address %u exceeds the port-table "
                                   "bound", addr));
  }
  {
    std::lock_guard<SpinLock> lock(mutex_);
    if (addr >= ports_.size()) {
      ports_.resize(addr + 1);
    }
    if (ports_[addr].connected()) {
      return already_exists(strfmt("port %u already connected", addr));
    }
    ports_[addr].nic = &nic;
    ++connected_ports_;
  }
  SHS_DEBUG(kTag) << "NIC connected at switch " << id_ << " port " << addr;
  return Status::ok();
}

Status RosettaSwitch::disconnect(NicAddr addr) {
  std::lock_guard<SpinLock> lock(mutex_);
  Port* port = port_at(addr);
  if (port == nullptr) {
    return not_found(strfmt("port %u not connected", addr));
  }
  *port = Port{};  // reconnects start with fresh VNIs and egress horizons
  --connected_ports_;
  return Status::ok();
}

Status RosettaSwitch::add_uplink(RosettaSwitch& peer, DataRate rate,
                                 SimDuration latency) {
  if (&peer == this) {
    return invalid_argument("uplink needs a distinct peer switch");
  }
  std::lock_guard<SpinLock> lock(mutex_);
  const SwitchId peer_id = peer.id();
  if (peer_id >= uplinks_.size()) {
    uplinks_.resize(peer_id + 1);
  }
  if (uplinks_[peer_id].peer != nullptr) {
    return already_exists(strfmt("uplink to switch %u already exists",
                                 peer_id));
  }
  Uplink& up = uplinks_[peer_id];
  up.peer = &peer;
  up.rate = rate;
  up.latency = latency;
  ++uplink_count_;
  return Status::ok();
}

void RosettaSwitch::set_forwarding(
    std::shared_ptr<const std::vector<SwitchId>> nic_home,
    std::shared_ptr<const TopologyPlan> plan) {
  std::lock_guard<SpinLock> lock(mutex_);
  nic_home_ = std::move(nic_home);
  plan_ = std::move(plan);
}

SwitchCounters& RosettaSwitch::slab_for_locked(Vni vni) {
  if (vni == last_slab_vni_ && last_slab_ != nullptr) {
    return *last_slab_;
  }
  const auto it = std::lower_bound(
      slab_index_.begin(), slab_index_.end(), vni,
      [](const auto& entry, Vni v) { return entry.first < v; });
  SwitchCounters* slab;
  if (it != slab_index_.end() && it->first == vni) {
    slab = it->second;
  } else {
    slab = &slab_store_.emplace_back();
    slab_index_.insert(it, {vni, slab});
  }
  last_slab_vni_ = vni;
  last_slab_ = slab;
  return *slab;
}

Status RosettaSwitch::authorize_vni(NicAddr port, Vni vni) {
  if (vni == kInvalidVni) return invalid_argument("VNI 0 is reserved");
  {
    std::lock_guard<SpinLock> lock(mutex_);
    Port* p = port_at(port);
    if (p == nullptr) {
      return not_found(strfmt("port %u not connected", port));
    }
    // The slab is resolved *here*, at authorization time, so the
    // per-packet edge check finds the counter pointer alongside the VNI
    // it scans for anyway.
    const auto it = std::lower_bound(
        p->vnis.begin(), p->vnis.end(), vni,
        [](const auto& entry, Vni v) { return entry.first < v; });
    if (it == p->vnis.end() || it->first != vni) {
      p->vnis.insert(it, {vni, &slab_for_locked(vni)});
    }
  }
  SHS_DEBUG(kTag) << "port " << port << " authorized for VNI " << vni;
  return Status::ok();
}

Status RosettaSwitch::revoke_vni(NicAddr port, Vni vni) {
  std::lock_guard<SpinLock> lock(mutex_);
  Port* p = port_at(port);
  if (p == nullptr) {
    return not_found(strfmt("port %u not connected", port));
  }
  const auto it = std::lower_bound(
      p->vnis.begin(), p->vnis.end(), vni,
      [](const auto& entry, Vni v) { return entry.first < v; });
  if (it == p->vnis.end() || it->first != vni) {
    return not_found(strfmt("port %u not authorized for VNI %u", port, vni));
  }
  p->vnis.erase(it);
  return Status::ok();
}

bool RosettaSwitch::vni_authorized(NicAddr port, Vni vni) const {
  std::lock_guard<SpinLock> lock(mutex_);
  const Port* p = port_at(port);
  return p != nullptr && p->slab_for(vni) != nullptr;
}

void RosettaSwitch::set_enforcement(bool on) noexcept {
  std::lock_guard<SpinLock> lock(mutex_);
  enforce_ = on;
}

bool RosettaSwitch::enforcement() const noexcept {
  std::lock_guard<SpinLock> lock(mutex_);
  return enforce_;
}

void RosettaSwitch::set_health(SwitchHealth health) noexcept {
  std::lock_guard<SpinLock> lock(mutex_);
  health_ = health;
}

SwitchHealth RosettaSwitch::health() const noexcept {
  std::lock_guard<SpinLock> lock(mutex_);
  return health_;
}

Status RosettaSwitch::set_uplink_state(SwitchId peer, LinkState state) {
  std::lock_guard<SpinLock> lock(mutex_);
  Uplink* up = uplink_at(peer);
  if (up == nullptr) {
    return not_found(strfmt("no uplink toward switch %u", peer));
  }
  up->state = state;
  return Status::ok();
}

LinkState RosettaSwitch::uplink_state(SwitchId peer) const {
  std::lock_guard<SpinLock> lock(mutex_);
  const Uplink* up = uplink_at(peer);
  return up == nullptr ? LinkState::kDown : up->state;
}

void RosettaSwitch::set_committed_epoch_source(
    std::shared_ptr<const std::atomic<std::uint64_t>> src) {
  std::lock_guard<SpinLock> lock(mutex_);
  committed_epoch_ = std::move(src);
}

std::uint64_t RosettaSwitch::applied_epoch() const {
  std::lock_guard<SpinLock> lock(mutex_);
  return plan_ != nullptr ? plan_->version : 0;
}

void RosettaSwitch::rearm_faults_locked() noexcept {
  bool armed = edge_faults_.any();
  for (const Uplink& up : uplinks_) {
    if (up.peer == nullptr) continue;
    if (up.faults.any() || !up.flaps.empty()) {
      armed = true;
      break;
    }
  }
  faults_armed_ = armed;
}

void RosettaSwitch::set_fault_profile(const FaultProfile& p) {
  std::lock_guard<SpinLock> lock(mutex_);
  edge_faults_ = p;
  for (Uplink& up : uplinks_) {
    if (up.peer != nullptr) up.faults = p;
  }
  rearm_faults_locked();
}

Status RosettaSwitch::set_uplink_fault_profile(SwitchId peer,
                                               const FaultProfile& p) {
  std::lock_guard<SpinLock> lock(mutex_);
  Uplink* up = uplink_at(peer);
  if (up == nullptr) {
    return not_found(strfmt("no uplink toward switch %u", peer));
  }
  up->faults = p;
  rearm_faults_locked();
  return Status::ok();
}

Status RosettaSwitch::add_uplink_flap(SwitchId peer, SimTime down_from,
                                      SimTime down_until) {
  if (down_until <= down_from) {
    return invalid_argument("flap window must have positive duration");
  }
  std::lock_guard<SpinLock> lock(mutex_);
  Uplink* up = uplink_at(peer);
  if (up == nullptr) {
    return not_found(strfmt("no uplink toward switch %u", peer));
  }
  up->flaps.emplace_back(down_from, down_until);
  faults_armed_ = true;
  return Status::ok();
}

void RosettaSwitch::clear_faults() {
  std::lock_guard<SpinLock> lock(mutex_);
  edge_faults_ = FaultProfile{};
  for (Uplink& up : uplinks_) {
    up.faults = FaultProfile{};
    up.flaps.clear();
  }
  faults_armed_ = false;
}

bool RosettaSwitch::faults_armed() const {
  std::lock_guard<SpinLock> lock(mutex_);
  return faults_armed_;
}

SimTime RosettaSwitch::schedule_egress_locked(
    SimTime at_egress, int prio, SimTime (&free_vt)[kNumTrafficClasses],
    SimDuration ser_time, DataRate rate) {
  SimTime start = at_egress;
  for (int c = 0; c <= prio; ++c) {
    start = std::max(start, free_vt[c]);
  }
  bool lower_priority_in_flight = false;
  for (int c = prio + 1; c < kNumTrafficClasses; ++c) {
    if (free_vt[c] > start) {
      lower_priority_in_flight = true;
    }
  }
  if (lower_priority_in_flight) {
    start += timing_->serialize_time(timing_->config().frame_bytes, rate);
  }
  free_vt[prio] = start + ser_time;
  return start;
}

SimDuration RosettaSwitch::lag_of(const Uplink& up, SimTime at,
                                  int prio) noexcept {
  SimTime busy = 0;
  for (int c = 0; c <= prio; ++c) {
    busy = std::max(busy, up.egress_free_vt[c]);
  }
  return busy > at ? busy - at : 0;
}

SwitchId RosettaSwitch::least_lag_candidate_locked(const Packet& p,
                                                   SwitchId target,
                                                   SimDuration* lag_out) {
  if (lag_out != nullptr) *lag_out = 0;
  if (plan_ == nullptr || id_ >= plan_->switch_count ||
      target >= plan_->switch_count) {
    return static_next_locked(target);
  }
  const auto cands = plan_->candidates(id_, target);
  if (cands.empty()) {
    return static_next_locked(target);
  }
  const int prio = static_cast<int>(p.tc);
  SwitchId best = kInvalidSwitch;
  SimDuration best_lag = 0;
  for (const SwitchId cand : cands) {
    const Uplink* up = live_uplink_locked(cand);
    if (up == nullptr) {
      continue;  // dead uplinks never enter the adaptive candidate set
    }
    const SimDuration lag = lag_of(*up, p.inject_vt, prio);
    // Candidates arrive in ascending switch-id order; strict < keeps the
    // first (lowest-id) of equally idle links — the deterministic
    // tie-break.
    if (best == kInvalidSwitch || lag < best_lag) {
      best = cand;
      best_lag = lag;
    }
  }
  if (lag_out != nullptr) *lag_out = best_lag;
  return best == kInvalidSwitch ? static_next_locked(target) : best;
}

SwitchId RosettaSwitch::pick_intermediate_locked(SwitchId home) {
  if (plan_ == nullptr || plan_->group_of.empty() ||
      id_ >= plan_->group_of.size() || home >= plan_->group_of.size()) {
    return kInvalidSwitch;
  }
  const SwitchId g_src = plan_->group_of[id_];
  const SwitchId g_dst = plan_->group_of[home];
  if (g_src == g_dst) return kInvalidSwitch;  // local traffic: no detour
  const SwitchId groups = plan_->df_groups;
  if (groups < 3) return kInvalidSwitch;
  const SwitchId per_group = plan_->df_per_group;
  // Uniform over the groups that are neither the source's nor the
  // destination's, then uniform over that group's switches.
  auto g = static_cast<SwitchId>(route_rng_.uniform_u64(groups - 2));
  const SwitchId lo = std::min(g_src, g_dst);
  const SwitchId hi = std::max(g_src, g_dst);
  if (g >= lo) ++g;
  if (g >= hi) ++g;
  return static_cast<SwitchId>(
      g * per_group + route_rng_.uniform_u64(per_group));
}

SimDuration RosettaSwitch::estimate_delay_locked(const Packet& p,
                                                 SimDuration first_hop_lag,
                                                 int hops,
                                                 DataRate rate) const {
  // Queue lag on the first link, plus each hop's fall-through latency and
  // this packet's serialization.  Uses the *configured* hop latency (no
  // jitter draw: the estimate must not perturb the timing RNG stream).
  const SimDuration per_hop =
      timing_->config().hop_latency + timing_->serialize_time(p.size_bytes,
                                                              rate);
  return first_hop_lag + static_cast<SimDuration>(hops) * per_hop;
}

SwitchId RosettaSwitch::choose_route_locked(Packet& p, SwitchId home,
                                            SwitchCounters& vni_counters) {
  const RoutingPolicy policy = plan_ != nullptr ? plan_->routing
                                                : RoutingPolicy::kMinimal;
  switch (policy) {
    case RoutingPolicy::kMinimal:
      return static_next_locked(home);

    case RoutingPolicy::kValiant: {
      // Dragonfly: random intermediate in a third group.  The detour is
      // recorded on the packet; transit switches route minimally toward
      // it, then minimally home.  An intermediate the repaired plan can
      // no longer reach (or whose first hop is a dead link) is skipped —
      // the packet falls back to the minimal path instead of dropping.
      const SwitchId via = pick_intermediate_locked(home);
      if (via != kInvalidSwitch) {
        const SwitchId via_next = static_next_locked(via);
        if (via_next != kInvalidSwitch &&
            live_uplink_locked(via_next) != nullptr) {
          p.via_switch = via;
          ++totals_.routed_nonminimal;
          ++vni_counters.routed_nonminimal;
          return via_next;
        }
      }
      // Fat-tree (or no eligible third group / unreachable intermediate):
      // uniform random among the live minimal candidates — random spine
      // selection that excludes dead uplinks.  Counting pass, no
      // allocation: this runs per packet on the healthy hot path.
      if (plan_ != nullptr && id_ < plan_->switch_count &&
          home < plan_->switch_count) {
        const auto cands = plan_->candidates(id_, home);
        if (!cands.empty()) {
          std::size_t alive = 0;
          for (const SwitchId cand : cands) {
            if (live_uplink_locked(cand) != nullptr) ++alive;
          }
          if (alive > 0) {
            auto pick = route_rng_.uniform_u64(alive);
            for (const SwitchId cand : cands) {
              if (live_uplink_locked(cand) == nullptr) continue;
              if (pick-- == 0) return cand;
            }
          }
        }
      }
      return static_next_locked(home);
    }

    case RoutingPolicy::kUgal: {
      // Minimal estimate: the least-congested minimal candidate.
      SimDuration min_lag = 0;
      const SwitchId min_next =
          least_lag_candidate_locked(p, home, &min_lag);
      const SwitchId via = pick_intermediate_locked(home);
      if (via == kInvalidSwitch) {
        // Fat-tree / same group: congestion-aware spine selection is the
        // whole decision.
        return min_next;
      }
      const SwitchId via_next = static_next_locked(via);
      const Uplink* via_up = via_next == kInvalidSwitch
                                 ? nullptr
                                 : live_uplink_locked(via_next);
      if (via_up == nullptr) {
        return min_next;
      }
      const Uplink* min_up = live_uplink_locked(min_next);
      if (min_up == nullptr) {
        // Every minimal candidate is dead (least_lag fell back to a dead
        // static hop): a live detour beats a guaranteed drop, whatever
        // the delay estimates say.
        p.via_switch = via;
        ++totals_.routed_nonminimal;
        ++vni_counters.routed_nonminimal;
        return via_next;
      }
      const int prio = static_cast<int>(p.tc);
      const SimDuration est_min = estimate_delay_locked(
          p, min_lag, plan_->hops_between(id_, home), min_up->rate);
      const SimDuration est_val = estimate_delay_locked(
          p, lag_of(*via_up, p.inject_vt, prio),
          plan_->hops_between(id_, via) + plan_->hops_between(via, home),
          via_up->rate);
      // Strict <: ties go minimal, so an idle fabric never detours.
      if (est_val < est_min) {
        p.via_switch = via;
        ++totals_.routed_nonminimal;
        ++vni_counters.routed_nonminimal;
        return via_next;
      }
      return min_next;
    }
  }
  return static_next_locked(home);
}

RouteResult RosettaSwitch::step(Packet& p, bool check_src, int ttl,
                                RosettaSwitch** next) {
  CassiniNic* deliver_to = nullptr;
  const RouteResult result = step(p, check_src, ttl, next, &deliver_to);
  if (deliver_to != nullptr) deliver_to->deliver(std::move(p));
  return result;
}

RouteResult RosettaSwitch::step(Packet& p, bool check_src, int ttl,
                                RosettaSwitch** next,
                                CassiniNic** deliver_to) {
  *next = nullptr;
  *deliver_to = nullptr;
  AdmitStep step = admit_step(p, check_src, ttl);
  if (step.nic != nullptr) {
    // Deferred delivery: the caller applies the packet's effect on the
    // NIC (and owns the target-side reply).  Set on kAckLost too — the
    // packet reached the NIC; only the fabric ACK was lost.
    *deliver_to = step.nic;
    return step.result;
  }
  if (step.deliver != nullptr) {
    (*step.deliver)(std::move(p));
    return step.result;
  }
  *next = step.next;  // nullptr => dropped (reason recorded)
  return step.result;
}

RouteResult RosettaSwitch::route(Packet&& p) {
  // Iterative hop-by-hop walk: each switch takes its own mutex for one
  // admission step, and the packet object travels the whole path by
  // reference — moved exactly once, into the delivery callback.
  RosettaSwitch* sw = this;
  bool check_src = true;
  int ttl = kMaxFabricHops;
  for (;;) {
    RosettaSwitch* next = nullptr;
    const RouteResult result = sw->step(p, check_src, ttl, &next);
    if (next == nullptr) return result;  // delivered or dropped
    sw = next;
    check_src = false;
    --ttl;
  }
}

RosettaSwitch::AdmitStep RosettaSwitch::admit_step(Packet& p, bool check_src,
                                                   int ttl) {
  // Hot-path contract: everything under this lock is branch-and-array
  // work — port/uplink slots are vector indexes, routing tables are the
  // compiled flat plan, and VNI counters are pre-resolved slabs.  The
  // only hash/allocation left is slab_for_locked on the *first* packet
  // of a never-before-seen VNI (drop accounting), and there is no
  // logging or stream construction anywhere in the section.
  AdmitStep step;
  std::lock_guard<SpinLock> lock(mutex_);

  // A failed switch is dead silicon: everything presented to it — a
  // local injection, a transit packet that was in flight when the
  // switch died, or a final delivery — is lost.
  if (health_ == SwitchHealth::kFailed) {
    ++totals_.dropped_link_down;
    ++slab_for_locked(p.vni).dropped_link_down;
    step.result.reason = DropReason::kLinkDown;
    return step;
  }

  // Resolve the destination first (unknown-destination outranks the
  // authorization drops, as in the single-switch model).  Locality
  // comes from the dense nic_home map, not the port table: transit
  // switches then never touch their sparse per-address port vector —
  // only the home switch (and the out-of-plan fallback for hand-wired
  // test ports) consults it.
  const SwitchId home = nic_home_ != nullptr && p.dst < nic_home_->size()
                            ? (*nic_home_)[p.dst]
                            : kInvalidSwitch;
  Port* dst_port = nullptr;
  if (home == id_ || home == kInvalidSwitch) {
    dst_port = port_at(p.dst);
    if (dst_port == nullptr) {
      // Either an address outside the fabric plan or a NIC that should
      // be here but is not connected.
      ++totals_.dropped_unknown_dst;
      ++slab_for_locked(p.vni).dropped_unknown_dst;
      step.result.reason = DropReason::kUnknownDestination;
      return step;
    }
  }
  const bool local = dst_port != nullptr;

  // The packet's VNI counter slab.  The edge checks resolve it from the
  // port's cached pointers; paths that skip both checks (transit,
  // enforcement off) fall back to the sorted slab index.
  SwitchCounters* vni_counters = nullptr;
  if (check_src && enforce_) {
    const Port* src_port = port_at(p.src);
    vni_counters = src_port != nullptr ? src_port->slab_for(p.vni) : nullptr;
    if (vni_counters == nullptr) {
      ++totals_.dropped_src_unauthorized;
      ++slab_for_locked(p.vni).dropped_src_unauthorized;
      step.result.reason = DropReason::kSrcNotAuthorized;
      return step;
    }
  }

  Uplink* up = nullptr;
  if (!local) {
    if (vni_counters == nullptr) vni_counters = &slab_for_locked(p.vni);
    // The packet's current target: its Valiant intermediate while the
    // detour is pending, its destination's edge switch afterwards.
    SwitchId target = home;
    if (p.via_switch != kInvalidSwitch) {
      if (p.via_switch == id_) {
        p.via_switch = kInvalidSwitch;  // detour complete; head home
      } else {
        target = p.via_switch;
      }
    }
    // The policy decision happens once, at the source edge (after the
    // VNI check, so dropped packets never consume the routing RNG);
    // transit switches follow static minimal routes toward the target.
    const SwitchId nh = check_src
                            ? choose_route_locked(p, home, *vni_counters)
                            : static_next_locked(target);
    Uplink* next_up = nh == kInvalidSwitch ? nullptr : uplink_at(nh);
    // Epoch fencing: while this switch's applied plan lags the fabric
    // manager's committed epoch (the staggered-publish window), a drop
    // that a newer plan could cure — no route, or a dead static next hop
    // — is the publish lag showing, not a routing fault.  Reclassified
    // as kStaleEpoch so it is observable and the NIC's reliability layer
    // can stretch its retry budget across the window.  Transient flaps
    // and failed switches below are NOT epoch-curable and keep their
    // legacy classification.
    const bool stale_epoch =
        committed_epoch_ != nullptr && plan_ != nullptr &&
        plan_->version < committed_epoch_->load(std::memory_order_relaxed);
    if (ttl <= 0 || next_up == nullptr) {
      if (stale_epoch) {
        ++totals_.dropped_stale_epoch;
        ++vni_counters->dropped_stale_epoch;
        step.result.reason = DropReason::kStaleEpoch;
        return step;
      }
      ++totals_.dropped_no_route;
      ++vni_counters->dropped_no_route;
      step.result.reason = DropReason::kNoRoute;
      return step;
    }
    if (next_up->state == LinkState::kDown) {
      // The route exists but its link is dead: either the packet was
      // already committed to this hop when the failure hit, or the
      // fabric manager has not republished repaired tables yet.
      if (stale_epoch) {
        ++totals_.dropped_stale_epoch;
        ++vni_counters->dropped_stale_epoch;
        step.result.reason = DropReason::kStaleEpoch;
        return step;
      }
      ++totals_.dropped_link_down;
      ++vni_counters->dropped_link_down;
      step.result.reason = DropReason::kLinkDown;
      return step;
    }
    if (faults_armed_) {
      // Transient fault model — one predicted branch on the fault-free
      // configuration, draws only from the dedicated fault stream.  A
      // flapped link is indistinguishable from a dead one at the data
      // plane (but invisible to the fabric manager: no replan).
      if (!next_up->flaps.empty() && flapped_down(*next_up, p.inject_vt)) {
        ++totals_.dropped_link_down;
        ++vni_counters->dropped_link_down;
        step.result.reason = DropReason::kLinkDown;
        return step;
      }
      if (next_up->faults.drop_rate > 0.0 &&
          fault_rng_.uniform() < next_up->faults.drop_rate) {
        ++totals_.dropped_loss;
        ++vni_counters->dropped_loss;
        step.result.reason = DropReason::kLossInjected;
        return step;
      }
      if (next_up->faults.corrupt_rate > 0.0 &&
          fault_rng_.uniform() < next_up->faults.corrupt_rate) {
        ++totals_.dropped_corrupt;
        ++vni_counters->dropped_corrupt;
        step.result.reason = DropReason::kCorrupt;
        return step;
      }
    }
    up = next_up;
  }

  const int prio = static_cast<int>(p.tc);  // 0 = highest priority
  if (local) {
    SwitchCounters* dst_slab = enforce_ ? dst_port->slab_for(p.vni) : nullptr;
    if (enforce_ && dst_slab == nullptr) {
      ++totals_.dropped_dst_unauthorized;
      ++slab_for_locked(p.vni).dropped_dst_unauthorized;
      step.result.reason = DropReason::kDstNotAuthorized;
      return step;
    }
    if (dst_slab == nullptr) dst_slab = &slab_for_locked(p.vni);

    if (faults_armed_ && edge_faults_.any()) {
      // Edge-link faults, after the authorization checks (a lossy cable
      // must never mask an isolation violation).
      if (edge_faults_.drop_rate > 0.0 &&
          fault_rng_.uniform() < edge_faults_.drop_rate) {
        ++totals_.dropped_loss;
        ++dst_slab->dropped_loss;
        step.result.reason = DropReason::kLossInjected;
        return step;
      }
      if (edge_faults_.corrupt_rate > 0.0 &&
          fault_rng_.uniform() < edge_faults_.corrupt_rate) {
        ++totals_.dropped_corrupt;
        ++dst_slab->dropped_corrupt;
        step.result.reason = DropReason::kCorrupt;
        return step;
      }
    }

    // Cut-through timing with per-class priority scheduling: the packet
    // reaches the egress port after one hop latency; it then waits for
    // all queued traffic of its own or higher priority, plus at most one
    // in-flight *frame* of lower-priority traffic (frame-granular
    // preemption).  A single same-class flow already paced by its sender
    // sees no extra delay; incast congestion queues; bulk traffic cannot
    // stall low-latency traffic by more than one frame.
    const SimTime at_egress = p.inject_vt + timing_->hop_latency(p.tc);
    const DataRate edge_rate = timing_->config().link_rate;
    if (p.ser_cache_bps != edge_rate.bps()) {
      p.ser_cache = timing_->serialize_time(p.size_bytes, edge_rate);
      p.ser_cache_bps = edge_rate.bps();
    }
    p.arrival_vt = schedule_egress_locked(
        at_egress, prio, dst_port->egress_free_vt, p.ser_cache, edge_rate);

    ++totals_.delivered;
    totals_.bytes_delivered += p.size_bytes;
    ++dst_slab->delivered;
    dst_slab->bytes_delivered += p.size_bytes;

    step.result.delivered = true;
    step.result.arrival_vt = p.arrival_vt;
    // Delivery happens outside the lock: direct NIC call when the
    // Fabric wired the port, refcounted callback otherwise.
    step.nic = dst_port->nic;
    if (step.nic == nullptr) step.deliver = dst_port->deliver;

    if (faults_armed_ && p.reliable && edge_faults_.ack_loss_rate > 0.0 &&
        fault_rng_.uniform() < edge_faults_.ack_loss_rate) {
      // Lost link-level ACK: the packet IS delivered (the counters and
      // timing above stand), but the sender is told it was not — it
      // will retransmit, and the receiving NIC suppresses the
      // duplicate.  This is the path that exercises exactly-once
      // semantics end to end.
      ++totals_.ack_lost;
      ++dst_slab->ack_lost;
      step.result.delivered = false;
      step.result.reason = DropReason::kAckLost;
    }
  } else {
    // Transit: traverse this switch, then serialize onto the uplink
    // (per-link, per-class horizon), then fly the link's latency.
    Uplink& link = *up;
    const SimTime at_egress = p.inject_vt + timing_->hop_latency(p.tc);
    link.counters.peak_queue_lag =
        std::max(link.counters.peak_queue_lag,
                 lag_of(link, at_egress, prio));
    if (p.ser_cache_bps != link.rate.bps()) {
      p.ser_cache = timing_->serialize_time(p.size_bytes, link.rate);
      p.ser_cache_bps = link.rate.bps();
    }
    const SimDuration ser = p.ser_cache;
    const SimTime start = schedule_egress_locked(
        at_egress, prio, link.egress_free_vt, ser, link.rate);
    p.inject_vt = start + ser + link.latency;
    ++p.hops;
    ++link.counters.packets;
    link.counters.bytes += p.size_bytes;
    ++totals_.forwarded;
    totals_.bytes_forwarded += p.size_bytes;
    ++vni_counters->forwarded;
    vni_counters->bytes_forwarded += p.size_bytes;
    step.next = link.peer;  // forwarded outside the lock
  }
  return step;
}

SwitchCounters RosettaSwitch::counters() const {
  std::lock_guard<SpinLock> lock(mutex_);
  return totals_;
}

SwitchCounters RosettaSwitch::counters_for_vni(Vni vni) const {
  std::lock_guard<SpinLock> lock(mutex_);
  const auto it = std::lower_bound(
      slab_index_.begin(), slab_index_.end(), vni,
      [](const auto& entry, Vni v) { return entry.first < v; });
  return it != slab_index_.end() && it->first == vni ? *it->second
                                                     : SwitchCounters{};
}

std::size_t RosettaSwitch::connected_ports() const {
  std::lock_guard<SpinLock> lock(mutex_);
  return connected_ports_;
}

std::size_t RosettaSwitch::uplink_count() const {
  std::lock_guard<SpinLock> lock(mutex_);
  return uplink_count_;
}

LinkCounters RosettaSwitch::uplink_counters(SwitchId peer) const {
  std::lock_guard<SpinLock> lock(mutex_);
  const Uplink* up = uplink_at(peer);
  return up == nullptr ? LinkCounters{} : up->counters;
}

SimDuration RosettaSwitch::uplink_queue_lag(SwitchId peer, SimTime at,
                                            TrafficClass tc) const {
  std::lock_guard<SpinLock> lock(mutex_);
  const Uplink* up = uplink_at(peer);
  return up == nullptr ? 0 : lag_of(*up, at, static_cast<int>(tc));
}

SimDuration RosettaSwitch::max_uplink_lag(SimTime at) const {
  std::lock_guard<SpinLock> lock(mutex_);
  SimDuration worst = 0;
  for (const Uplink& up : uplinks_) {
    if (up.peer == nullptr) continue;
    worst = std::max(worst, lag_of(up, at, kNumTrafficClasses - 1));
  }
  return worst;
}

SimDuration RosettaSwitch::peak_uplink_lag() const {
  std::lock_guard<SpinLock> lock(mutex_);
  SimDuration worst = 0;
  for (const Uplink& up : uplinks_) {
    if (up.peer == nullptr) continue;
    worst = std::max(worst, up.counters.peak_queue_lag);
  }
  return worst;
}

}  // namespace shs::hsn
