#include "k8s/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/log.hpp"

namespace shs::k8s {

namespace {
constexpr const char* kTag = "scheduler";

// Score weights: a spread-group collision on a node dominates everything;
// leaving the group's switch costs less than a node collision but more
// than any realistic load imbalance.
constexpr int kNodeCollisionWeight = 1'000'000;
constexpr int kCrossSwitchWeight = 10'000;

// Pseudo-switch for nodes absent from the node->switch map.  Distinct
// from every real switch id so a partially-populated map cannot alias
// unmapped nodes with the real switch 0 (they only alias each other).
constexpr std::uint32_t kUnknownSwitch = 0xffffffffu;
}  // namespace

Scheduler::Scheduler(ApiServer& api, std::vector<std::string> nodes, Rng rng,
                     std::unordered_map<std::string, std::uint32_t>
                         node_switch)
    : api_(api), nodes_(std::move(nodes)), rng_(rng),
      node_switch_(std::move(node_switch)) {
  node_switch_ids_.reserve(nodes_.size());
  node_slot_.reserve(nodes_.size());
  for (const std::string& n : nodes_) {
    node_switch_ids_.push_back(switch_of(n));
    node_slot_.push_back(slot_of_.emplace(n, slot_of_.size()).first->second);
  }
  for (const auto& [node, sw] : node_switch_) {
    switch_nodes_[sw].push_back(node);
  }
  pod_sink_ = api_.on_pod_change(
      [this](const Pod& p) { dirty_.insert(p.meta.uid); });
  relist();
}

Scheduler::~Scheduler() {
  stop();
  api_.remove_change_sink(pod_sink_);
}

void Scheduler::start() {
  if (task_ != sim::EventLoop::kInvalidTask) return;
  task_ = api_.loop().schedule_periodic(api_.params().scheduler_period,
                                        [this] { cycle(); });
}

void Scheduler::stop() {
  if (task_ != sim::EventLoop::kInvalidTask) {
    api_.loop().cancel(task_);
    task_ = sim::EventLoop::kInvalidTask;
  }
}

void Scheduler::relist() {
  pending_.clear();
  counted_.clear();
  bound_.assign(slot_of_.size(), 0);
  groups_.clear();
  unusable_.clear();
  api_.visit_pods([this](const Pod& p) { dirty_.insert(p.meta.uid); });
}

void Scheduler::restart_from_api() {
  stop();
  ++incarnation_;
  in_flight_.clear();
  rr_ = 0;
  relist();
  start();
  SHS_INFO(kTag) << "scheduler restarted; rebuilding from API server";
}

std::uint32_t Scheduler::switch_of(const std::string& node) const {
  const auto it = node_switch_.find(node);
  return it == node_switch_.end() ? kUnknownSwitch : it->second;
}

bool Scheduler::switch_usable(std::uint32_t switch_id) const {
  // The unknown pseudo-switch has no fabric health to consult.
  return !switch_health_probe_ || switch_id == kUnknownSwitch ||
         switch_health_probe_(switch_id);
}

void Scheduler::count_load(const std::string& node,
                           const std::string& spread_key, int delta) {
  const auto slot = slot_of_.find(node);
  if (slot != slot_of_.end()) bound_[slot->second] += delta;
  if (spread_key.empty()) return;
  const auto git = groups_.try_emplace(spread_key).first;
  SpreadGroup& g = git->second;
  g.members += delta;
  if (g.members == 0) {
    groups_.erase(git);
    return;
  }
  const auto bump = [delta](auto& counts, auto key) {
    if ((counts[key] += delta) == 0) counts.erase(key);
  };
  if (slot != slot_of_.end()) bump(g.per_slot, slot->second);
  bump(g.per_switch, switch_of(node));
}

std::set<Uid> Scheduler::refresh() {
  std::set<Uid> bound_dirty;
  for (const Uid uid : std::exchange(dirty_, {})) {
    pending_.erase(uid);
    if (const auto it = counted_.find(uid); it != counted_.end()) {
      count_load(it->second.node, it->second.spread_key, -1);
      counted_.erase(it);
    }
    const Pod* p = api_.find_pod(uid);
    if (p == nullptr) continue;
    if (p->status.node.empty()) {
      if (p->status.phase == PodPhase::kPending &&
          !p->meta.deletion_requested && !in_flight_.contains(uid)) {
        pending_.insert(uid);
      }
      continue;
    }
    counted_.emplace(uid, Placement{p->status.node, p->spec.spread_key});
    count_load(p->status.node, p->spec.spread_key, +1);
    bound_dirty.insert(uid);
  }
  return bound_dirty;
}

void Scheduler::drain(const std::vector<Uid>& uids) {
  for (const Uid uid : uids) {
    auto r = api_.get_pod(uid);
    if (!r.is_ok() || r.value().meta.deletion_requested) continue;
    Pod pod = r.value();
    // Re-check the phase at apply time: the kubelet may have started
    // creating the pod since the scan classified it.
    if (pod.status.phase == PodPhase::kScheduled) {
      // Not started yet: unbind back to Pending so the next cycle can
      // place it on a healthy switch (the kubelet's create pipeline
      // bails on node mismatch).
      pod.status.node.clear();
      pod.status.phase = PodPhase::kPending;
      pod.status.scheduled_vt = 0;
      (void)api_.update_pod(pod);
      ++telemetry_.drained_rebound;
      SHS_DEBUG(kTag) << "drained pod " << pod.meta.name
                      << " off its dead switch (rebind)";
    } else if (pod.status.phase == PodPhase::kCreating ||
               pod.status.phase == PodPhase::kRunning) {
      // Started: evict.  The kubelet tears it down through the normal
      // two-phase deletion; the job controller replaces the vanished pod
      // and the replacement schedules onto a healthy switch.
      (void)api_.delete_pod(uid);
      ++telemetry_.drained_evicted;
      SHS_DEBUG(kTag) << "evicted pod " << pod.meta.name
                      << " from its dead switch";
    }
  }
}

void Scheduler::cycle() {
  if (nodes_.empty()) {
    dirty_.clear();
    return;
  }

  // Bring the pending queue and the load view up to date, then poll
  // switch health once per switch.  Drain candidates are the bound pods
  // that changed plus every pod behind a switch that went unusable since
  // the last cycle; any other pod on a dead switch was drained (and so
  // changed) when its switch was first found dead.
  std::set<Uid> candidates = refresh();
  std::unordered_set<std::uint32_t> unusable;
  for (const auto& [sw, nodes] : switch_nodes_) {
    if (switch_usable(sw)) continue;
    unusable.insert(sw);
    if (unusable_.contains(sw)) continue;
    for (const std::string& n : nodes) {
      api_.visit_pods_on_node(
          n, [&](const Pod& p) { candidates.insert(p.meta.uid); });
    }
  }
  unusable_ = std::move(unusable);

  // A bound pod whose home switch died must be drained: its NIC lost
  // fabric connectivity, so keeping it placed there serves nobody.
  std::vector<Uid> to_drain;
  for (const Uid uid : candidates) {
    const Pod& p = *api_.find_pod(uid);
    if (!p.meta.deletion_requested &&
        (p.status.phase == PodPhase::kScheduled ||
         p.status.phase == PodPhase::kCreating ||
         p.status.phase == PodPhase::kRunning) &&
        unusable_.contains(switch_of(p.status.node))) {
      to_drain.push_back(uid);
      // Not counted toward load/spread on the dead node this cycle;
      // re-read next cycle, after the drain moved it.
      if (const auto it = counted_.find(uid); it != counted_.end()) {
        count_load(it->second.node, it->second.spread_key, -1);
        counted_.erase(it);
      }
      dirty_.insert(uid);
    }
  }

  const int quota = api_.params().binds_per_cycle;
  int issued = 0;
  for (auto pit = pending_.begin();
       pit != pending_.end() && issued < quota;) {
    const Uid uid = *pit;
    const std::string spread_key = api_.find_pod(uid)->spec.spread_key;
    // The switches the pod's spread group already occupies: a bind
    // leaves the group's switches when the group exists and lacks the
    // candidate's switch.  Looked up once per pod (the group only
    // mutates after the node loop), and used for both the scoring
    // penalty and the telemetry so the two can never drift apart.
    const SpreadGroup* group = nullptr;
    if (!spread_key.empty()) {
      const auto it = groups_.find(spread_key);
      if (it != groups_.end()) group = &it->second;
    }
    // Topology spread dominates; staying on the group's switch comes
    // next; total load breaks ties; round-robin breaks remaining ties.
    std::size_t best = nodes_.size();
    bool best_crosses = false;
    int best_score = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::size_t idx = (rr_ + i) % nodes_.size();
      if (unusable_.contains(node_switch_ids_[idx])) {
        continue;  // never place new work behind an unhealthy switch
      }
      const std::size_t slot = node_slot_[idx];
      int score = bound_[slot];
      bool crosses = false;
      if (group != nullptr) {
        const auto c = group->per_slot.find(slot);
        if (c != group->per_slot.end()) {
          score += c->second * kNodeCollisionWeight;
        }
        crosses = !group->per_switch.contains(node_switch_ids_[idx]);
        if (crosses) score += kCrossSwitchWeight;
      }
      if (score < best_score) {
        best_score = score;
        best = idx;
        best_crosses = crosses;
      }
    }
    rr_ = (rr_ + 1) % nodes_.size();
    if (best == nodes_.size()) {
      ++pit;
      continue;
    }
    const std::string node = nodes_[best];
    if (best_crosses) {
      ++telemetry_.cross_switch_binds;
      // A group split across switches puts traffic on the uplinks:
      // sample how congested they are right now, so operators can
      // correlate placement decisions with fabric pressure.
      if (congestion_probe_) {
        const SimDuration lag = congestion_probe_();
        ++telemetry_.congestion_samples;
        telemetry_.total_cross_switch_lag += lag;
        telemetry_.max_cross_switch_lag =
            std::max(telemetry_.max_cross_switch_lag, lag);
      }
    }

    // Account this decision so later binds (this cycle and the next ones,
    // until the write lands) see it.
    in_flight_.emplace(uid, Placement{node, spread_key});
    count_load(node, spread_key, +1);
    pit = pending_.erase(pit);
    ++issued;
    ++telemetry_.binds;
    // Binding costs one scheduling pass + API write; binds within one
    // cycle serialize through the scheduler's single queue.
    const SimDuration cost = static_cast<SimDuration>(
        static_cast<double>(api_.params().bind_cost) * issued *
        rng_.jitter(api_.params().jitter_amplitude));
    const std::uint64_t gen = incarnation_;
    api_.loop().schedule_after(cost, [this, uid, node, gen] {
      if (gen != incarnation_) return;  // issued by a crashed incarnation
      if (const auto it = in_flight_.find(uid); it != in_flight_.end()) {
        count_load(it->second.node, it->second.spread_key, -1);
        in_flight_.erase(it);
      }
      dirty_.insert(uid);
      auto r = api_.get_pod(uid);
      if (!r.is_ok() || r.value().meta.deletion_requested) return;
      Pod pod = r.value();
      pod.status.node = node;
      pod.status.phase = PodPhase::kScheduled;
      pod.status.scheduled_vt = api_.loop().now();
      (void)api_.update_pod(pod);
      // The kubelet finalizer guarantees teardown runs before the object
      // disappears.
      (void)api_.add_pod_finalizer(uid, kKubeletFinalizer);
      SHS_TRACE(kTag) << "bound pod " << pod.meta.name << " -> " << node;
    });
  }

  drain(to_drain);
}

}  // namespace shs::k8s
