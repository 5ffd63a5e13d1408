#include "hsn/fabric_manager.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "db/database.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::hsn {

namespace {
constexpr const char* kTag = "fabric-mgr";
constexpr const char* kJournalTable = "fm_journal";

using CrashPoint = ControlPlaneFaultProfile::CrashPoint;

/// Deterministic per-switch stagger delay in [0, max_delay]: a splitmix
/// finalizer over (seed, plan version, switch id), so the wave shape is
/// a pure function of the publish and reproducible across runs and
/// thread counts.
std::uint64_t stagger_hash(std::uint64_t seed, std::uint64_t version,
                           SwitchId sw) noexcept {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (version + 1)) ^
                    (0xda3e39cb94b95bdbULL * (sw + 1));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

db::Row journal_row(const char* op, std::int64_t a, std::int64_t b,
                    std::int64_t version) {
  return db::Row{std::string(op), a, b, version};
}
}  // namespace

FabricManager::FabricManager(
    std::vector<std::shared_ptr<RosettaSwitch>> switches,
    std::shared_ptr<const std::vector<SwitchId>> nic_home,
    TopologyPlan base_plan)
    : switches_(std::move(switches)), nic_home_(std::move(nic_home)),
      base_(std::make_shared<TopologyPlan>(std::move(base_plan))),
      committed_epoch_cell_(
          std::make_shared<std::atomic<std::uint64_t>>(0)) {
  std::vector<std::set<SwitchId>> neighbors(switches_.size());
  for (const TopologyPlan::PlannedLink& link : base_->links) {
    link_keys_.insert(FailureSet::link_key(link.from, link.to));
    neighbors[link.from].insert(link.to);
    neighbors[link.to].insert(link.from);
  }
  adjacent_.reserve(switches_.size());
  for (const auto& set : neighbors) {
    adjacent_.emplace_back(set.begin(), set.end());
  }
  // Single-threaded construction; the lock is not yet needed.
  for (const auto& sw : switches_) {
    sw->set_committed_epoch_source(committed_epoch_cell_);
  }
  publish_locked(base_, /*recovery=*/false);
}

void FabricManager::apply_to_switch_locked(SwitchId sw) {
  switches_[sw]->set_forwarding(nic_home_,
                                std::shared_ptr<const TopologyPlan>(live_));
}

void FabricManager::stage_publish_locked() {
  pending_applies_.clear();
  pending_applies_.reserve(switches_.size());
  for (const auto& sw : switches_) {
    const std::uint64_t max = static_cast<std::uint64_t>(
        stagger_.max_delay > 0 ? stagger_.max_delay : 0);
    const SimDuration delay =
        max == 0 ? 0
                 : static_cast<SimDuration>(stagger_hash(
                       stagger_.seed, version_, sw->id()) %
                                            (max + 1));
    pending_applies_.push_back({delay, sw->id()});
  }
  std::sort(pending_applies_.begin(), pending_applies_.end(),
            [](const PendingApply& a, const PendingApply& b) {
              return a.delay != b.delay ? a.delay < b.delay : a.sw < b.sw;
            });
  ++publish_seq_;
  publish_pending_.store(true, std::memory_order_relaxed);
}

std::shared_ptr<TopologyPlan> FabricManager::spare_plan_locked() {
  if (retired_ != nullptr && retired_.use_count() == 1) {
    return std::move(retired_);
  }
  return std::make_shared<TopologyPlan>();
}

void FabricManager::publish_locked(std::shared_ptr<TopologyPlan> plan,
                                   bool recovery) {
  retired_ = std::move(live_);
  live_ = std::move(plan);
  // Commit the epoch before any switch applies it: from this instant a
  // lagging switch can tell that its plan is stale (epoch fencing).
  committed_epoch_cell_->store(live_->version, std::memory_order_relaxed);
  if (recovery) {
    pending_applies_.clear();
    publish_pending_.store(false, std::memory_order_relaxed);
  } else if (stagger_.enabled) {
    stage_publish_locked();
    if (crash_profile_.point == CrashPoint::kMidPublish) {
      // Waves staged, none drained: the restart completes the publish.
      enter_crash_locked();
    }
    return;
  }
  std::size_t applied = 0;
  for (const auto& sw : switches_) {
    if (crash_profile_.point == CrashPoint::kMidPublish &&
        applied == crash_profile_.publish_after_switches) {
      enter_crash_locked();
      return;
    }
    apply_to_switch_locked(sw->id());
    ++applied;
  }
}

void FabricManager::enter_crash_locked() {
  crashed_ = true;
  crash_profile_ = ControlPlaneFaultProfile{};
  SHS_INFO(kTag) << "control plane CRASHED (injected)";
}

void FabricManager::journal_rows_locked(
    const std::vector<db::Row>& rows) {
  if (journal_db_ == nullptr || journal_db_->crashed() || rows.empty()) {
    return;
  }
  const Status s = journal_db_->with_transaction([&](db::Transaction& tx) {
    for (const db::Row& row : rows) {
      const auto id = tx.insert(kJournalTable, row);
      if (!id.is_ok()) return id.status();
    }
    return Status::ok();
  });
  if (!s.is_ok()) {
    // A journaling fault must never take the control loop down with it;
    // recovery fidelity degrades to the hardware sweep.
    SHS_WARN(kTag) << "journal write failed: " << s.message();
  }
}

bool FabricManager::has_link_locked(SwitchId from, SwitchId to) const {
  return link_keys_.contains(FailureSet::link_key(from, to));
}

void FabricManager::sync_link_state_locked(SwitchId a, SwitchId b) {
  if (has_link_locked(a, b)) {
    (void)switches_[a]->set_uplink_state(
        b, failures_.link_dead(a, b) ? LinkState::kDown : LinkState::kUp);
  }
  if (has_link_locked(b, a)) {
    (void)switches_[b]->set_uplink_state(
        a, failures_.link_dead(b, a) ? LinkState::kDown : LinkState::kUp);
  }
}

Status FabricManager::fail_link(SwitchId a, SwitchId b) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (a >= switches_.size() || b >= switches_.size()) {
    return invalid_argument(strfmt("no such switch pair (%u, %u)", a, b));
  }
  const bool ab = has_link_locked(a, b);
  const bool ba = has_link_locked(b, a);
  if (!ab && !ba) {
    return not_found(strfmt("no link between switches %u and %u", a, b));
  }
  std::vector<db::Row> journal;
  bool newly_failed = false;
  if (ab && failures_.links.insert(FailureSet::link_key(a, b)).second) {
    newly_failed = true;
    journal.push_back(journal_row("link_down", a, b, 0));
  }
  if (ba && failures_.links.insert(FailureSet::link_key(b, a)).second) {
    newly_failed = true;
    journal.push_back(journal_row("link_down", b, a, 0));
  }
  if (!newly_failed) {
    // Re-failing a dead link must not republish (or double-count a
    // re-route event) — same contract as fail_switch.
    return already_exists(strfmt("link (%u, %u) is already failed", a, b));
  }
  sync_link_state_locked(a, b);
  repair_pending_ = true;
  SHS_INFO(kTag) << "link (" << a << ", " << b << ") FAILED";
  if (!crashed_) {
    // A crashed manager cannot observe the failure, let alone journal or
    // repair it — the restart hardware sweep picks it up.
    journal_rows_locked(journal);
    if (auto_repair_) repair_locked();
  }
  return Status::ok();
}

Status FabricManager::restore_link(SwitchId a, SwitchId b) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<db::Row> journal;
  bool erased = false;
  if (failures_.links.erase(FailureSet::link_key(a, b)) > 0) {
    erased = true;
    journal.push_back(journal_row("link_up", a, b, 0));
  }
  if (failures_.links.erase(FailureSet::link_key(b, a)) > 0) {
    erased = true;
    journal.push_back(journal_row("link_up", b, a, 0));
  }
  if (!erased) {
    return not_found(strfmt("link (%u, %u) is not failed", a, b));
  }
  sync_link_state_locked(a, b);
  repair_pending_ = true;
  SHS_INFO(kTag) << "link (" << a << ", " << b << ") restored";
  if (!crashed_) {
    journal_rows_locked(journal);
    if (auto_repair_) repair_locked();
  }
  return Status::ok();
}

Status FabricManager::fail_switch(SwitchId s) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (s >= switches_.size()) {
    return invalid_argument(strfmt("no such switch %u", s));
  }
  if (!failures_.switches.insert(s).second) {
    return already_exists(strfmt("switch %u is already failed", s));
  }
  switches_[s]->set_health(SwitchHealth::kFailed);
  // Both directions of every cable touching the dead switch go dark.
  for (const SwitchId peer : adjacent_[s]) {
    sync_link_state_locked(s, peer);
  }
  repair_pending_ = true;
  SHS_INFO(kTag) << "switch " << s << " FAILED";
  if (!crashed_) {
    journal_rows_locked({journal_row("switch_down", s, -1, 0)});
    if (auto_repair_) repair_locked();
  }
  return Status::ok();
}

Status FabricManager::restore_switch(SwitchId s) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (failures_.switches.erase(s) == 0) {
    return not_found(strfmt("switch %u is not failed", s));
  }
  switches_[s]->set_health(SwitchHealth::kHealthy);
  // Links touching s come back unless independently failed (or the far
  // end is itself dead) — sync_link_state_locked re-derives both ends.
  for (const SwitchId peer : adjacent_[s]) {
    sync_link_state_locked(s, peer);
  }
  repair_pending_ = true;
  SHS_INFO(kTag) << "switch " << s << " restored";
  if (!crashed_) {
    journal_rows_locked({journal_row("switch_up", s, -1, 0)});
    if (auto_repair_) repair_locked();
  }
  return Status::ok();
}

void FabricManager::set_auto_repair(bool on) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto_repair_ = on;
  if (on && repair_pending_) repair_locked();
}

std::uint64_t FabricManager::repair() {
  std::unique_lock<std::mutex> lock(mutex_);
  return repair_locked();
}

std::uint64_t FabricManager::repair_if_pending() {
  std::unique_lock<std::mutex> lock(mutex_);
  return repair_pending_ ? repair_locked() : version_;
}

std::uint64_t FabricManager::repair_locked() {
  if (crashed_) return version_;
  const std::uint64_t next_version = version_ + 1;
  if (crash_profile_.point == CrashPoint::kBeforeJournal) {
    enter_crash_locked();
    return version_;
  }
  journal_rows_locked({journal_row(
      "publish", 0, 0, static_cast<std::int64_t>(next_version))});
  if (crash_profile_.point == CrashPoint::kAfterJournal) {
    enter_crash_locked();
    return version_;
  }
  version_ = next_version;
  std::shared_ptr<TopologyPlan> plan = spare_plan_locked();
  base_->replan(failures_, version_, replan_scratch_, *plan);
  if (crash_profile_.point == CrashPoint::kBeforePublish) {
    enter_crash_locked();
    return version_;
  }
  publish_locked(std::move(plan), /*recovery=*/false);
  if (crashed_) return version_;  // kMidPublish fired inside
  ++replans_;
  repair_pending_ = false;
  SHS_INFO(kTag) << "published plan v" << version_ << " around "
                 << failures_.links.size() << " dead links, "
                 << failures_.switches.size() << " dead switches";
  if (crash_profile_.point == CrashPoint::kAfterPublish) {
    enter_crash_locked();
  }
  return version_;
}

void FabricManager::set_publish_stagger(const PublishStagger& s) {
  std::unique_lock<std::mutex> lock(mutex_);
  stagger_ = s;
}

void FabricManager::apply_next_publish_wave() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (crashed_ || pending_applies_.empty()) return;
  const SimDuration wave = pending_applies_.front().delay;
  std::size_t i = 0;
  while (i < pending_applies_.size() && pending_applies_[i].delay == wave) {
    apply_to_switch_locked(pending_applies_[i].sw);
    ++i;
  }
  pending_applies_.erase(pending_applies_.begin(),
                         pending_applies_.begin() + static_cast<long>(i));
  if (pending_applies_.empty()) {
    publish_pending_.store(false, std::memory_order_relaxed);
  }
}

void FabricManager::apply_publishes_older_than(SimDuration d,
                                               std::uint64_t gen) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (crashed_ || gen != publish_seq_) return;
  std::size_t i = 0;
  while (i < pending_applies_.size() && pending_applies_[i].delay <= d) {
    apply_to_switch_locked(pending_applies_[i].sw);
    ++i;
  }
  pending_applies_.erase(pending_applies_.begin(),
                         pending_applies_.begin() + static_cast<long>(i));
  if (pending_applies_.empty()) {
    publish_pending_.store(false, std::memory_order_relaxed);
  }
}

void FabricManager::apply_all_publishes() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (crashed_) return;
  for (const PendingApply& entry : pending_applies_) {
    apply_to_switch_locked(entry.sw);
  }
  pending_applies_.clear();
  publish_pending_.store(false, std::memory_order_relaxed);
}

std::size_t FabricManager::pending_publish_count() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return pending_applies_.size();
}

std::vector<SimDuration> FabricManager::pending_publish_delays() const {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<SimDuration> delays;
  for (const PendingApply& entry : pending_applies_) {
    if (delays.empty() || delays.back() != entry.delay) {
      delays.push_back(entry.delay);  // pending_applies_ is sorted
    }
  }
  return delays;
}

std::uint64_t FabricManager::publish_generation() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return publish_seq_;
}

std::uint64_t FabricManager::committed_epoch() const noexcept {
  return committed_epoch_cell_->load(std::memory_order_relaxed);
}

void FabricManager::attach_journal(db::Database& db) {
  std::unique_lock<std::mutex> lock(mutex_);
  journal_db_ = &db;
  if (!db.has_table(kJournalTable)) {
    (void)db.create_table({kJournalTable, {"op", "a", "b", "version"}});
  }
}

void FabricManager::arm_crash(const ControlPlaneFaultProfile& profile) {
  std::unique_lock<std::mutex> lock(mutex_);
  crash_profile_ = profile;
}

bool FabricManager::crashed() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return crashed_;
}

Status FabricManager::restart() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!crashed_) {
    return failed_precondition("fabric manager has not crashed");
  }
  // 1. The journal store may have gone down with us.
  if (journal_db_ != nullptr && journal_db_->crashed()) {
    const Status s = journal_db_->recover();
    if (!s.is_ok()) return s;
  }
  // 2. Replay the journal: reconstruct the failure timeline and the
  //    failure set as of the last publish intent.  Replans are
  //    deterministic (seeded BFS from the pristine plan), so recomputing
  //    the last published plan reproduces it byte for byte.
  FailureSet replayed;
  FailureSet published_failures;
  std::uint64_t last_version = 0;
  std::size_t publish_count = 0;
  const bool had_journal =
      journal_db_ != nullptr && journal_db_->has_table(kJournalTable);
  if (had_journal) {
    const auto rows = journal_db_->snapshot(kJournalTable);
    if (!rows.is_ok()) return rows.status();
    for (const auto& [id, row] : rows.value()) {
      const std::string& op = db::as_text(row[0]);
      if (op == "link_down") {
        replayed.links.insert(FailureSet::link_key(
            static_cast<SwitchId>(db::as_int(row[1])),
            static_cast<SwitchId>(db::as_int(row[2]))));
      } else if (op == "link_up") {
        replayed.links.erase(FailureSet::link_key(
            static_cast<SwitchId>(db::as_int(row[1])),
            static_cast<SwitchId>(db::as_int(row[2]))));
      } else if (op == "switch_down") {
        replayed.switches.insert(
            static_cast<SwitchId>(db::as_int(row[1])));
      } else if (op == "switch_up") {
        replayed.switches.erase(static_cast<SwitchId>(db::as_int(row[1])));
      } else if (op == "publish") {
        published_failures = replayed;
        last_version = static_cast<std::uint64_t>(db::as_int(row[3]));
        ++publish_count;
      }
    }
  } else {
    // No journal: the best available record of the published state is
    // the in-memory one (the process did not actually lose it — the
    // crash models the controller, not the host).
    published_failures = failures_;
    last_version = version_;
    publish_count = replans_;
  }
  failures_ = had_journal ? replayed : published_failures;
  // 3. Hardware sweep: the switches are the ground truth for anything
  //    that happened while the controller was down (or was lost to a
  //    journaling fault).  A link that is down without a journaled
  //    failure was failed while we were dead; a journaled failure whose
  //    link is up was restored.  One blind spot, by construction: a link
  //    independently failed while an endpoint switch was also failed is
  //    indistinguishable from the switch failure alone (link_dead covers
  //    both) — the journal, when attached, disambiguates it.
  std::vector<db::Row> sweep_delta;
  for (const auto& sw : switches_) {
    const SwitchId s = sw->id();
    const bool dead = sw->health() == SwitchHealth::kFailed;
    if (dead && failures_.switches.insert(s).second) {
      sweep_delta.push_back(journal_row("switch_down", s, -1, 0));
    } else if (!dead && failures_.switches.erase(s) > 0) {
      sweep_delta.push_back(journal_row("switch_up", s, -1, 0));
    }
  }
  for (const std::uint64_t key : link_keys_) {
    const SwitchId from = static_cast<SwitchId>(key >> 32);
    const SwitchId to = static_cast<SwitchId>(key & 0xffffffffu);
    const bool down = switches_[from]->uplink_state(to) == LinkState::kDown;
    if (down && !failures_.link_dead(from, to)) {
      failures_.links.insert(key);
      sweep_delta.push_back(journal_row("link_down", from, to, 0));
    } else if (!down && failures_.links.erase(key) > 0) {
      sweep_delta.push_back(journal_row("link_up", from, to, 0));
    }
  }
  // 4. Re-derive the published plan and complete any half-published
  //    swap: every switch converges on the last *committed* epoch.
  version_ = last_version;
  replans_ = publish_count;
  std::shared_ptr<TopologyPlan> plan = base_;
  if (last_version != 0) {
    plan = spare_plan_locked();
    base_->replan(published_failures, last_version, replan_scratch_, *plan);
  }
  crashed_ = false;
  crash_profile_ = ControlPlaneFaultProfile{};
  ++publish_seq_;  // scheduled waves from before the crash are stale
  publish_locked(std::move(plan), /*recovery=*/true);
  // 5. Journal the swept delta so a *second* crash/restart still
  //    recovers the full failure set from the journal alone.
  journal_rows_locked(sweep_delta);
  // With a journal, "is a repair outstanding" is derivable (events past
  // the last publish intent); without one, trust the pre-crash flag too.
  repair_pending_ = (!had_journal && repair_pending_) ||
                    failures_.links != published_failures.links ||
                    failures_.switches != published_failures.switches;
  ++recovered_publishes_;
  SHS_INFO(kTag) << "control plane restarted: plan v" << version_
                 << " republished, " << failures_.links.size()
                 << " dead links, " << failures_.switches.size()
                 << " dead switches, repair "
                 << (repair_pending_ ? "pending" : "not pending");
  return Status::ok();
}

std::size_t FabricManager::recovered_publishes() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return recovered_publishes_;
}

SwitchHealth FabricManager::switch_health(SwitchId s) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return failures_.switches.contains(s) ? SwitchHealth::kFailed
                                        : SwitchHealth::kHealthy;
}

bool FabricManager::link_up(SwitchId a, SwitchId b) const {
  std::unique_lock<std::mutex> lock(mutex_);
  // A cable that was never wired is not "up" — keep the observation API
  // consistent with fail_link, which rejects such pairs.
  if (!has_link_locked(a, b) && !has_link_locked(b, a)) return false;
  return !failures_.link_dead(a, b) && !failures_.link_dead(b, a);
}

std::shared_ptr<const TopologyPlan> FabricManager::plan() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return live_;
}

std::uint64_t FabricManager::plan_version() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return version_;
}

std::size_t FabricManager::replans() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return replans_;
}

bool FabricManager::repair_pending() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return repair_pending_;
}

std::size_t FabricManager::failed_link_count() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return failures_.links.size();
}

std::size_t FabricManager::failed_switch_count() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return failures_.switches.size();
}

}  // namespace shs::hsn
