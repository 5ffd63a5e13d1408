#include "core/vni_registry.hpp"

#include <algorithm>
#include <bit>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::core {

namespace {
constexpr const char* kTag = "vni-db";
constexpr const char* kAllocTable = "vni_alloc";
constexpr const char* kUsersTable = "vni_users";
constexpr const char* kAuditTable = "audit_log";

// vni_alloc columns.
constexpr std::size_t kColVni = 0;
constexpr std::size_t kColOwner = 1;
constexpr std::size_t kColState = 2;      // "allocated" | "quarantine"
constexpr std::size_t kColAcquired = 3;
constexpr std::size_t kColReleased = 4;

// vni_users columns.
constexpr std::size_t kUColVni = 0;
constexpr std::size_t kUColUser = 1;
}  // namespace

VniRegistry::VniRegistry(db::Database& database, VniRegistryConfig config)
    : db_(database), config_(config) {
  (void)db_.create_table(
      {kAllocTable, {"vni", "owner", "state", "acquired_at", "released_at"}});
  (void)db_.create_table({kUsersTable, {"vni", "user"}});
  (void)db_.create_table({kAuditTable, {"ts", "op", "vni", "detail"}});
}

void VniRegistry::audit(db::Transaction& txn, SimTime now,
                        const std::string& op, hsn::Vni vni,
                        const std::string& detail) {
  (void)txn.insert(kAuditTable,
                   {static_cast<std::int64_t>(now), op,
                    static_cast<std::int64_t>(vni), detail});
}

void VniRegistry::set_free(hsn::Vni vni, bool free) {
  if (vni < config_.vni_min || vni > config_.vni_max) return;
  const hsn::Vni i = vni - config_.vni_min;
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  free_[i / 64] = free ? free_[i / 64] | bit : free_[i / 64] & ~bit;
}

Status VniRegistry::rebuild_index_locked() {
  if (db_.crashed()) {
    // snapshot() would serve the half-applied mid-crash tables; trusting
    // them would let a post-recovery acquire double-allocate a VNI the
    // journal preserved.  Stay stale until recover() has replayed it.
    return failed_precondition("VNI database crashed; recover() first");
  }
  auto rows = db_.snapshot(kAllocTable);
  if (!rows.is_ok()) return rows.status();
  const std::size_t span = config_.vni_max - config_.vni_min + 1;
  free_.assign((span + 63) / 64, ~std::uint64_t{0});
  free_.back() >>= (64 - span % 64) % 64;  // no bits past vni_max
  owners_.clear();
  quarantined_.clear();
  expiry_.clear();
  for (const auto& [id, row] : rows.value()) {
    const auto vni = static_cast<hsn::Vni>(db::as_int(row[kColVni]));
    set_free(vni, false);
    if (db::as_text(row[kColState]) == "allocated") {
      owners_.emplace(db::as_text(row[kColOwner]), AllocEntry{vni, id});
    } else {
      const SimTime released = db::as_int(row[kColReleased]);
      quarantined_.emplace(vni, QuarantineEntry{released, id});
      expiry_.emplace(released, vni);
    }
  }
  index_stale_ = false;
  return Status::ok();
}

Result<hsn::Vni> VniRegistry::acquire(const std::string& owner, SimTime now) {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_stale_) {
    SHS_RETURN_IF_ERROR(rebuild_index_locked());
  }

  // Idempotent re-acquisition by the same owner (the /sync hook may fire
  // for both create and update events).
  if (const auto it = owners_.find(owner); it != owners_.end()) {
    return it->second.vni;
  }

  // Quarantined VNIs whose window expired become candidates again; their
  // rows are garbage-collected inside the grant transaction, exactly as
  // the scan-based implementation did.
  std::vector<std::pair<hsn::Vni, db::RowId>> expired;
  for (auto it = expiry_.begin();
       it != expiry_.end() && now - it->first >= config_.quarantine; ++it) {
    expired.emplace_back(it->second, quarantined_.at(it->second).row);
  }

  // Lowest acquirable VNI: the lowest free bit or an expired quarantined
  // VNI below it, matching the scan's lowest-free-wins order.
  hsn::Vni granted = hsn::kInvalidVni;
  for (std::size_t w = 0; w < free_.size(); ++w) {
    if (free_[w] == 0) continue;
    granted = config_.vni_min + 64 * w + std::countr_zero(free_[w]);
    break;
  }
  for (const auto& [vni, row] : expired) {
    if (granted == hsn::kInvalidVni || vni < granted) granted = vni;
  }
  if (granted == hsn::kInvalidVni) {
    // Exhausted: like the scan path, nothing commits (the expired-row GC
    // rolls back with the failed transaction, i.e. never starts).
    return Result<hsn::Vni>(resource_exhausted("VNI pool exhausted"));
  }

  db::RowId granted_row = 0;
  const Status st = db_.with_transaction([&](db::Transaction& txn) -> Status {
    for (const auto& [vni, row] : expired) {
      SHS_RETURN_IF_ERROR(txn.erase(kAllocTable, row));
    }
    auto ins = txn.insert(
        kAllocTable,
        {static_cast<std::int64_t>(granted), owner, std::string("allocated"),
         static_cast<std::int64_t>(now), std::int64_t{0}});
    if (!ins.is_ok()) return ins.status();
    granted_row = ins.value();
    audit(txn, now, "acquire", granted, owner);
    return Status::ok();
  });
  if (!st.is_ok()) {
    // The commit may or may not have journaled before failing (injected
    // crash): rebuild from the recovered tables before trusting the
    // index again.
    index_stale_ = true;
    return Result<hsn::Vni>(st);
  }

  // Commit landed: apply the same changes to the index.
  for (const auto& [vni, row] : expired) {
    quarantined_.erase(vni);
    if (vni != granted) set_free(vni, true);
  }
  if (!expired.empty()) {
    expiry_.erase(expiry_.begin(),
                  expiry_.upper_bound(now - config_.quarantine));
  }
  set_free(granted, false);
  owners_.emplace(owner, AllocEntry{granted, granted_row});
  return granted;
}

Status VniRegistry::release(const std::string& owner, SimTime now) {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_stale_) {
    SHS_RETURN_IF_ERROR(rebuild_index_locked());
  }
  const auto owner_it = owners_.find(owner);
  if (owner_it == owners_.end()) {
    // Idempotent: releasing something already released/absent is OK —
    // /finalize may run repeatedly.
    return Status::ok();
  }
  const hsn::Vni vni = owner_it->second.vni;
  const db::RowId row_id = owner_it->second.row;

  const Status st = db_.with_transaction([&](db::Transaction& txn) -> Status {
    auto row = txn.get(kAllocTable, row_id);
    if (!row.is_ok()) return row.status();
    db::Row updated = row.value();
    updated[kColState] = std::string("quarantine");
    updated[kColReleased] = static_cast<std::int64_t>(now);
    SHS_RETURN_IF_ERROR(txn.update(kAllocTable, row_id, updated));
    // Any leftover user entries die with the allocation.
    auto users_rows = txn.scan(kUsersTable, [&](const db::Row& u) {
      return static_cast<hsn::Vni>(db::as_int(u[kUColVni])) == vni;
    });
    if (users_rows.is_ok()) {
      for (const auto& [uid, urow] : users_rows.value()) {
        SHS_RETURN_IF_ERROR(txn.erase(kUsersTable, uid));
      }
    }
    audit(txn, now, "release", vni, owner);
    return Status::ok();
  });
  if (!st.is_ok()) {
    index_stale_ = true;
    return st;
  }
  owners_.erase(owner_it);
  quarantined_.emplace(vni, QuarantineEntry{now, row_id});
  expiry_.emplace(now, vni);
  return Status::ok();
}

Result<hsn::Vni> VniRegistry::find_by_owner(const std::string& owner) const {
  auto rows = db_.snapshot(kAllocTable, [&](const db::Row& row) {
    return db::as_text(row[kColOwner]) == owner &&
           db::as_text(row[kColState]) == "allocated";
  });
  if (!rows.is_ok()) return Result<hsn::Vni>(rows.status());
  if (rows.value().empty()) {
    return Result<hsn::Vni>(not_found("no VNI for owner " + owner));
  }
  return static_cast<hsn::Vni>(db::as_int(rows.value().front().second[kColVni]));
}

Status VniRegistry::add_user(hsn::Vni vni, const std::string& user,
                             SimTime now) {
  return db_.with_transaction([&](db::Transaction& txn) -> Status {
    // The VNI must be a live allocation.
    auto alloc = txn.scan(kAllocTable, [&](const db::Row& row) {
      return static_cast<hsn::Vni>(db::as_int(row[kColVni])) == vni &&
             db::as_text(row[kColState]) == "allocated";
    });
    if (!alloc.is_ok()) return alloc.status();
    if (alloc.value().empty()) {
      return failed_precondition(strfmt("VNI %u is not allocated", vni));
    }
    auto existing = txn.scan(kUsersTable, [&](const db::Row& row) {
      return static_cast<hsn::Vni>(db::as_int(row[kUColVni])) == vni &&
             db::as_text(row[kUColUser]) == user;
    });
    if (!existing.is_ok()) return existing.status();
    if (!existing.value().empty()) return Status::ok();  // idempotent
    auto ins = txn.insert(kUsersTable,
                          {static_cast<std::int64_t>(vni), user});
    if (!ins.is_ok()) return ins.status();
    audit(txn, now, "add_user", vni, user);
    return Status::ok();
  });
}

Status VniRegistry::remove_user(hsn::Vni vni, const std::string& user,
                                SimTime now) {
  return db_.with_transaction([&](db::Transaction& txn) -> Status {
    auto existing = txn.scan(kUsersTable, [&](const db::Row& row) {
      return static_cast<hsn::Vni>(db::as_int(row[kUColVni])) == vni &&
             db::as_text(row[kUColUser]) == user;
    });
    if (!existing.is_ok()) return existing.status();
    for (const auto& [id, row] : existing.value()) {
      SHS_RETURN_IF_ERROR(txn.erase(kUsersTable, id));
    }
    if (!existing.value().empty()) {
      audit(txn, now, "remove_user", vni, user);
    }
    return Status::ok();
  });
}

std::vector<std::string> VniRegistry::users(hsn::Vni vni) const {
  std::vector<std::string> out;
  auto rows = db_.snapshot(kUsersTable, [&](const db::Row& row) {
    return static_cast<hsn::Vni>(db::as_int(row[kUColVni])) == vni;
  });
  if (rows.is_ok()) {
    for (const auto& [id, row] : rows.value()) {
      out.push_back(db::as_text(row[kUColUser]));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t VniRegistry::allocated_count() const {
  auto rows = db_.snapshot(kAllocTable, [](const db::Row& row) {
    return db::as_text(row[kColState]) == "allocated";
  });
  return rows.is_ok() ? rows.value().size() : 0;
}

std::size_t VniRegistry::quarantined_count(SimTime now) const {
  auto rows = db_.snapshot(kAllocTable, [&](const db::Row& row) {
    return db::as_text(row[kColState]) == "quarantine" &&
           now - db::as_int(row[kColReleased]) < config_.quarantine;
  });
  return rows.is_ok() ? rows.value().size() : 0;
}

std::vector<VniAuditRecord> VniRegistry::audit_log() const {
  std::vector<VniAuditRecord> out;
  auto rows = db_.snapshot(kAuditTable);
  if (rows.is_ok()) {
    for (const auto& [id, row] : rows.value()) {
      out.push_back(VniAuditRecord{
          db::as_int(row[0]), db::as_text(row[1]),
          static_cast<hsn::Vni>(db::as_int(row[2])), db::as_text(row[3])});
    }
  }
  return out;
}

}  // namespace shs::core
