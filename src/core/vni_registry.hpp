// vni_registry.hpp — the VNI Database schema and operations (Section
// III-C2).
//
// Stores the cluster-wide ground truth of VNI assignments in the embedded
// ACID store:
//   * `vni_alloc`  — one row per allocated or quarantined VNI
//     (vni, owner, state, acquired_at, released_at);
//   * `vni_users`  — claim-redemption bookkeeping (vni, user);
//   * `audit_log`  — every allocation/release/user change, as the paper
//     requires ("we keep a log for all VNI allocation and release
//     requests, as well as VNI user addition and removal requests").
//
// Every multi-step operation (check-then-insert acquisition, release,
// user add/remove) executes inside a single serializable transaction, so
// two concurrent acquisitions can never hand out the same VNI — the
// TOCTOU hazard the paper eliminates via SQLite's ACID properties.
//
// Released VNIs sit in *quarantine* for `quarantine` (default 30 s of
// virtual time) before becoming acquirable again: a straggling pod whose
// job died may hold a CXI service for up to the 30 s grace period, and a
// quarantined VNI must never be re-issued within that window.
//
// Hot path: the registry keeps an in-memory index over `vni_alloc` — a
// bitmap of acquirable VNIs, an owner -> allocation map, and a
// quarantine expiry queue — so an acquisition costs O(log n) instead of
// a full table scan per request.  The database stays the ground truth:
// index updates apply only after a successful commit, and any failed
// transaction (including an injected crash) marks the index stale so it
// is rebuilt from the recovered tables on next use.  Journal-recovery
// semantics are therefore identical to the scan-based implementation.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.hpp"
#include "hsn/types.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace shs::core {

struct VniRegistryConfig {
  hsn::Vni vni_min = 1024;
  hsn::Vni vni_max = 65'535;
  SimDuration quarantine = 30 * kSecond;
};

struct VniAuditRecord {
  SimTime ts = 0;
  std::string op;
  hsn::Vni vni = hsn::kInvalidVni;
  std::string detail;
};

class VniRegistry {
 public:
  /// Creates the schema in `database` (tables must not already exist).
  VniRegistry(db::Database& database, VniRegistryConfig config = {});

  /// Atomically acquires a free VNI for `owner`.  Quarantined VNIs whose
  /// window has expired are garbage-collected in the same transaction.
  Result<hsn::Vni> acquire(const std::string& owner, SimTime now);

  /// Releases the VNI owned by `owner` into quarantine.
  Status release(const std::string& owner, SimTime now);

  /// The VNI currently allocated to `owner`.
  Result<hsn::Vni> find_by_owner(const std::string& owner) const;

  /// Adds `user` to `vni` (idempotent).
  Status add_user(hsn::Vni vni, const std::string& user, SimTime now);
  /// Removes `user` from `vni` (idempotent: removing an absent user is
  /// OK, because /finalize can be called more than once).
  Status remove_user(hsn::Vni vni, const std::string& user, SimTime now);
  [[nodiscard]] std::vector<std::string> users(hsn::Vni vni) const;

  // -- Introspection.
  [[nodiscard]] std::size_t allocated_count() const;
  [[nodiscard]] std::size_t quarantined_count(SimTime now) const;
  [[nodiscard]] std::vector<VniAuditRecord> audit_log() const;
  [[nodiscard]] const VniRegistryConfig& config() const noexcept {
    return config_;
  }

 private:
  void audit(db::Transaction& txn, SimTime now, const std::string& op,
             hsn::Vni vni, const std::string& detail);

  /// One live `vni_alloc` row, as the index tracks it.
  struct AllocEntry {
    hsn::Vni vni = hsn::kInvalidVni;
    db::RowId row = 0;
  };
  struct QuarantineEntry {
    SimTime released = 0;
    db::RowId row = 0;
  };

  /// Rebuilds the in-memory index from a table snapshot.  Caller holds
  /// index_mutex_.
  Status rebuild_index_locked();

  db::Database& db_;
  VniRegistryConfig config_;

  /// Guards the index (acquire/release may race from test threads; the
  /// database itself is already serialized).
  mutable std::mutex index_mutex_;
  /// True until the first rebuild and again after any failed commit —
  /// the crash-recovery hook that keeps the index honest.
  bool index_stale_ = true;
  /// VNIs acquirable right now (allocated and in-window quarantined ones
  /// excluded): bit i is vni_min + i.  Acquisition grants the lowest.
  std::vector<std::uint64_t> free_;
  void set_free(hsn::Vni vni, bool free);
  std::unordered_map<std::string, AllocEntry> owners_;
  std::unordered_map<hsn::Vni, QuarantineEntry> quarantined_;
  /// Quarantine expiry queue (released_at -> vni) so GC pops only what
  /// actually expired.
  std::multimap<SimTime, hsn::Vni> expiry_;
};

}  // namespace shs::core
