// property_test.cpp — parameterized property sweeps (TEST_P) over the
// stack's invariants: VNI exclusivity under arbitrary acquire/release
// interleavings, switch isolation over random traffic matrices, timing
// monotonicity, and DB atomicity under random crash points.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/vni_registry.hpp"
#include "db/database.hpp"
#include "hsn/fabric.hpp"
#include "util/rng.hpp"

namespace shs {
namespace {

// ---------------------------------------------------------------------------
// Property: for any interleaving of acquire/release, (a) an allocated VNI
// is never double-granted, and (b) a released VNI is never re-granted
// within the quarantine window.

struct VniChurnCase {
  std::uint64_t seed;
  int steps;
};

class VniChurnProperty : public ::testing::TestWithParam<VniChurnCase> {};

TEST_P(VniChurnProperty, ExclusivityAndQuarantineHold) {
  const auto param = GetParam();
  Rng rng(param.seed);
  db::Database database;
  core::VniRegistryConfig cfg{.vni_min = 1, .vni_max = 40,
                              .quarantine = 30 * kSecond};
  core::VniRegistry reg(database, cfg);

  std::map<std::string, hsn::Vni> held;              // owner -> vni
  std::map<hsn::Vni, SimTime> released_at;           // vni -> release time
  SimTime now = 0;
  int next_owner = 0;

  for (int step = 0; step < param.steps; ++step) {
    now += static_cast<SimTime>(rng.uniform_u64(5 * kSecond));
    const bool do_acquire = held.empty() || rng.uniform() < 0.55;
    if (do_acquire) {
      const std::string owner = "own-" + std::to_string(next_owner++);
      auto vni = reg.acquire(owner, now);
      if (!vni.is_ok()) {
        ASSERT_EQ(vni.code(), Code::kResourceExhausted);
        continue;
      }
      // (a) No double grant among currently-held VNIs.
      for (const auto& [o, v] : held) {
        ASSERT_NE(v, vni.value()) << "VNI " << v << " double-granted";
      }
      // (b) Quarantine respected.
      const auto it = released_at.find(vni.value());
      if (it != released_at.end()) {
        ASSERT_GE(now - it->second, cfg.quarantine)
            << "VNI re-granted inside the quarantine window";
        released_at.erase(it);
      }
      held.emplace(owner, vni.value());
    } else {
      auto pick = held.begin();
      std::advance(pick,
                   static_cast<long>(rng.uniform_u64(held.size())));
      ASSERT_TRUE(reg.release(pick->first, now).is_ok());
      released_at[pick->second] = now;
      held.erase(pick);
    }
  }
  // Registry and model agree on the allocation count.
  EXPECT_EQ(reg.allocated_count(), held.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VniChurnProperty,
    ::testing::Values(VniChurnCase{1, 200}, VniChurnCase{2, 200},
                      VniChurnCase{3, 400}, VniChurnCase{5, 400},
                      VniChurnCase{8, 600}, VniChurnCase{13, 600},
                      VniChurnCase{21, 800}, VniChurnCase{34, 1000}));

// ---------------------------------------------------------------------------
// Property: for any random assignment of VNIs to ports and any random
// traffic matrix, the switch delivers a packet iff BOTH ports hold the
// packet's VNI; cross-VNI delivery count is always zero.

class SwitchIsolationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SwitchIsolationProperty, DeliveryIffBothPortsAuthorized) {
  Rng rng(GetParam());
  constexpr std::size_t kNodes = 4;
  constexpr hsn::Vni kVnis[] = {10, 20, 30};
  auto fabric = hsn::Fabric::create(kNodes);

  // Random ACLs.
  std::set<std::pair<hsn::NicAddr, hsn::Vni>> acl;
  for (std::size_t port = 0; port < kNodes; ++port) {
    for (const hsn::Vni vni : kVnis) {
      if (rng.uniform() < 0.5) {
        const auto addr = static_cast<hsn::NicAddr>(port);
        ASSERT_TRUE(fabric->switch_for(addr)->authorize_vni(addr, vni)
                        .is_ok());
        acl.insert({static_cast<hsn::NicAddr>(port), vni});
      }
    }
  }
  // One endpoint per (node, vni).
  std::map<std::pair<std::size_t, hsn::Vni>, hsn::EndpointId> eps;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (const hsn::Vni vni : kVnis) {
      auto ep = fabric->nic(n).alloc_endpoint(
          vni, hsn::TrafficClass::kBestEffort);
      ASSERT_TRUE(ep.is_ok());
      eps[{n, vni}] = ep.value();
    }
  }

  // Random traffic matrix.
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_u64(kNodes));
    auto dst = static_cast<std::size_t>(rng.uniform_u64(kNodes));
    if (dst == src) dst = (dst + 1) % kNodes;
    const hsn::Vni vni = kVnis[rng.uniform_u64(3)];
    const bool should_deliver =
        acl.contains({static_cast<hsn::NicAddr>(src), vni}) &&
        acl.contains({static_cast<hsn::NicAddr>(dst), vni});
    auto r = fabric->nic(src).post_send(
        eps[{src, vni}], static_cast<hsn::NicAddr>(dst), eps[{dst, vni}],
        /*tag=*/static_cast<std::uint64_t>(i), 64, {}, 0);
    EXPECT_EQ(r.is_ok(), should_deliver)
        << "src=" << src << " dst=" << dst << " vni=" << vni;
    if (should_deliver) {
      auto pkt = fabric->nic(dst).poll_rx(eps[{dst, vni}]);
      ASSERT_TRUE(pkt.is_ok());
      EXPECT_EQ(pkt.value().vni, vni);
    }
  }
  // No NIC ever saw a packet for a foreign VNI.
  for (std::size_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(fabric->nic(n).counters().rx_vni_mismatch, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SwitchIsolationProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Property: wire time is monotone in message size and superadditive-free:
// t(a) <= t(b) for a <= b, and jitter stays within the configured bounds.

class TimingMonotoneProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimingMonotoneProperty, SerializeTimeMonotone) {
  hsn::TimingModel tm({});
  std::uint64_t prev_size = 0;
  SimDuration prev_time = 0;
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t size = rng.uniform_u64(1 << 22);
    const SimDuration t = tm.serialize_time(size);
    if (size >= prev_size) {
      // monotone within jitter-free serialize_time
      EXPECT_GE(t + 1, prev_time * (size >= prev_size ? 1 : 0));
    }
    prev_size = size;
    prev_time = t;
    EXPECT_GE(t, 0);
  }
}

TEST_P(TimingMonotoneProperty, JitterStaysBounded) {
  hsn::TimingConfig cfg;
  cfg.jitter_amplitude = 0.01;
  cfg.run_bias_amplitude = 0.0;  // isolate per-sample jitter
  hsn::TimingModel tm(cfg, GetParam());
  for (int i = 0; i < 2000; ++i) {
    const SimDuration d = tm.jittered(kMicrosecond);
    EXPECT_GE(d, from_micros(0.99) - 1);
    EXPECT_LE(d, from_micros(1.01) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimingMonotoneProperty,
                         ::testing::Values(7, 14, 21, 28));

// ---------------------------------------------------------------------------
// Property: whatever the crash point, recovery restores exactly the set of
// journaled commits (atomicity + durability).

class CrashRecoveryProperty : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryProperty, RecoveryMatchesJournal) {
  const int crash_after = GetParam();
  db::Database database;
  ASSERT_TRUE(database.create_table({"t", {"n"}}).is_ok());
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    if (i == crash_after) database.crash_on_commit();
    auto txn = database.begin();
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(txn->insert("t", {std::int64_t{i * 3 + k}}).is_ok());
    }
    const Status st = txn->commit();
    if (i == crash_after) {
      ASSERT_FALSE(st.is_ok());
      break;
    }
    ASSERT_TRUE(st.is_ok());
    ++committed;
  }
  ASSERT_TRUE(database.recover().is_ok());
  // Every journaled commit (including the crashed one — it journaled
  // before applying) is fully present: multiples of 3 rows.
  EXPECT_EQ(database.row_count("t"),
            static_cast<std::size_t>((committed + 1) * 3));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashRecoveryProperty,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 9));

}  // namespace
}  // namespace shs
