// traffic_class_test.cpp — per-class priority scheduling on the fabric:
// bulk traffic must not be able to stall higher-priority traffic by more
// than one frame, at the NIC injection stage and at the switch egress.
// This backs the paper's use-case 1 (latency-critical app co-scheduled
// with checkpointing).
#include <gtest/gtest.h>

#include "hsn/fabric.hpp"

namespace shs::hsn {
namespace {

struct TcFixture : ::testing::Test {
  void SetUp() override {
    fabric = Fabric::create(2);
    for (NicAddr p = 0; p < 2; ++p) {
      ASSERT_TRUE(fabric->switch_for(p)->authorize_vni(p, 9).is_ok());
    }
    ll_src = fabric->nic(0).alloc_endpoint(9, TrafficClass::kLowLatency)
                 .value();
    ll_dst = fabric->nic(1).alloc_endpoint(9, TrafficClass::kLowLatency)
                 .value();
    bulk_src = fabric->nic(0).alloc_endpoint(9, TrafficClass::kBulkData)
                   .value();
    bulk_dst = fabric->nic(1).alloc_endpoint(9, TrafficClass::kBulkData)
                   .value();
  }

  SimTime send_and_arrival(EndpointId src, EndpointId dst,
                           std::uint64_t size, SimTime vt) {
    auto r = fabric->nic(0).post_send(src, 1, dst, 1, size, {}, vt);
    EXPECT_TRUE(r.is_ok());
    auto pkt = fabric->nic(1).poll_rx(dst);
    EXPECT_TRUE(pkt.is_ok());
    return pkt.value().arrival_vt;
  }

  std::unique_ptr<Fabric> fabric;
  EndpointId ll_src = 0, ll_dst = 0, bulk_src = 0, bulk_dst = 0;
};

TEST_F(TcFixture, LowLatencyUnaffectedByIdleFabric) {
  const SimTime t = send_and_arrival(ll_src, ll_dst, 64, 0);
  // tx overhead + hop latency + tiny serialization: ~1.2 us.
  EXPECT_LT(t, from_micros(2.0));
}

TEST_F(TcFixture, BulkBacklogDelaysLowLatencyByAtMostOneFrame) {
  // Saturate the link with large bulk messages.
  SimTime bulk_vt = 0;
  for (int i = 0; i < 16; ++i) {
    auto r = fabric->nic(0).post_send(bulk_src, 1, bulk_dst, 1, 1 << 20, {},
                                      bulk_vt);
    ASSERT_TRUE(r.is_ok());
    bulk_vt = r.value();
  }
  // A low-latency message posted "now" (vt 0) must not wait for the ~670
  // us of queued bulk serialization — at most ~1 frame (~0.17 us) per
  // stage plus base costs.
  const SimTime t = send_and_arrival(ll_src, ll_dst, 64, 0);
  EXPECT_LT(t, from_micros(4.0))
      << "low-latency traffic must preempt bulk at frame granularity";
}

TEST_F(TcFixture, BulkWaitsBehindItsOwnClass) {
  SimTime bulk_vt = 0;
  for (int i = 0; i < 8; ++i) {
    auto r = fabric->nic(0).post_send(bulk_src, 1, bulk_dst, 1, 1 << 20, {},
                                      bulk_vt);
    ASSERT_TRUE(r.is_ok());
    bulk_vt = r.value();
  }
  // The 8th bulk message arrives after ~8 serializations (~340 us).
  SimTime last = 0;
  for (int i = 0; i < 8; ++i) {
    auto pkt = fabric->nic(1).poll_rx(bulk_dst);
    ASSERT_TRUE(pkt.is_ok());
    last = std::max(last, pkt.value().arrival_vt);
  }
  EXPECT_GT(last, from_micros(300.0));
}

TEST_F(TcFixture, HigherPriorityClassDelaysBulk) {
  // Queue low-latency traffic first; bulk posted at the same virtual
  // time must wait behind it (priority order), plus its own class queue.
  SimTime ll_vt = 0;
  for (int i = 0; i < 4; ++i) {
    auto r = fabric->nic(0).post_send(ll_src, 1, ll_dst, 1, 1 << 20, {},
                                      ll_vt);
    ASSERT_TRUE(r.is_ok());
    ll_vt = r.value();
  }
  auto bulk = fabric->nic(0).post_send(bulk_src, 1, bulk_dst, 1, 4096, {},
                                       0);
  ASSERT_TRUE(bulk.is_ok());
  auto pkt = fabric->nic(1).poll_rx(bulk_dst);
  ASSERT_TRUE(pkt.is_ok());
  // Four 1 MiB messages serialize ~170 us; the bulk packet of a LOWER
  // priority class cannot jump that queue.
  EXPECT_GT(pkt.value().arrival_vt, from_micros(150.0));
}

TEST_F(TcFixture, DedicatedAccessOutranksEverything) {
  auto da_src = fabric->nic(0)
                    .alloc_endpoint(9, TrafficClass::kDedicatedAccess)
                    .value();
  auto da_dst = fabric->nic(1)
                    .alloc_endpoint(9, TrafficClass::kDedicatedAccess)
                    .value();
  SimTime vt = 0;
  for (int i = 0; i < 8; ++i) {
    auto r = fabric->nic(0).post_send(ll_src, 1, ll_dst, 1, 1 << 20, {}, vt);
    ASSERT_TRUE(r.is_ok());
    vt = r.value();
  }
  const SimTime t = send_and_arrival(da_src, da_dst, 64, 0);
  EXPECT_LT(t, from_micros(4.0));
}

}  // namespace
}  // namespace shs::hsn
