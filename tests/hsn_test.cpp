// hsn_test.cpp — fabric model: switch VNI enforcement, NIC queues, RMA,
// and the timing model's bandwidth/latency behaviour.
#include <gtest/gtest.h>

#include <cstring>

#include "hsn/fabric.hpp"

namespace shs::hsn {
namespace {

/// Two-node fabric with both ports authorized for `vni`.
std::unique_ptr<Fabric> make_fabric(Vni vni = 100, std::size_t nodes = 2) {
  auto f = Fabric::create(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<NicAddr>(i);
    EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, vni).is_ok());
  }
  return f;
}

TEST(Switch, RoutesAuthorizedVni) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  ASSERT_TRUE(ep0.is_ok());
  ASSERT_TRUE(ep1.is_ok());

  auto t = f->nic(0).post_send(ep0.value(), 1, ep1.value(), /*tag=*/7,
                               /*size=*/64, {}, /*vt=*/0);
  ASSERT_TRUE(t.is_ok());
  auto pkt = f->nic(1).poll_rx(ep1.value());
  ASSERT_TRUE(pkt.is_ok());
  EXPECT_EQ(pkt.value().tag, 7u);
  EXPECT_EQ(pkt.value().size_bytes, 64u);
  EXPECT_GT(pkt.value().arrival_vt, 0);
  EXPECT_EQ(f->total_counters().delivered, 1u);
}

TEST(Switch, DropsWhenSrcUnauthorized) {
  auto f = Fabric::create(2);
  // Only the destination port is authorized.
  ASSERT_TRUE(f->switch_for(1)->authorize_vni(1, 100).is_ok());
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto t = f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0);
  EXPECT_EQ(t.code(), Code::kPermissionDenied);
  EXPECT_EQ(f->total_counters().dropped_src_unauthorized, 1u);
  EXPECT_EQ(f->total_counters().delivered, 0u);
}

TEST(Switch, DropsWhenDstUnauthorized) {
  auto f = Fabric::create(2);
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, 100).is_ok());
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto t = f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0);
  EXPECT_EQ(t.code(), Code::kPermissionDenied);
  EXPECT_EQ(f->total_counters().dropped_dst_unauthorized, 1u);
}

TEST(Switch, EnforcementOffRoutesEverything) {
  auto f = Fabric::create(2);
  f->set_enforcement(false);
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto t = f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0);
  EXPECT_TRUE(t.is_ok());
  EXPECT_TRUE(f->nic(1).poll_rx(ep1.value()).is_ok());
}

TEST(Switch, UnknownDestination) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto t = f->nic(0).post_send(ep0.value(), 55, 1, 1, 8, {}, 0);
  EXPECT_EQ(t.code(), Code::kNotFound);
  EXPECT_EQ(f->total_counters().dropped_unknown_dst, 1u);
}

TEST(Switch, PerVniCounters) {
  auto f = make_fabric(100);
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, 200).is_ok());
  ASSERT_TRUE(f->switch_for(1)->authorize_vni(1, 200).is_ok());
  auto a0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto a1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto b0 = f->nic(0).alloc_endpoint(200, TrafficClass::kBestEffort);
  auto b1 = f->nic(1).alloc_endpoint(200, TrafficClass::kBestEffort);
  (void)f->nic(0).post_send(a0.value(), 1, a1.value(), 1, 8, {}, 0);
  (void)f->nic(0).post_send(b0.value(), 1, b1.value(), 1, 8, {}, 0);
  (void)f->nic(0).post_send(b0.value(), 1, b1.value(), 1, 8, {}, 0);
  EXPECT_EQ(f->total_counters_for_vni(100).delivered, 1u);
  EXPECT_EQ(f->total_counters_for_vni(200).delivered, 2u);
}

TEST(Switch, RevokeStopsTraffic) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  ASSERT_TRUE(
      f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0).is_ok());
  ASSERT_TRUE(f->switch_for(1)->revoke_vni(1, 100).is_ok());
  EXPECT_EQ(f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0)
                .code(),
            Code::kPermissionDenied);
}

// -- NIC-level behaviour. ---------------------------------------------------

TEST(Nic, VniZeroIsReserved) {
  auto f = make_fabric();
  EXPECT_EQ(f->nic(0).alloc_endpoint(0, TrafficClass::kBestEffort).code(),
            Code::kInvalidArgument);
}

TEST(Nic, EndpointLimitEnforced) {
  auto timing = TimingConfig{};
  auto f = Fabric::create(1, timing);
  NicLimits limits;
  limits.max_endpoints = 4;
  // A standalone NIC wired straight to the switch (no Fabric::inject):
  // the unit-test form of the injection callback.
  CassiniNic nic(
      10,
      [sw = f->switch_for(0)](Packet&& p) { return sw->route(std::move(p)); },
      f->timing(), limits);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(nic.alloc_endpoint(1, TrafficClass::kBestEffort).is_ok());
  }
  EXPECT_EQ(nic.alloc_endpoint(1, TrafficClass::kBestEffort).code(),
            Code::kResourceExhausted);
}

TEST(Switch, CallbackDeliveryAndDisconnect) {
  // The generic DeliveryFn port path (custom rigs; Fabric-owned NICs
  // use the direct CassiniNic wiring instead) delivers and disconnects.
  auto f = Fabric::create(2);
  auto sw = f->switch_for(0);
  std::vector<Packet> got;
  ASSERT_TRUE(
      sw->connect(10, [&](Packet&& p) { got.push_back(std::move(p)); })
          .is_ok());
  ASSERT_TRUE(sw->authorize_vni(0, 300).is_ok());
  ASSERT_TRUE(sw->authorize_vni(10, 300).is_ok());
  Packet p;
  p.src = 0;
  p.dst = 10;
  p.vni = 300;
  p.size_bytes = 8;
  EXPECT_TRUE(sw->route(std::move(p)).delivered);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, 10u);

  ASSERT_TRUE(sw->disconnect(10).is_ok());
  Packet q;
  q.src = 0;
  q.dst = 10;
  q.vni = 300;
  q.size_bytes = 8;
  const RouteResult rr = sw->route(std::move(q));
  EXPECT_FALSE(rr.delivered);
  EXPECT_EQ(rr.reason, DropReason::kUnknownDestination);

  // Absurd addresses are rejected instead of materializing port slots.
  EXPECT_EQ(sw->connect(0xfffffff0u, [](Packet&&) {}).code(),
            Code::kInvalidArgument);
}

TEST(Nic, FreedEndpointStopsReceiving) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  ASSERT_TRUE(f->nic(1).free_endpoint(ep1.value()).is_ok());
  // The switch still routes (port authorized), but the NIC drops.
  ASSERT_TRUE(
      f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0).is_ok());
  EXPECT_EQ(f->nic(1).counters().rx_unknown_ep, 1u);
}

TEST(Nic, VniMismatchDroppedAtNic) {
  // Both ports authorized for both VNIs; the receiving *endpoint* is
  // bound to a different VNI -> the NIC itself refuses the packet.
  auto f = make_fabric(100);
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, 200).is_ok());
  ASSERT_TRUE(f->switch_for(1)->authorize_vni(1, 200).is_ok());
  auto attacker = f->nic(0).alloc_endpoint(200, TrafficClass::kBestEffort);
  auto victim = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  ASSERT_TRUE(f->nic(0)
                  .post_send(attacker.value(), 1, victim.value(), 1, 8, {}, 0)
                  .is_ok());
  EXPECT_EQ(f->nic(1).counters().rx_vni_mismatch, 1u);
  EXPECT_EQ(f->nic(1).poll_rx(victim.value()).code(), Code::kUnavailable);
}

TEST(Nic, PayloadTravels) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  const char msg[] = "slingshot";
  auto bytes = std::as_bytes(std::span(msg));
  ASSERT_TRUE(f->nic(0)
                  .post_send(ep0.value(), 1, ep1.value(), 1, sizeof(msg),
                             bytes, 0)
                  .is_ok());
  auto pkt = f->nic(1).poll_rx(ep1.value());
  ASSERT_TRUE(pkt.is_ok());
  ASSERT_EQ(pkt.value().payload.size(), sizeof(msg));
  EXPECT_EQ(std::memcmp(pkt.value().payload.data(), msg, sizeof(msg)), 0);
}

TEST(Nic, PollRxOnEmptyQueueIsUnavailable) {
  auto f = make_fabric();
  auto ep = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  EXPECT_EQ(f->nic(0).poll_rx(ep.value()).code(), Code::kUnavailable);
}

// -- RMA. --------------------------------------------------------------------

TEST(Rma, WriteReachesRegisteredMemory) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> target(64, std::byte{0});
  auto mr = f->nic(1).register_mr(ep1.value(), target);
  ASSERT_TRUE(mr.is_ok());

  const char data[] = "rdma-write";
  ASSERT_TRUE(f->nic(0)
                  .rdma_write(ep0.value(), 1, mr.value(), /*offset=*/8,
                              sizeof(data), std::as_bytes(std::span(data)),
                              0, /*op_id=*/42)
                  .is_ok());
  auto ev = f->nic(0).poll_event(ep0.value());
  ASSERT_TRUE(ev.is_ok());
  EXPECT_EQ(ev.value().type, Event::Type::kRdmaWriteComplete);
  EXPECT_EQ(ev.value().op_id, 42u);
  EXPECT_EQ(std::memcmp(target.data() + 8, data, sizeof(data)), 0);
}

TEST(Rma, ReadReturnsData) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> source(32);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = static_cast<std::byte>(i);
  }
  auto mr = f->nic(1).register_mr(ep1.value(), source);
  ASSERT_TRUE(f->nic(0)
                  .rdma_read(ep0.value(), 1, mr.value(), 4, 8, 0, 7)
                  .is_ok());
  auto ev = f->nic(0).poll_event(ep0.value());
  ASSERT_TRUE(ev.is_ok());
  EXPECT_EQ(ev.value().type, Event::Type::kRdmaReadComplete);
  ASSERT_EQ(ev.value().data.size(), 8u);
  EXPECT_EQ(ev.value().data[0], std::byte{4});
  EXPECT_EQ(ev.value().data[7], std::byte{11});
}

TEST(Rma, WrongVniMrIsDenied) {
  auto f = make_fabric(100);
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, 200).is_ok());
  ASSERT_TRUE(f->switch_for(1)->authorize_vni(1, 200).is_ok());
  auto attacker = f->nic(0).alloc_endpoint(200, TrafficClass::kBestEffort);
  auto victim = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> target(64);
  auto mr = f->nic(1).register_mr(victim.value(), target);
  // The write rides VNI 200 but the MR belongs to VNI 100: denied, and
  // the target's NACK surfaces a terminal permission error — never an
  // ACK, never silence.
  ASSERT_TRUE(f->nic(0)
                  .rdma_write(attacker.value(), 1, mr.value(), 0, 8, {}, 0, 9)
                  .is_ok());
  EXPECT_EQ(f->nic(1).counters().rma_denied, 1u);
  auto ev = f->nic(0).poll_event(attacker.value());
  ASSERT_TRUE(ev.is_ok());
  EXPECT_EQ(ev.value().type, Event::Type::kError);
  EXPECT_EQ(ev.value().status.code(), Code::kPermissionDenied);
  EXPECT_EQ(ev.value().op_id, 9u);
}

TEST(Rma, OutOfBoundsDenied) {
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> target(16);
  auto mr = f->nic(1).register_mr(ep1.value(), target);
  ASSERT_TRUE(f->nic(0)
                  .rdma_write(ep0.value(), 1, mr.value(), 12, 8, {}, 0, 1)
                  .is_ok());
  EXPECT_EQ(f->nic(1).counters().rma_denied, 1u);
}

TEST(Rma, MrDiesWithEndpoint) {
  auto f = make_fabric();
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> target(16);
  ASSERT_TRUE(f->nic(1).register_mr(ep1.value(), target).is_ok());
  EXPECT_EQ(f->nic(1).mr_count(), 1u);
  ASSERT_TRUE(f->nic(1).free_endpoint(ep1.value()).is_ok());
  EXPECT_EQ(f->nic(1).mr_count(), 0u);
}

// -- Timing model. -----------------------------------------------------------

TEST(Timing, SerializeTimeScalesWithSize) {
  TimingModel tm({});
  EXPECT_LT(tm.serialize_time(64), tm.serialize_time(4096));
  EXPECT_LT(tm.serialize_time(4096), tm.serialize_time(1 << 20));
  // 1 MiB at 200 Gbps ~= 42 us (plus per-frame headers).
  EXPECT_NEAR(to_micros(tm.serialize_time(1 << 20)), 42.3, 1.0);
}

TEST(Timing, LargeTransfersApproachLineRate) {
  // Send a window of 1 MiB messages back-to-back; arrival spacing must
  // approach the serialization time (i.e. ~line rate), not the tx
  // overhead.
  auto f = make_fabric();
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  SimTime vt = 0;
  for (int i = 0; i < 8; ++i) {
    auto r = f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 1 << 20, {},
                                 vt);
    ASSERT_TRUE(r.is_ok());
    vt = r.value();
  }
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 8; ++i) {
    auto p = f->nic(1).poll_rx(ep1.value());
    ASSERT_TRUE(p.is_ok());
    arrivals.push_back(p.value().arrival_vt);
  }
  const double spacing_us =
      to_micros(arrivals.back() - arrivals.front()) / 7.0;
  EXPECT_NEAR(spacing_us, 42.3, 3.0);  // line-rate bound
}

TEST(Timing, TrafficClassPenaltyOrdering) {
  TimingModel tm(TimingConfig{.jitter_amplitude = 0.0});
  EXPECT_LT(tm.tc_penalty(TrafficClass::kDedicatedAccess),
            tm.tc_penalty(TrafficClass::kBestEffort));
  EXPECT_LT(tm.tc_penalty(TrafficClass::kLowLatency),
            tm.tc_penalty(TrafficClass::kBulkData));
}

// -- RX-ring backpressure. --------------------------------------------------

TEST(Nic, RxOverflowIsCountedTailDrop) {
  auto f = Fabric::create(1);
  NicLimits limits;
  limits.max_rx_queue_packets = 4;
  CassiniNic rx_nic(
      10,
      [sw = f->switch_for(0)](Packet&& p) { return sw->route(std::move(p)); },
      f->timing(), limits);
  ASSERT_TRUE(f->switch_for(0)->connect(10, rx_nic).is_ok());
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, 100).is_ok());
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(10, 100).is_ok());
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = rx_nic.alloc_endpoint(100, TrafficClass::kBestEffort);

  // The undrained receiver fills at 4; the overflow packets are
  // tail-dropped and *counted* — never a silent loss, and never a
  // destroyed packet the receiver had already accepted.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        f->nic(0).post_send(ep0.value(), 10, ep1.value(), i, 8, {}, 0)
            .is_ok());
  }
  EXPECT_EQ(rx_nic.counters().rx_overflow, 2u);
  EXPECT_EQ(rx_nic.counters().rx_packets, 4u);
  // The oldest data survived (tail drop, not head drop).
  auto first = rx_nic.poll_rx(ep1.value());
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().tag, 0u);
  // Draining restores acceptance.
  (void)rx_nic.drain_rx(ep1.value());
  ASSERT_TRUE(
      f->nic(0).post_send(ep0.value(), 10, ep1.value(), 9, 8, {}, 0)
          .is_ok());
  EXPECT_EQ(rx_nic.counters().rx_overflow, 2u);
}

// -- NIC-level reliable delivery. -------------------------------------------

TEST(Nic, ReliabilityRetransmitsThroughLoss) {
  auto f = make_fabric();
  FaultProfile lossy;
  lossy.drop_rate = 0.3;
  f->set_fault_profile(lossy);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  SimTime vt = 0;
  const int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    auto r = f->nic(0).post_send(ep0.value(), 1, ep1.value(), i, 64, {}, vt);
    ASSERT_TRUE(r.is_ok()) << r.status().message();
    vt = r.value();
  }
  // Every send completed despite 30% per-delivery loss; the receiver
  // holds exactly one copy of each.
  EXPECT_EQ(f->nic(1).counters().rx_packets, unsigned(kSends));
  const ReliabilityCounters rc = f->reliability_totals();
  EXPECT_GT(rc.retransmits, 0u);
  EXPECT_GT(rc.recovered, 0u);
  EXPECT_EQ(rc.budget_exhausted, 0u);
  EXPECT_GT(f->total_counters().dropped_loss, 0u);
}

TEST(Nic, ReliabilityAckLossYieldsSuppressedDuplicates) {
  auto f = make_fabric();
  FaultProfile p;
  p.ack_loss_rate = 0.5;
  f->set_fault_profile(p);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  SimTime vt = 0;
  const int kSends = 100;
  for (int i = 0; i < kSends; ++i) {
    auto r = f->nic(0).post_send(ep0.value(), 1, ep1.value(), i, 64, {}, vt);
    ASSERT_TRUE(r.is_ok());
    vt = r.value();
  }
  // ACK loss means the data arrived but the sender retransmitted — the
  // receiver must see each packet exactly once.
  EXPECT_EQ(f->nic(1).counters().rx_packets, unsigned(kSends));
  const ReliabilityCounters rc = f->reliability_totals();
  EXPECT_GT(rc.duplicates, 0u);
  EXPECT_GT(f->total_counters().ack_lost, 0u);
  // ack_lost is not a drop: the fabric delivered every wire copy it
  // admitted.
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);
}

TEST(Nic, ReliabilityBudgetExhaustsIntoStatusNotHang) {
  auto f = make_fabric();
  FaultProfile dead;
  dead.drop_rate = 1.0;
  f->set_fault_profile(dead);
  ReliabilityConfig rel;
  rel.enabled = true;
  rel.max_retries = 3;
  f->set_reliability(rel);

  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto r = f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 64, {}, 0,
                               /*op_id=*/77);
  EXPECT_EQ(r.code(), Code::kUnavailable);
  const ReliabilityCounters rc = f->reliability_totals();
  EXPECT_EQ(rc.retransmits, 3u);  // the configured budget, no more
  EXPECT_EQ(rc.budget_exhausted, 1u);
  // Graceful degradation: a kError completion carries the same status.
  auto e = f->nic(0).poll_event(ep0.value());
  ASSERT_TRUE(e.is_ok());
  EXPECT_EQ(e.value().type, Event::Type::kError);
  EXPECT_EQ(e.value().status.code(), Code::kUnavailable);
  EXPECT_EQ(e.value().op_id, 77u);
}

TEST(Nic, ReliabilityFailsFastOnNonTransientReasons) {
  auto f = Fabric::create(2);
  ASSERT_TRUE(f->switch_for(0)->authorize_vni(0, 100).is_ok());
  // Destination port never authorized: a retransmit cannot cure an
  // isolation violation, so no budget may be spent on it.
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto r = f->nic(0).post_send(ep0.value(), 1, ep1.value(), 1, 8, {}, 0);
  EXPECT_EQ(r.code(), Code::kPermissionDenied);
  EXPECT_EQ(f->reliability_totals().retransmits, 0u);
}

TEST(Nic, ReliableRdmaWriteCompletesUnderAckLoss) {
  auto f = make_fabric();
  FaultProfile p;
  p.ack_loss_rate = 0.4;
  f->set_fault_profile(p);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> target(256);
  auto mr = f->nic(1).register_mr(ep1.value(), target);
  ASSERT_TRUE(mr.is_ok());
  std::vector<std::byte> data(256, std::byte{0xAB});

  for (int i = 0; i < 50; ++i) {
    auto r = f->nic(0).rdma_write(ep0.value(), 1, mr.value(), 0, 256, data,
                                  0, /*op_id=*/100 + i);
    ASSERT_TRUE(r.is_ok());
    auto e = f->nic(0).poll_event(ep0.value());
    ASSERT_TRUE(e.is_ok());
    EXPECT_EQ(e.value().type, Event::Type::kRdmaWriteComplete);
    EXPECT_EQ(e.value().op_id, unsigned(100 + i));
  }
  EXPECT_EQ(std::memcmp(target.data(), data.data(), 256), 0);
}

TEST(Nic, DeniedRmaFailsFastEvenWithReliabilityOn) {
  // A denied one-sided op must surface a *terminal* completion with a
  // permanent status — the NACK is not a transient fault, so the
  // retransmit protocol must not burn budget retrying it, and the
  // initiator must never be left waiting in silence.
  auto f = make_fabric(100);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);
  auto ep0 = f->nic(0).alloc_endpoint(100, TrafficClass::kBestEffort);
  auto ep1 = f->nic(1).alloc_endpoint(100, TrafficClass::kBestEffort);
  std::vector<std::byte> target(16);
  auto mr = f->nic(1).register_mr(ep1.value(), target);
  ASSERT_TRUE(mr.is_ok());

  // Write past the end of the MR: denied at the target.
  ASSERT_TRUE(f->nic(0)
                  .rdma_write(ep0.value(), 1, mr.value(), 12, 8, {}, 0,
                              /*op_id=*/31)
                  .is_ok());
  auto e = f->nic(0).poll_event(ep0.value());
  ASSERT_TRUE(e.is_ok());
  EXPECT_EQ(e.value().type, Event::Type::kError);
  EXPECT_EQ(e.value().status.code(), Code::kInvalidArgument);
  EXPECT_EQ(e.value().op_id, 31u);

  // Read against an rkey that was never registered: same contract.
  ASSERT_TRUE(f->nic(0)
                  .rdma_read(ep0.value(), 1, mr.value() + 999, 0, 8, 0,
                             /*op_id=*/32)
                  .is_ok());
  e = f->nic(0).poll_event(ep0.value());
  ASSERT_TRUE(e.is_ok());
  EXPECT_EQ(e.value().type, Event::Type::kError);
  EXPECT_EQ(e.value().status.code(), Code::kNotFound);
  EXPECT_EQ(e.value().op_id, 32u);

  EXPECT_EQ(f->nic(1).counters().rma_denied, 2u);
  // Fail-fast: neither the denied requests nor their NACKs spent any
  // retransmit budget on a healthy fabric.
  EXPECT_EQ(f->reliability_totals().retransmits, 0u);
}

}  // namespace
}  // namespace shs::hsn
