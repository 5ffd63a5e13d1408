// ofi_test.cpp — libfabric-style layer: tagged matching, unexpected
// queue, completion queue, RMA wrappers, and the auth plumb-through.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "cxi/driver.hpp"
#include "hsn/fabric.hpp"
#include "ofi/domain.hpp"

namespace shs::ofi {
namespace {

using cxi::AuthMode;
using cxi::CxiDriver;
using cxi::kDefaultVni;

struct OfiFixture : ::testing::Test {
  void SetUp() override {
    fabric = hsn::Fabric::create(2);
    drv0 = std::make_unique<CxiDriver>(kernel0, fabric->nic(0),
                                       fabric->switch_for(0),
                                       AuthMode::kNetnsExtended);
    drv1 = std::make_unique<CxiDriver>(kernel1, fabric->nic(1),
                                       fabric->switch_for(1),
                                       AuthMode::kNetnsExtended);
    pid0 = kernel0.spawn({})->pid();
    pid1 = kernel1.spawn({})->pid();
    dom0 = std::make_unique<Domain>(*drv0, fabric->nic(0), fabric->timing(),
                                    pid0);
    dom1 = std::make_unique<Domain>(*drv1, fabric->nic(1), fabric->timing(),
                                    pid1);
  }

  linuxsim::Kernel kernel0, kernel1;
  std::unique_ptr<hsn::Fabric> fabric;
  std::unique_ptr<CxiDriver> drv0, drv1;
  linuxsim::Pid pid0 = 0, pid1 = 0;
  std::unique_ptr<Domain> dom0, dom1;
};

TEST_F(OfiFixture, OpenEndpointOnDefaultVni) {
  auto ep = dom0->open_endpoint(kDefaultVni);
  ASSERT_TRUE(ep.is_ok());
  EXPECT_EQ(ep.value()->vni(), kDefaultVni);
  EXPECT_EQ(ep.value()->addr().nic, 0u);
}

TEST_F(OfiFixture, OpenEndpointUnauthorizedVniFails) {
  auto ep = dom0->open_endpoint(4242);
  EXPECT_EQ(ep.code(), Code::kPermissionDenied);
}

TEST_F(OfiFixture, TaggedSendRecvWithPayload) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();

  const char msg[] = "hello-slingshot";
  ASSERT_TRUE(e0->tsend(e1->addr(), /*tag=*/5,
                        std::as_bytes(std::span(msg)), sizeof(msg), /*vt=*/0)
                  .is_ok());
  std::array<std::byte, 64> buf{};
  auto r = e1->trecv_sync(5, buf);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().size, sizeof(msg));
  EXPECT_EQ(r.value().tag, 5u);
  EXPECT_EQ(std::memcmp(buf.data(), msg, sizeof(msg)), 0);
  EXPECT_GT(r.value().vt, 0);
}

TEST_F(OfiFixture, UnexpectedMessageMatchedLater) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  // Send two differently-tagged messages before any receive is posted.
  ASSERT_TRUE(e0->tsend(e1->addr(), 10, {}, 8, 0).is_ok());
  ASSERT_TRUE(e0->tsend(e1->addr(), 20, {}, 8, 0).is_ok());
  // Receive tag 20 first: tag 10 must be preserved as unexpected.
  auto r20 = e1->trecv_sync(20, {});
  ASSERT_TRUE(r20.is_ok());
  EXPECT_EQ(r20.value().tag, 20u);
  EXPECT_EQ(e1->unexpected_depth(), 1u);
  auto r10 = e1->trecv_sync(10, {});
  ASSERT_TRUE(r10.is_ok());
  EXPECT_EQ(r10.value().tag, 10u);
}

TEST_F(OfiFixture, WildcardReceive) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  ASSERT_TRUE(e0->tsend(e1->addr(), 1234, {}, 8, 0).is_ok());
  auto r = e1->trecv_sync(kTagAny, {});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().tag, 1234u);
}

TEST_F(OfiFixture, PostedRecvCompletesThroughCq) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  std::array<std::byte, 16> buf{};
  e1->post_trecv(7, buf, /*context=*/111);
  ASSERT_TRUE(e0->tsend(e1->addr(), 7, {}, 16, 0).is_ok());
  auto c = e1->cq_sread();
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value().kind, Completion::Kind::kRecv);
  EXPECT_EQ(c.value().context, 111u);
  EXPECT_EQ(c.value().size, 16u);
}

TEST_F(OfiFixture, SendCompletionOnlyWhenRequested) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  ASSERT_TRUE(e0->tsend(e1->addr(), 1, {}, 8, 0).is_ok());  // no context
  EXPECT_FALSE(e0->cq_read().has_value());
  ASSERT_TRUE(e0->tsend(e1->addr(), 1, {}, 8, 0, /*context=*/9).is_ok());
  auto c = e0->cq_read();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, Completion::Kind::kSend);
  EXPECT_EQ(c->context, 9u);
}

TEST_F(OfiFixture, RecvTimesOut) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  EXPECT_EQ(e0->trecv_sync(1, {}).code(), Code::kTimeout);
  EXPECT_EQ(e0->cq_sread().code(), Code::kTimeout);
}

TEST_F(OfiFixture, VirtualTimeAdvancesMonotonically) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  SimTime vt = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = e0->tsend(e1->addr(), 1, {}, 1024, vt);
    ASSERT_TRUE(r.is_ok());
    EXPECT_GT(r.value(), vt);
    vt = r.value();
  }
}

TEST_F(OfiFixture, RmaWriteSyncRoundTrip) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  std::vector<std::byte> window(128, std::byte{0});
  auto mr = e1->mr_reg(window);
  ASSERT_TRUE(mr.is_ok());

  const char data[] = "one-sided";
  auto t = e0->rma_write_sync(1, mr.value(), 16,
                              std::as_bytes(std::span(data)), sizeof(data),
                              0);
  ASSERT_TRUE(t.is_ok());
  EXPECT_GT(t.value(), 0);
  EXPECT_EQ(std::memcmp(window.data() + 16, data, sizeof(data)), 0);
  EXPECT_TRUE(e1->mr_close(mr.value()).is_ok());
}

TEST_F(OfiFixture, RmaReadSyncRoundTrip) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  std::vector<std::byte> window(64);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::byte>(i * 2);
  }
  auto mr = e1->mr_reg(window);
  std::vector<std::byte> out;
  auto t = e0->rma_read_sync(1, mr.value(), 10, 4, out, 0);
  ASSERT_TRUE(t.is_ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], std::byte{20});
  EXPECT_EQ(out[3], std::byte{26});
}

TEST_F(OfiFixture, AsyncRmaCompletesThroughCq) {
  // The post/completion model: posts return op ids immediately, the
  // completions surface later as Completion{op_id, status, vt} records
  // on the CQ — the sync wrappers above are shims over exactly this.
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  std::vector<std::byte> window(64);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<std::byte>(i);
  }
  auto mr = e1->mr_reg(window);
  ASSERT_TRUE(mr.is_ok());

  const char data[] = "async";
  auto wop = e0->post_rma_write(1, mr.value(), 32,
                                std::as_bytes(std::span(data)), sizeof(data),
                                0);
  ASSERT_TRUE(wop.is_ok());
  std::array<std::byte, 8> out{};
  auto rop = e0->post_rma_read(1, mr.value(), 4, 8, out, 0);
  ASSERT_TRUE(rop.is_ok());
  EXPECT_NE(wop.value(), rop.value());

  auto c1 = e0->cq_sread();
  ASSERT_TRUE(c1.is_ok());
  EXPECT_EQ(c1.value().kind, Completion::Kind::kRmaWrite);
  EXPECT_EQ(c1.value().op_id, wop.value());
  EXPECT_TRUE(c1.value().status.is_ok());
  EXPECT_GT(c1.value().vt, 0);

  auto c2 = e0->cq_sread();
  ASSERT_TRUE(c2.is_ok());
  EXPECT_EQ(c2.value().kind, Completion::Kind::kRmaRead);
  EXPECT_EQ(c2.value().op_id, rop.value());
  EXPECT_EQ(out[0], std::byte{4});   // read landed in the registered span
  EXPECT_EQ(out[7], std::byte{11});
  EXPECT_EQ(std::memcmp(window.data() + 32, data, sizeof(data)), 0);
}

TEST_F(OfiFixture, AsyncRmaDenialSurfacesAsErrorCompletion) {
  auto e0 = dom0->open_endpoint(kDefaultVni).value();
  auto e1 = dom1->open_endpoint(kDefaultVni).value();
  std::vector<std::byte> window(16);
  auto mr = e1->mr_reg(window);
  ASSERT_TRUE(mr.is_ok());
  // Out-of-bounds write: the target NACKs and the initiator's CQ gets a
  // terminal kError completion for the op — fail-fast, not silence.
  auto op = e0->post_rma_write(1, mr.value(), 12, {}, 8, 0);
  ASSERT_TRUE(op.is_ok());
  auto c = e0->cq_sread();
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value().kind, Completion::Kind::kError);
  EXPECT_EQ(c.value().op_id, op.value());
  EXPECT_EQ(c.value().status.code(), Code::kInvalidArgument);
}

TEST_F(OfiFixture, EndpointFreedOnDestruction) {
  {
    auto ep = dom0->open_endpoint(kDefaultVni).value();
    EXPECT_EQ(fabric->nic(0).endpoint_count(), 1u);
  }
  EXPECT_EQ(fabric->nic(0).endpoint_count(), 0u);
}

TEST_F(OfiFixture, AuthContextIsPerProcess) {
  // Two processes on the same node: one inside a netns admitted by a
  // service, one not.  The domain carries the process identity through
  // to the driver (the paper's libfabric patch).
  auto netns = kernel0.create_net_namespace("pod");
  auto inside = kernel0.spawn({.creds = {}, .net_ns = netns});
  cxi::CxiServiceDesc desc;
  desc.members = {{cxi::MemberType::kNetNs, netns->inode()}};
  desc.vnis = {999};
  ASSERT_TRUE(drv0->svc_alloc(pid0, desc).is_ok());

  Domain inside_dom(*drv0, fabric->nic(0), fabric->timing(), inside->pid());
  EXPECT_TRUE(inside_dom.open_endpoint(999).is_ok());
  // The host process (different netns) is rejected for VNI 999.
  EXPECT_EQ(dom0->open_endpoint(999).code(), Code::kPermissionDenied);
}

}  // namespace
}  // namespace shs::ofi
