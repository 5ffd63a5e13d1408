// mpi_osu_test.cpp — mini-MPI semantics and OSU workload sanity: the
// bandwidth curve must saturate near 200 Gbps and latency must sit in the
// ~2 us regime for small messages (the shapes behind Figs 5 and 7).
#include <gtest/gtest.h>

#include <cstring>

#include "cxi/driver.hpp"
#include "hsn/fabric.hpp"
#include "mpi/comm.hpp"
#include "ofi/domain.hpp"
#include "osu/osu.hpp"

namespace shs {
namespace {

using cxi::kDefaultVni;

/// Two hosts, default service, one endpoint per rank.
struct MpiFixture : ::testing::Test {
  void SetUp() override {
    fabric = hsn::Fabric::create(2);
    for (int i = 0; i < 2; ++i) {
      kernels.push_back(std::make_unique<linuxsim::Kernel>());
      drivers.push_back(std::make_unique<cxi::CxiDriver>(
          *kernels[i], fabric->nic(i),
          fabric->switch_for(static_cast<hsn::NicAddr>(i)),
          cxi::AuthMode::kNetnsExtended));
      pids.push_back(kernels[i]->spawn({})->pid());
      domains.push_back(std::make_unique<ofi::Domain>(
          *drivers[i], fabric->nic(i), fabric->timing(), pids[i]));
      auto ep = domains[i]->open_endpoint(kDefaultVni);
      ASSERT_TRUE(ep.is_ok());
      endpoints.push_back(std::move(ep).value());
    }
    comm = mpi::Communicator::create({endpoints[0].get(),
                                      endpoints[1].get()});
  }

  std::unique_ptr<hsn::Fabric> fabric;
  std::vector<std::unique_ptr<linuxsim::Kernel>> kernels;
  std::vector<std::unique_ptr<cxi::CxiDriver>> drivers;
  std::vector<linuxsim::Pid> pids;
  std::vector<std::unique_ptr<ofi::Domain>> domains;
  std::vector<std::unique_ptr<ofi::Endpoint>> endpoints;
  std::unique_ptr<mpi::Communicator> comm;
};

TEST_F(MpiFixture, SendRecvWithPayload) {
  const char msg[] = "mpi-hello";
  std::array<std::byte, 32> buf{};
  ASSERT_TRUE(comm->rank(0)
                  .send(1, 7, std::as_bytes(std::span(msg)), sizeof(msg))
                  .is_ok());
  auto r = comm->rank(1).recv(0, 7, buf);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().size, sizeof(msg));
  EXPECT_EQ(std::memcmp(buf.data(), msg, sizeof(msg)), 0);
}

TEST_F(MpiFixture, SourceMatchingSeparatesSenders) {
  // Rank 1 receives specifically from rank 0 even if tags collide across
  // sources (wire tags encode the source rank).
  ASSERT_TRUE(comm->rank(0).send(1, 5, {}, 16).is_ok());
  auto r = comm->rank(1).recv(0, 5, {});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().source, 0);
}

TEST_F(MpiFixture, BadRankRejected) {
  EXPECT_EQ(comm->rank(0).send(5, 1, {}, 8).code(), Code::kInvalidArgument);
  EXPECT_EQ(comm->rank(0).recv(-1, 1, {}).code(), Code::kInvalidArgument);
}

TEST_F(MpiFixture, VirtualClockMergesOnRecv) {
  ASSERT_TRUE(comm->rank(0).send(1, 1, {}, 4096).is_ok());
  auto r = comm->rank(1).recv(0, 1, {});
  ASSERT_TRUE(r.is_ok());
  // After receiving, rank 1's clock includes the wire time.
  EXPECT_GT(comm->rank(1).vt(), from_micros(1));
}

// -- OSU workloads. -----------------------------------------------------------

TEST_F(MpiFixture, OsuBwSmallMessagesOverheadBound) {
  osu::BwOptions opts;
  opts.iterations = 100;
  opts.window = 16;
  auto bw = osu::run_osu_bw(*comm, 1, opts);
  ASSERT_TRUE(bw.is_ok());
  // ~1 B / ~0.3 us => a few MB/s.
  EXPECT_GT(bw.value(), 0.5);
  EXPECT_LT(bw.value(), 50.0);
}

TEST_F(MpiFixture, OsuBwLargeMessagesSaturateLineRate) {
  osu::BwOptions opts;
  opts.iterations = 40;
  opts.window = 16;
  auto bw = osu::run_osu_bw(*comm, 1 << 20, opts);
  ASSERT_TRUE(bw.is_ok());
  // 200 Gbps = 25'000 MB/s; expect within ~15 %.
  EXPECT_GT(bw.value(), 20'000.0);
  EXPECT_LT(bw.value(), 26'000.0);
}

TEST_F(MpiFixture, OsuBwMonotonicOverSizes) {
  osu::BwOptions opts;
  opts.iterations = 50;
  opts.window = 8;
  double prev = 0.0;
  for (std::uint64_t size : {1ULL << 4, 1ULL << 10, 1ULL << 16, 1ULL << 20}) {
    auto bw = osu::run_osu_bw(*comm, size, opts);
    ASSERT_TRUE(bw.is_ok());
    EXPECT_GT(bw.value(), prev) << "throughput must grow with size";
    prev = bw.value();
  }
}

TEST_F(MpiFixture, OsuLatencySmallMessagesFewMicroseconds) {
  osu::LatencyOptions opts;
  opts.iterations = 200;
  auto lat = osu::run_osu_latency(*comm, 1, opts);
  ASSERT_TRUE(lat.is_ok());
  EXPECT_GT(lat.value(), 1.0);
  EXPECT_LT(lat.value(), 4.0);  // Slingshot-class small-message latency
}

TEST_F(MpiFixture, OsuLatencyGrowsWithSize) {
  osu::LatencyOptions opts;
  opts.iterations = 100;
  auto small = osu::run_osu_latency(*comm, 1, opts);
  auto large = osu::run_osu_latency(*comm, 1 << 20, opts);
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  EXPECT_GT(large.value(), small.value() * 5.0);
  // 1 MiB one-way ~= small-message latency + ~42 us serialization.
  EXPECT_NEAR(large.value(), small.value() + 42.3, 6.0);
}

TEST_F(MpiFixture, OsuRequiresTwoRanks) {
  auto solo = mpi::Communicator::create({endpoints[0].get()});
  EXPECT_EQ(osu::run_osu_bw(*solo, 1, {}).code(), Code::kInvalidArgument);
  EXPECT_EQ(osu::run_osu_latency(*solo, 1, {}).code(),
            Code::kInvalidArgument);
}

}  // namespace
}  // namespace shs
