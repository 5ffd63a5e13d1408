// micro_benchmarks.cpp — google-benchmark microbenchmarks of the hot
// paths behind the figures: packet routing, endpoint authentication, VNI
// acquisition, DB transactions, the fabric manager's replan, and an idle
// cluster's control-plane ticks.  These quantify the real (host) cost of
// the simulation substrate itself, and double as regression guards for
// the code paths the figure benches exercise millions of times.
#include <benchmark/benchmark.h>

#include "core/stack.hpp"
#include "core/vni_registry.hpp"
#include "cxi/driver.hpp"
#include "db/database.hpp"
#include "hsn/fabric.hpp"
#include "hsn/shard_engine.hpp"

namespace {

using namespace shs;

void BM_SwitchRoute(benchmark::State& state) {
  auto fabric = hsn::Fabric::create(2);
  (void)fabric->switch_for(0)->authorize_vni(0, 7);
  (void)fabric->switch_for(1)->authorize_vni(1, 7);
  auto ep0 = fabric->nic(0).alloc_endpoint(7, hsn::TrafficClass::kBestEffort);
  auto ep1 = fabric->nic(1).alloc_endpoint(7, hsn::TrafficClass::kBestEffort);
  SimTime vt = 0;
  for (auto _ : state) {
    auto r = fabric->nic(0).post_send(ep0.value(), 1, ep1.value(), 1,
                                      state.range(0), {}, vt);
    vt = r.value();
    // Drain so queues stay bounded.
    (void)fabric->nic(1).poll_rx(ep1.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchRoute)->Arg(8)->Arg(4096)->Arg(1 << 20);

void BM_SwitchRouteDragonflyUgal(benchmark::State& state) {
  // Multi-hop variant: a 256-node dragonfly under UGAL with enforcement
  // on — every send pays the adaptive routing decision plus up to three
  // inter-switch hops, so the flat-table data plane (compiled routing
  // tables, dense port/uplink vectors, counter slabs) dominates the
  // measurement instead of the single-switch edge case above.
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 8;
  topo.switches_per_group = 4;
  auto fabric = hsn::Fabric::create(256, {}, 0xf16, topo);
  const hsn::NicAddr src = 0;
  const hsn::NicAddr dst = 200;  // different group: local->global->local
  (void)fabric->switch_for(src)->authorize_vni(src, 7);
  (void)fabric->switch_for(dst)->authorize_vni(dst, 7);
  auto ep0 =
      fabric->nic(src).alloc_endpoint(7, hsn::TrafficClass::kBestEffort);
  auto ep1 =
      fabric->nic(dst).alloc_endpoint(7, hsn::TrafficClass::kBestEffort);
  SimTime vt = 0;
  for (auto _ : state) {
    auto r = fabric->nic(src).post_send(ep0.value(), dst, ep1.value(), 1,
                                        state.range(0), {}, vt);
    vt = r.value();
    (void)fabric->nic(dst).poll_rx(ep1.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchRouteDragonflyUgal)->Arg(8)->Arg(4096);

void BM_EndpointAuthNetns(benchmark::State& state) {
  linuxsim::Kernel kernel;
  auto fabric = hsn::Fabric::create(1);
  cxi::CxiDriver driver(kernel, fabric->nic(0), fabric->switch_for(0),
                        cxi::AuthMode::kNetnsExtended);
  auto root = kernel.spawn({});
  auto netns = kernel.create_net_namespace("bench");
  auto proc = kernel.spawn({.creds = {}, .net_ns = netns});
  cxi::CxiServiceDesc desc;
  desc.members = {{cxi::MemberType::kNetNs, netns->inode()}};
  desc.vnis = {77};
  const auto svc = driver.svc_alloc(root->pid(), desc).value();
  for (auto _ : state) {
    auto ep = driver.ep_alloc(proc->pid(), svc, 77,
                              hsn::TrafficClass::kBestEffort);
    benchmark::DoNotOptimize(ep);
    (void)driver.ep_free(proc->pid(), ep.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndpointAuthNetns);

void BM_EndpointAuthDenied(benchmark::State& state) {
  // The denial path (wrong netns) — the attack's cost profile.
  linuxsim::Kernel kernel;
  auto fabric = hsn::Fabric::create(1);
  cxi::CxiDriver driver(kernel, fabric->nic(0), fabric->switch_for(0),
                        cxi::AuthMode::kNetnsExtended);
  auto root = kernel.spawn({});
  auto netns = kernel.create_net_namespace("bench");
  auto outsider = kernel.spawn({});
  cxi::CxiServiceDesc desc;
  desc.members = {{cxi::MemberType::kNetNs, netns->inode()}};
  desc.vnis = {77};
  const auto svc = driver.svc_alloc(root->pid(), desc).value();
  for (auto _ : state) {
    auto ep = driver.ep_alloc(outsider->pid(), svc, 77,
                              hsn::TrafficClass::kBestEffort);
    benchmark::DoNotOptimize(ep);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndpointAuthDenied);

void BM_VniAcquireRelease(benchmark::State& state) {
  db::Database database;
  core::VniRegistry registry(database, {.vni_min = 1, .vni_max = 100'000,
                                        .quarantine = 0});
  SimTime now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string owner = "job/" + std::to_string(i++);
    auto vni = registry.acquire(owner, now);
    benchmark::DoNotOptimize(vni);
    (void)registry.release(owner, now);
    now += kSecond;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VniAcquireRelease);

void BM_DbTransactionInsert(benchmark::State& state) {
  db::Database database;
  (void)database.create_table({"t", {"a", "b"}});
  for (auto _ : state) {
    (void)database.with_transaction([&](db::Transaction& txn) {
      return txn.insert("t", {std::int64_t{1}, std::string("x")}).status();
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbTransactionInsert);

void BM_ShardEngineWindowFlush(benchmark::State& state) {
  // The batched window executor end-to-end at one inline thread: stage
  // a round of cross-group sends on a 64-node dragonfly, flush, drain.
  // Measures the per-packet cost of the run-queue sort/merge, slot
  // pools, and window barriers on top of the same switch/NIC work
  // BM_SwitchRouteDragonflyUgal prices synchronously.
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  hsn::TimingConfig timing;
  timing.jitter_amplitude = 0.0;
  timing.run_bias_amplitude = 0.0;
  const std::size_t nodes = 64;
  auto fabric = hsn::Fabric::create(nodes, timing, 0xbe9c, topo);
  fabric->set_enforcement(true);
  hsn::ShardEngine engine(*fabric, 1);
  std::vector<hsn::EndpointId> eps;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    (void)fabric->switch_for(addr)->authorize_vni(addr, 7);
    eps.push_back(fabric->nic(addr)
                      .alloc_endpoint(7, hsn::TrafficClass::kBulkData)
                      .value());
  }
  const std::size_t half = nodes / 2;
  std::uint64_t tag = 0;
  for (auto _ : state) {
    for (std::size_t s = 0; s < nodes; ++s) {
      const auto dst = static_cast<hsn::NicAddr>((s + half) % nodes);
      (void)engine.post_send(static_cast<hsn::NicAddr>(s), eps[s], dst,
                             eps[dst], tag, 2048, 0);
    }
    ++tag;
    engine.flush();
    for (std::size_t d = 0; d < nodes; ++d) {
      while (fabric->nic(static_cast<hsn::NicAddr>(d)).poll_rx(eps[d]).is_ok()) {
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ShardEngineWindowFlush);

void BM_FabricManagerRepair(benchmark::State& state) {
  // The fabric manager's replan-and-publish path on a dragonfly at 4 NICs
  // per switch and 4 switches per group (the tenant-churn benchmark's
  // fabric at 1024 nodes): fail a global link and repair, then restore it
  // and repair.  Each iteration is two repairs — a BFS replan around the
  // failure and a full restore — each published to every switch.
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  auto fabric = hsn::Fabric::create(
      static_cast<std::size_t>(state.range(0)), {}, 7919, topo);
  hsn::FabricManager& fm = fabric->manager();
  fm.set_auto_repair(false);
  // (1, 4) is the global link between groups 0 and 1.
  for (auto _ : state) {
    (void)fm.fail_link(1, 4);
    benchmark::DoNotOptimize(fm.repair());
    (void)fm.restore_link(1, 4);
    benchmark::DoNotOptimize(fm.repair());
  }
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(state.iterations()));
  // Routing state one published plan holds, per switch it routes.
  const auto plan = fm.plan();
  const std::size_t bytes =
      plan->next_hop.size() * sizeof(hsn::SwitchId) +
      plan->min_hops.size() * sizeof(std::int32_t) +
      plan->cand_begin.size() * sizeof(std::uint32_t) +
      plan->cand.size() * sizeof(hsn::SwitchId) +
      plan->group_of.size() * sizeof(hsn::SwitchId) +
      plan->links.size() * sizeof(hsn::TopologyPlan::PlannedLink);
  state.counters["switches"] = static_cast<double>(plan->switch_count);
  state.counters["plan_bytes_per_switch"] =
      static_cast<double>(bytes) / static_cast<double>(plan->switch_count);
}
BENCHMARK(BM_FabricManagerRepair)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_StackIdleSecond(benchmark::State& state) {
  // Host cost of one virtual second of an idle cluster on the
  // tenant-churn benchmark's dragonfly: the periodic controller ticks
  // and the kubelets' shared sync round, with no pod anywhere.  It
  // should not grow with the node count.
  core::StackConfig cfg;
  cfg.nodes = static_cast<std::size_t>(state.range(0));
  cfg.topology.kind = hsn::TopologyKind::kDragonfly;
  cfg.topology.routing = hsn::RoutingPolicy::kUgal;
  cfg.topology.nodes_per_switch = 4;
  cfg.topology.switches_per_group = 4;
  core::SlingshotStack stack(cfg);
  std::size_t events = 0;
  for (auto _ : state) events += stack.loop().run_for(kSecond);
  state.counters["events_per_vs"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_StackIdleSecond)
    ->Arg(2)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_RdmaWriteRoundTrip(benchmark::State& state) {
  auto fabric = hsn::Fabric::create(2);
  (void)fabric->switch_for(0)->authorize_vni(0, 7);
  (void)fabric->switch_for(1)->authorize_vni(1, 7);
  auto ep0 = fabric->nic(0).alloc_endpoint(7, hsn::TrafficClass::kBestEffort);
  auto ep1 = fabric->nic(1).alloc_endpoint(7, hsn::TrafficClass::kBestEffort);
  std::vector<std::byte> window(1 << 20);
  auto mr = fabric->nic(1).register_mr(ep1.value(), window);
  SimTime vt = 0;
  std::uint64_t op = 1;
  for (auto _ : state) {
    auto r = fabric->nic(0).rdma_write(ep0.value(), 1, mr.value(), 0,
                                       state.range(0), {}, vt, op++);
    vt = r.value();
    (void)fabric->nic(0).poll_event(ep0.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RdmaWriteRoundTrip)->Arg(4096)->Arg(1 << 20);

}  // namespace
