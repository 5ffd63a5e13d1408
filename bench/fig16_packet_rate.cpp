// fig16_packet_rate.cpp — wall-clock packet rate of the simulated data
// plane itself (not the modeled hardware): how many packets per second
// of *host* time the fabric can route, check, and deliver.
//
// Scenario (the headline configuration of docs/performance.md): a
// 256-node dragonfly (8 nodes/switch, 4 switches/group -> 8 groups, 32
// switches) under UGAL adaptive routing with VNI enforcement ON — the
// most expensive per-packet configuration the simulator supports: every
// packet takes the edge VNI checks, the UGAL minimal-vs-Valiant delay
// comparison, and 1-3 inter-switch hops.  A static-minimal series runs
// alongside for context.
//
// The traffic pattern is a half-shift permutation (src -> src + N/2),
// so most flows cross groups and exercise gateway links; receivers are
// drained every round so queues stay bounded.
//
// Output: CSV rows `fig16,<series>,<packets>,<wall_s>,<pps>` plus a
// JSON artifact (--json[=path], default BENCH_fig16.json) recording
// packets/sec per series — the number the CI bench-smoke trajectory
// tracks.  The run fails (non-zero exit) if any packet was dropped:
// with every port authorized, enforcement must be overhead, not loss.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "hsn/fabric.hpp"
#include "hsn/shard_engine.hpp"

namespace {

using namespace shs;

constexpr hsn::Vni kTenantVni = 4242;
constexpr std::uint64_t kPacketBytes = 2048;

struct SeriesResult {
  std::string name;
  std::uint64_t packets = 0;
  double wall_s = 0;
  double pps = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
};

SeriesResult run_series(hsn::RoutingPolicy policy, std::size_t nodes,
                        int rounds, std::uint64_t seed) {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = policy;
  topo.nodes_per_switch = 8;
  topo.switches_per_group = 4;

  // Deterministic timing (no jitter, no run bias): the bench measures
  // the data plane's wall-clock cost, and per-seed results — delivery
  // times, counters — stay bit-identical run to run.
  hsn::TimingConfig timing;
  timing.jitter_amplitude = 0.0;
  timing.run_bias_amplitude = 0.0;

  auto fabric = hsn::Fabric::create(nodes, timing, seed, topo);
  fabric->set_enforcement(true);

  // Pre-resolve NICs and endpoints: the loop below measures the data
  // plane, not repeated bounds-checked accessor lookups.
  std::vector<hsn::EndpointId> eps;
  std::vector<hsn::CassiniNic*> nics;
  eps.reserve(nodes);
  nics.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    if (!fabric->switch_for(addr)->authorize_vni(addr, kTenantVni).is_ok()) {
      std::fprintf(stderr, "authorize_vni failed for NIC %zu\n", i);
      std::exit(2);
    }
    nics.push_back(&fabric->nic(addr));
    auto ep = nics.back()->alloc_endpoint(kTenantVni,
                                          hsn::TrafficClass::kBulkData);
    if (!ep.is_ok()) std::exit(2);
    eps.push_back(ep.value());
  }

  // Half-shift permutation, destinations precomputed once — the timed
  // loop should measure packet routing, not address arithmetic.
  const std::size_t half = nodes / 2;
  std::vector<hsn::NicAddr> dst_of(nodes);
  for (std::size_t s = 0; s < nodes; ++s) {
    dst_of[s] = static_cast<hsn::NicAddr>((s + half) % nodes);
  }
  const auto pump_round = [&](std::uint64_t tag) {
    for (std::size_t s = 0; s < nodes; ++s) {
      const hsn::NicAddr dst = dst_of[s];
      (void)nics[s]->post_send(eps[s], dst, eps[dst], tag, kPacketBytes, {},
                               0);
    }
  };
  // Bulk CQ drain: one lock per queue, no per-packet move.
  const auto drain = [&] {
    for (std::size_t d = 0; d < nodes; ++d) {
      (void)nics[d]->drain_rx(eps[d]);
    }
  };

  // Warm up allocators, routing tables, and per-VNI counters before the
  // timed region, so the measurement sees the steady state.
  for (int k = 0; k < 8; ++k) pump_round(static_cast<std::uint64_t>(k));
  drain();
  const hsn::SwitchCounters warm = fabric->total_counters();

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < rounds; ++k) {
    pump_round(1000 + static_cast<std::uint64_t>(k));
    if ((k & 7) == 7) drain();  // keep RX queues short and cache-hot
  }
  drain();
  const auto t1 = std::chrono::steady_clock::now();

  const hsn::SwitchCounters totals = fabric->total_counters();
  SeriesResult r;
  r.name = std::string(hsn::routing_policy_name(policy));
  r.packets = static_cast<std::uint64_t>(rounds) * nodes;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.pps = r.wall_s > 0 ? static_cast<double>(r.packets) / r.wall_s : 0;
  r.delivered = totals.delivered - warm.delivered;
  r.dropped = totals.dropped_total() - warm.dropped_total();
  r.forwarded = totals.forwarded - warm.forwarded;
  return r;
}

// Sharded data-plane series: the same 256-node UGAL scenario driven
// through hsn::ShardEngine at a given worker-thread count.  Posts are
// batched (32 rounds per flush) so each conservative window carries
// enough work to amortize its barrier.  Per-seed results are identical
// across thread counts (that's the engine's contract — see
// sim_determinism_test), so the threads axis measures pure wall-clock
// scaling of one fixed schedule.
SeriesResult run_sharded_series(int threads, std::size_t nodes, int rounds,
                                std::uint64_t seed) {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 8;
  topo.switches_per_group = 4;
  hsn::TimingConfig timing;
  timing.jitter_amplitude = 0.0;
  timing.run_bias_amplitude = 0.0;

  auto fabric = hsn::Fabric::create(nodes, timing, seed, topo);
  fabric->set_enforcement(true);
  hsn::ShardEngine engine(*fabric, threads);

  std::vector<hsn::EndpointId> eps;
  std::vector<hsn::CassiniNic*> nics;
  eps.reserve(nodes);
  nics.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    if (!fabric->switch_for(addr)->authorize_vni(addr, kTenantVni).is_ok()) {
      std::fprintf(stderr, "authorize_vni failed for NIC %zu\n", i);
      std::exit(2);
    }
    nics.push_back(&fabric->nic(addr));
    auto ep = nics.back()->alloc_endpoint(kTenantVni,
                                          hsn::TrafficClass::kBulkData);
    if (!ep.is_ok()) std::exit(2);
    eps.push_back(ep.value());
  }

  const std::size_t half = nodes / 2;
  std::vector<hsn::NicAddr> dst_of(nodes);
  for (std::size_t s = 0; s < nodes; ++s) {
    dst_of[s] = static_cast<hsn::NicAddr>((s + half) % nodes);
  }
  const auto pump_round = [&](std::uint64_t tag) {
    for (std::size_t s = 0; s < nodes; ++s) {
      const hsn::NicAddr dst = dst_of[s];
      (void)engine.post_send(static_cast<hsn::NicAddr>(s), eps[s], dst,
                             eps[dst], tag, kPacketBytes, 0);
    }
  };
  const auto drain = [&] {
    for (std::size_t d = 0; d < nodes; ++d) {
      (void)nics[d]->drain_rx(eps[d]);
    }
  };

  for (int k = 0; k < 8; ++k) pump_round(static_cast<std::uint64_t>(k));
  engine.flush();
  drain();
  const hsn::SwitchCounters warm = fabric->total_counters();

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < rounds; ++k) {
    pump_round(1000 + static_cast<std::uint64_t>(k));
    if ((k & 31) == 31) {
      engine.flush();
      drain();
    }
  }
  engine.flush();
  drain();
  const auto t1 = std::chrono::steady_clock::now();

  const hsn::SwitchCounters totals = fabric->total_counters();
  SeriesResult r;
  r.name = "ugal_t" + std::to_string(threads);
  r.packets = static_cast<std::uint64_t>(rounds) * nodes;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.pps = r.wall_s > 0 ? static_cast<double>(r.packets) / r.wall_s : 0;
  r.delivered = totals.delivered - warm.delivered;
  r.dropped = totals.dropped_total() - warm.dropped_total();
  r.forwarded = totals.forwarded - warm.forwarded;
  return r;
}

// Mixed-verb series: the same sharded UGAL scenario with a 50/50 blend
// of tagged sends and one-sided RDMA writes (size-only, like the send
// path).  Every NIC registers an MR so all writes are authorized; each
// write produces two fabric deliveries (the request at the target, the
// completion ACK back at the initiator), so the loss gate checks
// delivered == sends + 2*writes exactly, with zero drops.  The pps
// number counts posted operations, making it comparable with the
// send-only sharded series above.
struct RmaMixResult {
  SeriesResult base;
  std::uint64_t expected_delivered = 0;
};

RmaMixResult run_rma_mix_series(int threads, std::size_t nodes, int rounds,
                                std::uint64_t seed) {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 8;
  topo.switches_per_group = 4;
  hsn::TimingConfig timing;
  timing.jitter_amplitude = 0.0;
  timing.run_bias_amplitude = 0.0;

  auto fabric = hsn::Fabric::create(nodes, timing, seed, topo);
  fabric->set_enforcement(true);
  hsn::ShardEngine engine(*fabric, threads);

  std::vector<hsn::EndpointId> eps;
  std::vector<hsn::CassiniNic*> nics;
  std::vector<hsn::RKey> rkeys;
  std::vector<std::vector<std::byte>> regions(nodes);
  eps.reserve(nodes);
  nics.reserve(nodes);
  rkeys.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    if (!fabric->switch_for(addr)->authorize_vni(addr, kTenantVni).is_ok()) {
      std::fprintf(stderr, "authorize_vni failed for NIC %zu\n", i);
      std::exit(2);
    }
    nics.push_back(&fabric->nic(addr));
    auto ep = nics.back()->alloc_endpoint(kTenantVni,
                                          hsn::TrafficClass::kBulkData);
    if (!ep.is_ok()) std::exit(2);
    eps.push_back(ep.value());
    regions[i].resize(2 * kPacketBytes);
    auto rkey = nics.back()->register_mr(eps.back(), regions[i]);
    if (!rkey.is_ok()) std::exit(2);
    rkeys.push_back(rkey.value());
  }

  const std::size_t half = nodes / 2;
  std::vector<hsn::NicAddr> dst_of(nodes);
  for (std::size_t s = 0; s < nodes; ++s) {
    dst_of[s] = static_cast<hsn::NicAddr>((s + half) % nodes);
  }
  std::uint64_t next_op = 1;
  // Alternates send / write per (source, round) so both verbs interleave
  // inside every conservative window, not in separate phases.
  const auto pump_round = [&](int k, std::uint64_t tag) {
    for (std::size_t s = 0; s < nodes; ++s) {
      const hsn::NicAddr dst = dst_of[s];
      if (((s + static_cast<std::size_t>(k)) & 1) == 0) {
        (void)engine.post_send(static_cast<hsn::NicAddr>(s), eps[s], dst,
                               eps[dst], tag, kPacketBytes, 0);
      } else {
        (void)engine.post_rma_write(static_cast<hsn::NicAddr>(s), eps[s], dst,
                                    rkeys[dst], /*offset=*/0, kPacketBytes,
                                    {}, 0, next_op++);
      }
    }
  };
  // RMA completions land on the event queue, not the RX ring — drain
  // both so neither grows across flush batches.
  const auto drain = [&] {
    for (std::size_t d = 0; d < nodes; ++d) {
      (void)nics[d]->drain_rx(eps[d]);
      while (nics[d]->poll_event(eps[d]).is_ok()) {
      }
    }
  };

  for (int k = 0; k < 8; ++k) pump_round(k, static_cast<std::uint64_t>(k));
  engine.flush();
  drain();
  const hsn::SwitchCounters warm = fabric->total_counters();

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < rounds; ++k) {
    pump_round(k, 1000 + static_cast<std::uint64_t>(k));
    if ((k & 31) == 31) {
      engine.flush();
      drain();
    }
  }
  engine.flush();
  drain();
  const auto t1 = std::chrono::steady_clock::now();

  const std::uint64_t ops = static_cast<std::uint64_t>(rounds) * nodes;
  const std::uint64_t writes = ops / 2;  // exact: nodes is even
  const std::uint64_t sends = ops - writes;

  const hsn::SwitchCounters totals = fabric->total_counters();
  RmaMixResult r;
  r.base.name = "rma_mix_t" + std::to_string(threads);
  r.base.packets = ops;
  r.base.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.base.pps =
      r.base.wall_s > 0 ? static_cast<double>(ops) / r.base.wall_s : 0;
  r.base.delivered = totals.delivered - warm.delivered;
  r.base.dropped = totals.dropped_total() - warm.dropped_total();
  r.base.forwarded = totals.forwarded - warm.forwarded;
  r.expected_delivered = sends + 2 * writes;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      shs::bench::json_flag(argc, argv, "BENCH_fig16.json");
  const std::size_t nodes = 256;
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 2000;
  const std::uint64_t seed = 0xf16;
  // Recorded in every JSON row so the trajectory can tell a slow engine
  // from a starved host; series needing more workers than the host has
  // cores are skipped (marked, not silently dropped) instead of
  // publishing inverted numbers.
  const std::uint64_t hw = std::thread::hardware_concurrency();

  shs::bench::print_header(
      "fig16", "wall-clock packet rate, 256-node dragonfly, enforcement on");

  bool ok = true;
  std::vector<std::string> records;
  for (const auto policy :
       {hsn::RoutingPolicy::kUgal, hsn::RoutingPolicy::kMinimal}) {
    const SeriesResult r = run_series(policy, nodes, rounds, seed);
    std::printf("fig16,%s,%llu,%.4f,%.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.packets), r.wall_s, r.pps);
    std::printf(
        "#   %s: %.0f packets/s wall-clock (%llu delivered, %llu forwarded "
        "transit hops, %llu dropped)\n",
        r.name.c_str(), r.pps, static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.forwarded),
        static_cast<unsigned long long>(r.dropped));
    if (r.dropped != 0 || r.delivered != r.packets) {
      std::fprintf(stderr,
                   "FAIL(%s): %llu of %llu packets delivered, %llu dropped — "
                   "enforcement must be overhead-only on an all-authorized "
                   "fabric\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.delivered),
                   static_cast<unsigned long long>(r.packets),
                   static_cast<unsigned long long>(r.dropped));
      ok = false;
    }
    records.push_back(shs::bench::JsonObject{}
                          .add("figure", "fig16")
                          .add("series", r.name)
                          .add("nodes", static_cast<std::uint64_t>(nodes))
                          .add("topology", "dragonfly")
                          .add("enforcement", true)
                          .add("packet_bytes", kPacketBytes)
                          .add("packets", r.packets)
                          .add("wall_seconds", r.wall_s)
                          .add("packets_per_sec", r.pps)
                          .add("forwarded", r.forwarded)
                          .add("dropped", r.dropped)
                          .add("threads", std::uint64_t{0})  // legacy sync
                          .add("hardware_concurrency", hw)
                          .str());
  }

  // Sharded data-plane scaling series: same UGAL scenario through the
  // conservative-window engine at 1/2/4/8 worker threads.  t1 is the
  // single-thread reference schedule; tN must produce identical
  // per-seed results, so the ratio is pure wall-clock speedup.
  double t1_pps = 0;
  double t4_over_t1 = 0;
  for (const int threads : {1, 2, 4, 8}) {
    if (threads >= 4 && hw < 4) {
      // Fewer cores than workers can only show scheduler thrash, not
      // engine scaling — mark the series skipped so the trajectory
      // knows the gap is a host limitation, not a regression.
      std::printf("fig16,ugal_t%d,skipped (hardware_concurrency=%llu)\n",
                  threads, static_cast<unsigned long long>(hw));
      records.push_back(
          shs::bench::JsonObject{}
              .add("figure", "fig16")
              .add("series", "ugal_t" + std::to_string(threads))
              .add("threads", static_cast<std::uint64_t>(threads))
              .add("hardware_concurrency", hw)
              .add("skipped", true)
              .str());
      continue;
    }
    const SeriesResult r = run_sharded_series(threads, nodes, rounds, seed);
    if (threads == 1) t1_pps = r.pps;
    const double speedup = t1_pps > 0 ? r.pps / t1_pps : 0;
    if (threads == 4) t4_over_t1 = speedup;
    std::printf("fig16,%s,%llu,%.4f,%.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.packets), r.wall_s, r.pps);
    std::printf(
        "#   %s: %.0f packets/s wall-clock, %.2fx vs sharded t1 "
        "(%llu delivered, %llu dropped)\n",
        r.name.c_str(), r.pps, speedup,
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.dropped));
    if (r.dropped != 0 || r.delivered != r.packets) {
      std::fprintf(stderr,
                   "FAIL(%s): %llu of %llu packets delivered, %llu dropped — "
                   "the sharded data plane must be loss-free on a healthy "
                   "all-authorized fabric\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.delivered),
                   static_cast<unsigned long long>(r.packets),
                   static_cast<unsigned long long>(r.dropped));
      ok = false;
    }
    records.push_back(shs::bench::JsonObject{}
                          .add("figure", "fig16")
                          .add("series", r.name)
                          .add("nodes", static_cast<std::uint64_t>(nodes))
                          .add("topology", "dragonfly")
                          .add("enforcement", true)
                          .add("packet_bytes", kPacketBytes)
                          .add("packets", r.packets)
                          .add("wall_seconds", r.wall_s)
                          .add("packets_per_sec", r.pps)
                          .add("forwarded", r.forwarded)
                          .add("dropped", r.dropped)
                          .add("threads", static_cast<std::uint64_t>(threads))
                          .add("hardware_concurrency", hw)
                          .add("speedup_vs_t1", speedup)
                          .str());
  }
  // Headline scaling number for the CI trajectory: t4 wall-clock
  // speedup over the t1 reference schedule (0 when t4 was skipped).
  std::printf("#   t4/t1 speedup: %.2fx\n", t4_over_t1);
  records.push_back(shs::bench::JsonObject{}
                        .add("figure", "fig16")
                        .add("series", "t4_t1_speedup")
                        .add("hardware_concurrency", hw)
                        .add("ratio", t4_over_t1)
                        .str());

  // Mixed-verb series: 50/50 send / one-sided write through the engine.
  // Delivered must equal sends + 2*writes (request + completion ACK per
  // write) with zero drops — the unified completion path is loss-free.
  for (const int threads : {1, 4}) {
    if (threads >= 4 && hw < 4) {
      std::printf("fig16,rma_mix_t%d,skipped (hardware_concurrency=%llu)\n",
                  threads, static_cast<unsigned long long>(hw));
      records.push_back(
          shs::bench::JsonObject{}
              .add("figure", "fig16")
              .add("series", "rma_mix_t" + std::to_string(threads))
              .add("threads", static_cast<std::uint64_t>(threads))
              .add("hardware_concurrency", hw)
              .add("skipped", true)
              .str());
      continue;
    }
    const RmaMixResult m = run_rma_mix_series(threads, nodes, rounds, seed);
    const SeriesResult& r = m.base;
    std::printf("fig16,%s,%llu,%.4f,%.0f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.packets), r.wall_s, r.pps);
    std::printf(
        "#   %s: %.0f ops/s wall-clock (%llu delivered of %llu expected, "
        "%llu dropped)\n",
        r.name.c_str(), r.pps, static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(m.expected_delivered),
        static_cast<unsigned long long>(r.dropped));
    if (r.dropped != 0 || r.delivered != m.expected_delivered) {
      std::fprintf(stderr,
                   "FAIL(%s): %llu delivered (expected %llu), %llu dropped — "
                   "mixed send/RMA traffic must be loss-free on a healthy "
                   "all-authorized fabric\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.delivered),
                   static_cast<unsigned long long>(m.expected_delivered),
                   static_cast<unsigned long long>(r.dropped));
      ok = false;
    }
    records.push_back(shs::bench::JsonObject{}
                          .add("figure", "fig16")
                          .add("series", r.name)
                          .add("nodes", static_cast<std::uint64_t>(nodes))
                          .add("topology", "dragonfly")
                          .add("enforcement", true)
                          .add("packet_bytes", kPacketBytes)
                          .add("packets", r.packets)
                          .add("wall_seconds", r.wall_s)
                          .add("packets_per_sec", r.pps)
                          .add("forwarded", r.forwarded)
                          .add("dropped", r.dropped)
                          .add("threads", static_cast<std::uint64_t>(threads))
                          .add("hardware_concurrency", hw)
                          .str());
  }

  if (!json_path.empty() &&
      !shs::bench::write_json(json_path, shs::bench::json_array(records))) {
    return 1;
  }
  return ok ? 0 : 1;
}
