// fig17_reliable_delivery.cpp — goodput of the reliable data plane as a
// function of injected link-loss rate, with a mid-run switch failure.
//
// Scenario: the fig16 fabric (256-node dragonfly — 8 nodes/switch, 4
// switches/group, 32 switches — UGAL, enforcement ON) with NIC-level
// reliable delivery armed and a seeded per-link loss rate swept across
// {0%, 0.1%, 1%, 5%}.  Halfway through each series an edge switch
// crashes (its 8 NICs become unreachable) and is restored at the
// three-quarter mark — the retry hook nudges the fabric manager during
// backoff windows, so ops that lost their first attempts to the
// failure complete on the republished plan.
//
// The paper's convergence claim needs loss to cost *bandwidth, not
// correctness*: every op must either complete — with its payload
// observed exactly once at the receiver — or fail with a bounded-retry
// Status.  The run exits non-zero on any silent loss (received !=
// successful posts) or any isolation drop.
//
// Output: CSV rows
//     fig17,<loss_rate>,<ok_ops>,<failed_ops>,<goodput_gbps>,<retransmits>
// plus a JSON artifact (--json[=path], default BENCH_fig17.json) with
// the full per-series accounting: the goodput-vs-loss curve CI tracks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "hsn/fabric.hpp"

namespace {

using namespace shs;

constexpr hsn::Vni kTenantVni = 4242;
constexpr std::uint64_t kPacketBytes = 16384;
constexpr hsn::SwitchId kVictimSwitch = 1;  // NICs 8..15 while down

struct SeriesResult {
  double loss_rate = 0;
  std::uint64_t ops = 0;
  std::uint64_t ok_ops = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t received = 0;
  double goodput_gbps = 0;
  double wall_s = 0;
  hsn::ReliabilityCounters rel;
  std::uint64_t dropped_loss = 0;
  std::uint64_t isolation_drops = 0;
};

SeriesResult run_series(double loss_rate, std::size_t nodes, int rounds,
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
  fabric->manager().set_auto_repair(false);
  if (loss_rate > 0.0) {
    hsn::FaultProfile p;
    p.drop_rate = loss_rate;
    fabric->set_fault_profile(p);
  }
  hsn::ReliabilityConfig rel;
  rel.enabled = true;
  fabric->set_reliability(rel);
  fabric->set_retry_hook([&fabric](int attempt, SimDuration) {
    if (attempt >= 3) (void)fabric->manager().repair_if_pending();
  });

  std::vector<hsn::EndpointId> eps;
  std::vector<hsn::CassiniNic*> nics;
  eps.reserve(nodes);
  nics.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    if (!fabric->switch_for(addr)->authorize_vni(addr, kTenantVni).is_ok()) {
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

  SeriesResult r;
  r.loss_rate = loss_rate;
  // Per-sender virtual clocks: reliable posts charge their backoff to
  // the caller's clock, so the virtual makespan honestly includes the
  // time retransmission cost — that is what dents goodput.
  std::vector<SimTime> vt(nodes, 0);
  const int fail_round = rounds / 2;
  const int restore_round = (3 * rounds) / 4;

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < rounds; ++k) {
    if (k == fail_round) {
      if (!fabric->fail_switch(kVictimSwitch).is_ok()) std::exit(2);
    }
    if (k == restore_round) {
      if (!fabric->restore_switch(kVictimSwitch).is_ok()) std::exit(2);
      (void)fabric->manager().repair_if_pending();
    }
    for (std::size_t s = 0; s < nodes; ++s) {
      const hsn::NicAddr dst = dst_of[s];
      ++r.ops;
      auto res = nics[s]->post_send(eps[s], dst, eps[dst],
                                    static_cast<std::uint64_t>(k),
                                    kPacketBytes, {}, vt[s]);
      if (res.is_ok()) {
        vt[s] = res.value();
        ++r.ok_ops;
      } else {
        ++r.failed_ops;
      }
    }
    if ((k & 7) == 7) {
      for (std::size_t d = 0; d < nodes; ++d) {
        r.received += nics[d]->drain_rx(eps[d]);
      }
    }
  }
  for (std::size_t d = 0; d < nodes; ++d) {
    r.received += nics[d]->drain_rx(eps[d]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();

  SimTime makespan = 0;
  for (const SimTime t : vt) makespan = std::max(makespan, t);
  if (makespan > 0) {
    const double bits =
        static_cast<double>(r.ok_ops) * static_cast<double>(kPacketBytes) * 8;
    r.goodput_gbps = bits / to_seconds(makespan) / 1e9;
  }
  r.rel = fabric->reliability_totals();
  const auto totals = fabric->total_counters();
  r.dropped_loss = totals.dropped_loss;
  r.isolation_drops =
      totals.dropped_src_unauthorized + totals.dropped_dst_unauthorized;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      shs::bench::json_flag(argc, argv, "BENCH_fig17.json");
  const std::size_t nodes = 256;
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 200;
  const std::uint64_t seed = 0xf17;

  shs::bench::print_header(
      "fig17",
      "reliable-delivery goodput vs loss rate, 256-node dragonfly, "
      "mid-run switch failure");

  bool ok = true;
  std::vector<std::string> records;
  for (const double loss : {0.0, 0.001, 0.01, 0.05}) {
    const SeriesResult r = run_series(loss, nodes, rounds, seed);
    std::printf("fig17,%.3f,%llu,%llu,%.3f,%llu\n", r.loss_rate,
                static_cast<unsigned long long>(r.ok_ops),
                static_cast<unsigned long long>(r.failed_ops),
                r.goodput_gbps,
                static_cast<unsigned long long>(r.rel.retransmits));
    std::printf(
        "#   loss=%.1f%%: %.2f Gb/s goodput, %llu/%llu ops ok (%llu "
        "bounded-retry failures), %llu retransmits, %llu recovered "
        "(%llu across a replan), %llu wire drops\n",
        r.loss_rate * 100, r.goodput_gbps,
        static_cast<unsigned long long>(r.ok_ops),
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.failed_ops),
        static_cast<unsigned long long>(r.rel.retransmits),
        static_cast<unsigned long long>(r.rel.recovered),
        static_cast<unsigned long long>(r.rel.recovered_after_replan),
        static_cast<unsigned long long>(r.dropped_loss));
    // Host time goes to stderr: stdout stays a pure function of the
    // seed, so it can be pinned byte for byte.
    std::fprintf(stderr, "#   loss=%.1f%%: %.2fs wall\n",
                 r.loss_rate * 100, r.wall_s);

    // The gate: zero silent loss, zero isolation violations.  Without
    // ACK loss, a post's success IS the delivery guarantee — so the
    // receivers must hold exactly one packet per successful post.
    if (r.received != r.ok_ops) {
      std::fprintf(stderr,
                   "FAIL(loss=%.3f): %llu packets received for %llu "
                   "successful ops — silent %s\n",
                   r.loss_rate, static_cast<unsigned long long>(r.received),
                   static_cast<unsigned long long>(r.ok_ops),
                   r.received < r.ok_ops ? "loss" : "duplication");
      ok = false;
    }
    if (r.isolation_drops != 0) {
      std::fprintf(stderr,
                   "FAIL(loss=%.3f): %llu isolation drops on an "
                   "all-authorized fabric\n",
                   r.loss_rate,
                   static_cast<unsigned long long>(r.isolation_drops));
      ok = false;
    }
    // Loss-free series must not fail a single op; lossy series may only
    // fail ops while the victim switch was down.
    if (loss == 0.0 && r.rel.budget_exhausted + r.failed_ops >
                           2 * static_cast<std::uint64_t>(rounds) * 8) {
      std::fprintf(stderr, "FAIL(loss=0): unexpected failure volume\n");
      ok = false;
    }

    records.push_back(shs::bench::JsonObject{}
                          .add("figure", "fig17")
                          .add("loss_rate", r.loss_rate)
                          .add("nodes", static_cast<std::uint64_t>(nodes))
                          .add("topology", "dragonfly")
                          .add("routing", "ugal")
                          .add("packet_bytes", kPacketBytes)
                          .add("ops", r.ops)
                          .add("ok_ops", r.ok_ops)
                          .add("failed_ops", r.failed_ops)
                          .add("received", r.received)
                          .add("goodput_gbps", r.goodput_gbps)
                          .add("retransmits", r.rel.retransmits)
                          .add("duplicates", r.rel.duplicates)
                          .add("recovered", r.rel.recovered)
                          .add("recovered_after_replan",
                               r.rel.recovered_after_replan)
                          .add("budget_exhausted", r.rel.budget_exhausted)
                          .add("wire_drops", r.dropped_loss)
                          .add("wall_seconds", r.wall_s)
                          .str());
  }

  if (!json_path.empty() &&
      !shs::bench::write_json(json_path, shs::bench::json_array(records))) {
    return 1;
  }
  return ok ? 0 : 1;
}
