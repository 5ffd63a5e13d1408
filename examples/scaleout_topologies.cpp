// scaleout_topologies.cpp — walkthrough of the multi-switch fabric
// topologies: builds the same 32-node cluster as a single switch (which
// cannot physically host 32 ports on real Rosetta hardware, but the model
// allows it as a baseline), a 2-level fat-tree, and a dragonfly, then
// compares hop counts, one-way latency, and inter-switch traffic for the
// same pair of communicating tenants.
#include <cstdio>

#include "hsn/fabric.hpp"

using namespace shs;
using namespace shs::hsn;

namespace {

void demo(const char* name, TopologyConfig topo) {
  TimingConfig timing;
  timing.jitter_amplitude = 0;
  timing.run_bias_amplitude = 0;
  auto fabric = Fabric::create(32, timing, /*seed=*/42, topo);

  constexpr Vni kVni = 4242;
  for (NicAddr a = 0; a < 32; ++a) {
    (void)fabric->switch_for(a)->authorize_vni(a, kVni);
  }
  auto src_ep = fabric->nic(0).alloc_endpoint(kVni, TrafficClass::kLowLatency);
  auto near_ep = fabric->nic(1).alloc_endpoint(kVni, TrafficClass::kLowLatency);
  auto far_ep = fabric->nic(31).alloc_endpoint(kVni, TrafficClass::kLowLatency);

  std::printf("%-14s %zu switches", name, fabric->switch_count());

  (void)fabric->nic(0).post_send(src_ep.value(), 1, near_ep.value(), 1,
                                 4096, {}, 0);
  auto near_pkt = fabric->nic(1).poll_rx(near_ep.value());
  (void)fabric->nic(0).post_send(src_ep.value(), 31, far_ep.value(), 1,
                                 4096, {}, 0);
  auto far_pkt = fabric->nic(31).poll_rx(far_ep.value());
  if (near_pkt.is_ok() && far_pkt.is_ok()) {
    std::printf("  |  0->1: %d hops, %.2f us  |  0->31: %d hops, %.2f us",
                near_pkt.value().hops,
                to_micros(near_pkt.value().arrival_vt),
                far_pkt.value().hops,
                to_micros(far_pkt.value().arrival_vt));
  }
  std::printf("  |  uplink bytes: %llu\n",
              static_cast<unsigned long long>(fabric->cross_switch_bytes()));
}

}  // namespace

int main() {
  std::printf("32-node cluster, same workload, three fabric plans:\n\n");

  demo("single-switch", {});

  TopologyConfig fat_tree;
  fat_tree.kind = TopologyKind::kFatTree;
  fat_tree.nodes_per_switch = 8;  // 4 leaves
  fat_tree.spines = 2;
  demo("fat-tree", fat_tree);

  TopologyConfig dragonfly;
  dragonfly.kind = TopologyKind::kDragonfly;
  dragonfly.nodes_per_switch = 8;   // 4 edge switches
  dragonfly.switches_per_group = 2; // 2 groups
  demo("dragonfly", dragonfly);

  std::printf(
      "\nSame-switch pairs stay at one hop-latency; cross-switch pairs pay\n"
      "per-link serialization + propagation on every inter-switch link,\n"
      "with per-link virtual-time bandwidth accounting under contention.\n");
  return 0;
}
