// fig15_failure_recovery.cpp — beyond the paper: data-plane fault
// tolerance under load.
//
// Production Slingshot fabrics lose links and switches routinely and
// lean on the fabric manager to re-route around them without breaking
// tenant isolation.  This bench drives a steady cross-switch traffic
// pattern through four windows on both multi-switch topologies:
//   1. baseline     — healthy fabric;
//   2. failure      — the element dies MID-WINDOW (fat-tree: the spine
//                     carrying the leaf-0 -> leaf-1 aggregate; dragonfly:
//                     the group-0 -> group-1 global link), with the
//                     fabric manager's repair withheld, so packets
//                     committed to the dead element drop — the honest
//                     loss window;
//   3. recovered    — the fabric manager's re-plan has landed: traffic
//                     rides the repaired tables (fat-tree: surviving
//                     spines; dragonfly: two-global-hop detours through
//                     the other groups);
//   4. restored     — the element returns and the pristine plan is
//                     republished.
// An unauthorized probe NIC attempts to inject into the tenant VNI in
// every window: re-routing must never open an isolation hole.
//
// CSV rows: fig15,<topology>,<window>,bw_gbps,<bw>,delivered,<n>,
//           link_down_drops,<d>,violations,<v>
// Acceptance (also enforced when run under ctest): recovered bandwidth
// >= 80 % of baseline on both topologies, the failure window really
// dropped packets, zero isolation violations anywhere, and the whole
// episode is bit-deterministic per seed.
//
//   usage: fig15_failure_recovery [packets_per_src=48] [--json[=path]]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"

namespace shs::bench {
namespace {

constexpr hsn::Vni kTenantVni = 51;
constexpr std::uint64_t kPacketBytes = 64 * 1024;

hsn::TimingConfig flat_timing() {
  hsn::TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

struct WindowResult {
  std::string name;
  double bw_gbps = 0;
  std::uint64_t delivered = 0;
  std::uint64_t link_down_drops = 0;  ///< delta within this window
  std::uint64_t violations = 0;
  SimTime last_arrival = 0;
};

struct EpisodeResult {
  std::string topology;
  std::vector<WindowResult> windows;

  [[nodiscard]] const WindowResult& window(const char* name) const {
    for (const auto& w : windows) {
      if (w.name == name) return w;
    }
    std::abort();
  }
  /// Determinism signature: every observable of every window.
  [[nodiscard]] bool operator==(const EpisodeResult& o) const {
    if (windows.size() != o.windows.size()) return false;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const WindowResult& a = windows[i];
      const WindowResult& b = o.windows[i];
      if (a.name != b.name || a.delivered != b.delivered ||
          a.link_down_drops != b.link_down_drops ||
          a.violations != b.violations ||
          a.last_arrival != b.last_arrival) {
        return false;
      }
    }
    return true;
  }
};

/// One fixed traffic pattern: sources[i] sends packets_per_src bulk
/// packets to sinks[i].
struct Pattern {
  std::vector<hsn::NicAddr> sources;
  std::vector<hsn::NicAddr> sinks;
  hsn::NicAddr probe = 0;  ///< deliberately unauthorized
};

/// Walks the published static route from NIC `src` toward NIC `dst` and
/// returns the first inter-switch hop whose endpoints are in different
/// dragonfly groups — the global link that traffic rides.
std::pair<hsn::SwitchId, hsn::SwitchId> global_link_on_path(
    const hsn::Fabric& fabric, hsn::NicAddr src, hsn::NicAddr dst) {
  const auto plan = fabric.plan();
  hsn::SwitchId at = fabric.home_switch(src);
  const hsn::SwitchId home = fabric.home_switch(dst);
  while (at != home) {
    const hsn::SwitchId next = plan->next(at, home);
    if (next == hsn::kInvalidSwitch) std::abort();  // no static route
    if (plan->group_of[at] != plan->group_of[next]) return {at, next};
    at = next;
  }
  std::abort();  // no global hop on an intra-group path
}

class Episode {
 public:
  Episode(const char* label, const hsn::TopologyConfig& topo,
          std::size_t nodes, Pattern pattern, int packets_per_src,
          std::uint64_t seed)
      : pattern_(std::move(pattern)), packets_per_src_(packets_per_src) {
    result_.topology = label;
    fabric_ = hsn::Fabric::create(nodes, flat_timing(), seed, topo);
    fabric_->manager().set_auto_repair(false);
    for (std::size_t i = 0; i < pattern_.sources.size(); ++i) {
      const hsn::NicAddr s = pattern_.sources[i];
      const hsn::NicAddr d = pattern_.sinks[i];
      if (!fabric_->switch_for(s)->authorize_vni(s, kTenantVni).is_ok() &&
          !fabric_->switch_for(s)->vni_authorized(s, kTenantVni)) {
        std::abort();
      }
      if (!fabric_->switch_for(d)->authorize_vni(d, kTenantVni).is_ok() &&
          !fabric_->switch_for(d)->vni_authorized(d, kTenantVni)) {
        std::abort();
      }
      src_eps_.push_back(
          fabric_->nic(s)
              .alloc_endpoint(kTenantVni, hsn::TrafficClass::kBulkData)
              .value());
      dst_eps_.push_back(
          fabric_->nic(d)
              .alloc_endpoint(kTenantVni, hsn::TrafficClass::kBulkData)
              .value());
    }
    // The probe NIC is deliberately NOT authorized.
    probe_ep_ = fabric_->nic(pattern_.probe)
                    .alloc_endpoint(kTenantVni,
                                    hsn::TrafficClass::kBulkData)
                    .value();
  }

  [[nodiscard]] hsn::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] EpisodeResult& result() noexcept { return result_; }

  /// Runs one measurement window starting after everything already on
  /// the wire has landed.  `mid_window` (optional) fires after half the
  /// packets have been injected — where the failure hits "mid-traffic".
  void run_window(const char* name,
                  const std::function<void()>& mid_window = nullptr) {
    WindowResult w;
    w.name = name;
    const SimTime start = next_start_;
    const std::uint64_t drops_before =
        fabric_->total_counters().dropped_link_down;

    const int half = packets_per_src_ / 2;
    inject(start, 0, half);
    if (mid_window) mid_window();
    inject(start, half, packets_per_src_);

    // Unauthorized probe into the tenant VNI (must be refused at the
    // probe's own edge switch, repaired tables or not).
    auto stolen = fabric_->nic(pattern_.probe)
                      .post_send(probe_ep_, pattern_.sinks[0], dst_eps_[0],
                                 /*tag=*/999, 4096, {}, start);
    if (stolen.is_ok()) ++w.violations;

    // Drain: delivery latency and byte accounting for the window.
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < pattern_.sinks.size(); ++i) {
      while (true) {
        auto pkt = fabric_->nic(pattern_.sinks[i]).poll_rx(dst_eps_[i]);
        if (!pkt.is_ok()) break;
        ++w.delivered;
        bytes += pkt.value().size_bytes;
        w.last_arrival = std::max(w.last_arrival,
                                  pkt.value().arrival_vt);
      }
    }
    w.link_down_drops =
        fabric_->total_counters().dropped_link_down - drops_before;
    const double seconds =
        w.last_arrival > start ? to_seconds(w.last_arrival - start) : 0.0;
    w.bw_gbps = seconds > 0
                    ? static_cast<double>(bytes) * 8.0 / seconds / 1e9
                    : 0.0;
    // The next window starts once the fabric has fully drained.
    next_start_ = std::max(next_start_, w.last_arrival) + kMillisecond;

    std::printf("fig15,%s,%s,bw_gbps,%.2f,delivered,%llu,"
                "link_down_drops,%llu,violations,%llu\n",
                result_.topology.c_str(), name, w.bw_gbps,
                static_cast<unsigned long long>(w.delivered),
                static_cast<unsigned long long>(w.link_down_drops),
                static_cast<unsigned long long>(w.violations));
    result_.windows.push_back(std::move(w));
  }

 private:
  void inject(SimTime start, int from, int to) {
    for (int k = from; k < to; ++k) {
      for (std::size_t i = 0; i < pattern_.sources.size(); ++i) {
        // Sends refused inside the loss window surface as link-down
        // errors; the per-window drop delta counts them.
        (void)fabric_->nic(pattern_.sources[i])
            .post_send(src_eps_[i], pattern_.sinks[i], dst_eps_[i],
                       static_cast<std::uint64_t>(k), kPacketBytes, {},
                       start);
      }
    }
  }

  Pattern pattern_;
  int packets_per_src_;
  std::unique_ptr<hsn::Fabric> fabric_;
  std::vector<hsn::EndpointId> src_eps_;
  std::vector<hsn::EndpointId> dst_eps_;
  hsn::EndpointId probe_ep_ = 0;
  EpisodeResult result_;
  SimTime next_start_ = 0;
};

/// Fat-tree: 32 nodes on 4 leaves under 8 spines.  Every NIC sends one
/// leaf over; mid-traffic the spine carrying the leaf-0 -> leaf-1
/// aggregate dies.
EpisodeResult run_fat_tree(int packets_per_src, std::uint64_t seed) {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kFatTree;
  topo.nodes_per_switch = 8;
  topo.spines = 8;
  Pattern pattern;
  for (hsn::NicAddr s = 0; s < 32; ++s) {
    if (s == 23 || s == 31) continue;  // keep NIC 31 clean for the probe
    pattern.sources.push_back(s);
    pattern.sinks.push_back((s + 8) % 32);
  }
  pattern.probe = 31;
  Episode ep("fat-tree-32", topo, 32, pattern, packets_per_src, seed);

  // The spine the static hash picked for the (leaf 0, leaf 1) aggregate.
  const hsn::SwitchId victim = ep.fabric().plan()->next(0, 1);
  ep.run_window("baseline");
  ep.run_window("failure", [&] {
    if (!ep.fabric().fail_switch(victim).is_ok()) std::abort();
  });
  ep.fabric().manager().repair();
  ep.run_window("recovered");
  if (!ep.fabric().restore_switch(victim).is_ok()) std::abort();
  ep.fabric().manager().repair();
  ep.run_window("restored");
  return ep.result();
}

/// Dragonfly: 64 nodes, 4 groups.  Group 0 pairs with group 1 — the
/// whole aggregate rides one global link, which dies mid-traffic; the
/// re-plan detours through groups 2/3.
EpisodeResult run_dragonfly(int packets_per_src, std::uint64_t seed) {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  Pattern pattern;
  for (hsn::NicAddr s = 0; s < 16; ++s) {
    pattern.sources.push_back(s);
    pattern.sinks.push_back(16 + s);
  }
  pattern.probe = 32;  // group 2, en route of the detours
  Episode ep("dragonfly-64", topo, 64, pattern, packets_per_src, seed);

  const auto [ga, gb] = global_link_on_path(ep.fabric(), 0, 16);
  ep.run_window("baseline");
  ep.run_window("failure", [&] {
    if (!ep.fabric().fail_link(ga, gb).is_ok()) std::abort();
  });
  ep.fabric().manager().repair();
  ep.run_window("recovered");
  if (!ep.fabric().restore_link(ga, gb).is_ok()) std::abort();
  ep.fabric().manager().repair();
  ep.run_window("restored");
  return ep.result();
}

}  // namespace
}  // namespace shs::bench

int main(int argc, char** argv) {
  using namespace shs;
  using namespace shs::bench;
  const std::string json_path = json_flag(argc, argv, "BENCH_fig15.json");
  const int packets_per_src = argc > 1 ? std::atoi(argv[1]) : 48;
  constexpr std::uint64_t kSeed = 0xf150;

  print_header("Fig 15",
               "failure -> re-route -> recovery under load "
               "(fig15,<topology>,<window>,bw_gbps,...)");

  std::vector<EpisodeResult> all;
  all.push_back(run_fat_tree(packets_per_src, kSeed));
  all.push_back(run_dragonfly(packets_per_src, kSeed));

  // Determinism across the whole episode: an identical seed must replay
  // the identical failure, loss window, and recovery, byte for byte.
  bool deterministic =
      all[0] == run_fat_tree(packets_per_src, kSeed) &&
      all[1] == run_dragonfly(packets_per_src, kSeed);

  bool ok = deterministic;
  for (const auto& episode : all) {
    const auto& baseline = episode.window("baseline");
    const auto& failure = episode.window("failure");
    const auto& recovered = episode.window("recovered");
    const double ratio = baseline.bw_gbps > 0
                             ? recovered.bw_gbps / baseline.bw_gbps
                             : 0.0;
    std::uint64_t violations = 0;
    for (const auto& w : episode.windows) violations += w.violations;
    std::printf("fig15,%s,recovered_vs_baseline,%.3f,window_drops,%llu,"
                "violations,%llu\n",
                episode.topology.c_str(), ratio,
                static_cast<unsigned long long>(failure.link_down_drops),
                static_cast<unsigned long long>(violations));
    ok &= ratio >= 0.80;               // re-converged to >= 80 % baseline
    ok &= failure.link_down_drops > 0;  // the loss window really opened
    ok &= violations == 0;              // isolation held throughout
    ok &= baseline.delivered > 0 && recovered.delivered > 0;
  }
  std::printf("fig15,determinism,%s\n", deterministic ? "ok" : "BROKEN");
  std::printf("fig15,summary,%s\n", ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::vector<std::string> rows;
    for (const auto& episode : all) {
      for (const auto& w : episode.windows) {
        JsonObject row;
        row.add("topology", episode.topology)
            .add("window", w.name)
            .add("bw_gbps", w.bw_gbps)
            .add("delivered", w.delivered)
            .add("link_down_drops", w.link_down_drops)
            .add("violations", w.violations);
        rows.push_back(row.str());
      }
    }
    JsonObject doc;
    doc.add("bench", "fig15_failure_recovery")
        .add("packets_per_source", packets_per_src)
        .add("deterministic", deterministic)
        .add("pass", ok)
        .raw("results", json_array(rows));
    if (!write_json(json_path, doc.str())) ok = false;
  }
  return ok ? 0 : 1;
}
