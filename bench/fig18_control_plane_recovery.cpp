// fig18_control_plane_recovery.cpp — beyond the paper: control-plane
// fault tolerance under load.
//
// Fig 15 killed data-plane elements; here the *fabric manager itself*
// dies mid-repair.  A 256-node / 8-group dragonfly runs an all-groups
// ring pattern (group g -> group g+1) through five windows:
//   1. baseline  — healthy fabric, healthy controller;
//   2. degraded  — the g0 -> g1 global link dies mid-window and the
//                  controller crashes before it can even journal a
//                  repair intent (the failure event itself is journaled
//                  by the link handler).  Switches keep routing
//                  their last-applied epoch: seven of eight group
//                  aggregates are untouched, so degraded bandwidth must
//                  hold >= 80 % of baseline while the affected flows
//                  drop as honest link-down losses;
//   3. republish — the controller restarts (journal replay + hardware
//                  sweep), re-commits the repair epoch, and publishes it
//                  per-switch with seeded stagger.  The first half of
//                  the window runs on the stale epoch — losses at the
//                  dead link are fenced as kStaleEpoch, never silent —
//                  and the waves land mid-window;
//   4. recovered — every switch on the repair epoch, traffic detours
//                  around the dead link;
//   5. restored  — the link returns and the pristine plan republishes.
// An unauthorized probe NIC attempts to inject into the tenant VNI in
// every window: neither a crashed controller nor a half-published plan
// may open an isolation hole.
//
// CSV rows: fig18,<window>,bw_gbps,<bw>,delivered,<n>,
//           link_down_drops,<d>,stale_epoch_drops,<s>,violations,<v>
// Acceptance (also enforced when run under ctest): degraded bandwidth
// >= 80 % of baseline, the republish window fenced real stale-epoch
// drops, recovered bandwidth >= 80 % of baseline, exactly one recovered
// publish, zero isolation violations anywhere, and the whole episode is
// bit-deterministic per seed.
//
//   usage: fig18_control_plane_recovery [packets_per_src=32] [--json[=path]]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "harness.hpp"

namespace shs::bench {
namespace {

constexpr hsn::Vni kTenantVni = 51;
constexpr std::uint64_t kPacketBytes = 64 * 1024;
constexpr std::size_t kNodes = 256;
constexpr std::size_t kGroups = 8;
constexpr std::size_t kNodesPerGroup = 32;

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
  std::uint64_t link_down_drops = 0;   ///< delta within this window
  std::uint64_t stale_epoch_drops = 0;  ///< delta within this window
  std::uint64_t violations = 0;
  SimTime last_arrival = 0;
};

struct EpisodeResult {
  std::vector<WindowResult> windows;
  std::size_t recovered_publishes = 0;
  std::uint64_t final_epoch = 0;

  [[nodiscard]] const WindowResult& window(const char* name) const {
    for (const auto& w : windows) {
      if (w.name == name) return w;
    }
    std::abort();
  }
  [[nodiscard]] bool operator==(const EpisodeResult& o) const {
    if (windows.size() != o.windows.size() ||
        recovered_publishes != o.recovered_publishes ||
        final_epoch != o.final_epoch) {
      return false;
    }
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const WindowResult& a = windows[i];
      const WindowResult& b = o.windows[i];
      if (a.name != b.name || a.delivered != b.delivered ||
          a.link_down_drops != b.link_down_drops ||
          a.stale_epoch_drops != b.stale_epoch_drops ||
          a.violations != b.violations ||
          a.last_arrival != b.last_arrival) {
        return false;
      }
    }
    return true;
  }
};

/// Walks the published static route from NIC `src` toward NIC `dst` and
/// returns the first inter-switch hop that crosses a dragonfly group
/// boundary — the global link the aggregate rides.
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
  Episode(int packets_per_src, std::uint64_t seed)
      : packets_per_src_(packets_per_src) {
    hsn::TopologyConfig topo;
    topo.kind = hsn::TopologyKind::kDragonfly;
    topo.nodes_per_switch = 4;
    topo.switches_per_group = 8;
    fabric_ = hsn::Fabric::create(kNodes, flat_timing(), seed, topo);
    // The controller journals its repair intents and publishes with
    // per-switch stagger; auto-repair stays ON so the crash fires from
    // the repair the link failure itself triggers.
    fabric_->manager().attach_journal(journal_);
    fabric_->manager().set_publish_stagger(
        {.enabled = true, .max_delay = from_micros(80), .seed = seed});

    // Ring pattern: 8 sources per group send one group over.
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (std::size_t i = 0; i < 8; ++i) {
        sources_.push_back(
            static_cast<hsn::NicAddr>(g * kNodesPerGroup + i));
        sinks_.push_back(static_cast<hsn::NicAddr>(
            ((g + 1) % kGroups) * kNodesPerGroup + 8 + i));
      }
    }
    probe_ = 16;  // group 0, touches neither sources nor sinks
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const hsn::NicAddr s = sources_[i];
      const hsn::NicAddr d = sinks_[i];
      if (!fabric_->switch_for(s)->authorize_vni(s, kTenantVni).is_ok() ||
          !fabric_->switch_for(d)->authorize_vni(d, kTenantVni).is_ok()) {
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
    probe_ep_ = fabric_->nic(probe_)
                    .alloc_endpoint(kTenantVni,
                                    hsn::TrafficClass::kBulkData)
                    .value();
  }

  [[nodiscard]] hsn::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] EpisodeResult& result() noexcept { return result_; }

  void run_window(const char* name,
                  const std::function<void()>& mid_window = nullptr) {
    WindowResult w;
    w.name = name;
    const SimTime start = next_start_;
    const auto before = fabric_->total_counters();

    const int half = packets_per_src_ / 2;
    inject(start, 0, half);
    if (mid_window) mid_window();
    inject(start, half, packets_per_src_);

    auto stolen = fabric_->nic(probe_).post_send(
        probe_ep_, sinks_[0], dst_eps_[0], /*tag=*/999, 4096, {}, start);
    if (stolen.is_ok()) ++w.violations;

    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      while (true) {
        auto pkt = fabric_->nic(sinks_[i]).poll_rx(dst_eps_[i]);
        if (!pkt.is_ok()) break;
        ++w.delivered;
        bytes += pkt.value().size_bytes;
        w.last_arrival = std::max(w.last_arrival, pkt.value().arrival_vt);
      }
    }
    const auto after = fabric_->total_counters();
    w.link_down_drops = after.dropped_link_down - before.dropped_link_down;
    w.stale_epoch_drops =
        after.dropped_stale_epoch - before.dropped_stale_epoch;
    const double seconds =
        w.last_arrival > start ? to_seconds(w.last_arrival - start) : 0.0;
    w.bw_gbps = seconds > 0
                    ? static_cast<double>(bytes) * 8.0 / seconds / 1e9
                    : 0.0;
    next_start_ = std::max(next_start_, w.last_arrival) + kMillisecond;

    std::printf("fig18,%s,bw_gbps,%.2f,delivered,%llu,"
                "link_down_drops,%llu,stale_epoch_drops,%llu,"
                "violations,%llu\n",
                name, w.bw_gbps,
                static_cast<unsigned long long>(w.delivered),
                static_cast<unsigned long long>(w.link_down_drops),
                static_cast<unsigned long long>(w.stale_epoch_drops),
                static_cast<unsigned long long>(w.violations));
    result_.windows.push_back(std::move(w));
  }

 private:
  void inject(SimTime start, int from, int to) {
    for (int k = from; k < to; ++k) {
      for (std::size_t i = 0; i < sources_.size(); ++i) {
        (void)fabric_->nic(sources_[i])
            .post_send(src_eps_[i], sinks_[i], dst_eps_[i],
                       static_cast<std::uint64_t>(k), kPacketBytes, {},
                       start);
      }
    }
  }

  int packets_per_src_;
  db::Database journal_;  ///< outlives the fabric (declared first)
  std::unique_ptr<hsn::Fabric> fabric_;
  std::vector<hsn::NicAddr> sources_;
  std::vector<hsn::NicAddr> sinks_;
  hsn::NicAddr probe_ = 0;
  std::vector<hsn::EndpointId> src_eps_;
  std::vector<hsn::EndpointId> dst_eps_;
  hsn::EndpointId probe_ep_ = 0;
  EpisodeResult result_;
  SimTime next_start_ = 0;
};

EpisodeResult run_episode(int packets_per_src, std::uint64_t seed) {
  Episode ep(packets_per_src, seed);
  hsn::FabricManager& fm = ep.fabric().manager();
  // The global link the g0 -> g1 aggregate rides under the base plan.
  const auto [ga, gb] = global_link_on_path(ep.fabric(), 0, 40);

  ep.run_window("baseline");

  // Mid-window the link dies; the failure event is journaled, then the
  // armed crash kills the controller before the repair's publish intent
  // lands — the replan is lost with the process.
  ep.run_window("degraded", [&] {
    hsn::ControlPlaneFaultProfile crash;
    crash.point = hsn::ControlPlaneFaultProfile::CrashPoint::kBeforeJournal;
    fm.arm_crash(crash);
    if (!ep.fabric().fail_link(ga, gb).is_ok()) std::abort();
    if (!fm.crashed()) std::abort();
  });

  // Restart: journal replay re-derives the repair intent; the new epoch
  // commits up front, then the waves land per-switch.  The first half of
  // the window rides the stale epoch — its losses are fenced, not
  // silent — and the second half rides the repaired tables.
  if (!fm.restart().is_ok()) std::abort();
  if (!fm.repair_pending()) std::abort();
  fm.repair();
  ep.run_window("republish", [&] { fm.apply_all_publishes(); });

  ep.run_window("recovered");

  if (!ep.fabric().restore_link(ga, gb).is_ok()) std::abort();
  fm.repair();
  fm.apply_all_publishes();
  ep.run_window("restored");

  ep.result().recovered_publishes = fm.recovered_publishes();
  ep.result().final_epoch = fm.committed_epoch();
  return ep.result();
}

}  // namespace
}  // namespace shs::bench

int main(int argc, char** argv) {
  using namespace shs;
  using namespace shs::bench;
  const std::string json_path = json_flag(argc, argv, "BENCH_fig18.json");
  const int packets_per_src = argc > 1 ? std::atoi(argv[1]) : 32;
  constexpr std::uint64_t kSeed = 0xf180;

  print_header("Fig 18",
               "controller crash -> journal replay -> staggered republish "
               "(fig18,<window>,bw_gbps,...)");

  const EpisodeResult episode = run_episode(packets_per_src, kSeed);
  const bool deterministic =
      episode == run_episode(packets_per_src, kSeed);

  const auto& baseline = episode.window("baseline");
  const auto& degraded = episode.window("degraded");
  const auto& republish = episode.window("republish");
  const auto& recovered = episode.window("recovered");
  const double degraded_ratio =
      baseline.bw_gbps > 0 ? degraded.bw_gbps / baseline.bw_gbps : 0.0;
  const double recovered_ratio =
      baseline.bw_gbps > 0 ? recovered.bw_gbps / baseline.bw_gbps : 0.0;
  std::uint64_t violations = 0;
  for (const auto& w : episode.windows) violations += w.violations;

  std::printf("fig18,degraded_vs_baseline,%.3f,recovered_vs_baseline,%.3f,"
              "stale_epoch_drops,%llu,recovered_publishes,%llu,"
              "violations,%llu\n",
              degraded_ratio, recovered_ratio,
              static_cast<unsigned long long>(republish.stale_epoch_drops),
              static_cast<unsigned long long>(episode.recovered_publishes),
              static_cast<unsigned long long>(violations));

  bool ok = deterministic;
  ok &= degraded_ratio >= 0.80;   // last-applied-epoch routing held up
  ok &= degraded.link_down_drops > 0;  // the loss window really opened
  ok &= republish.stale_epoch_drops > 0;  // fenced, never silent
  ok &= recovered_ratio >= 0.80;
  ok &= episode.recovered_publishes == 1;
  ok &= violations == 0;
  ok &= baseline.delivered > 0 && recovered.delivered > 0;
  std::printf("fig18,determinism,%s\n", deterministic ? "ok" : "BROKEN");
  std::printf("fig18,summary,%s\n", ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::vector<std::string> rows;
    for (const auto& w : episode.windows) {
      JsonObject row;
      row.add("window", w.name)
          .add("bw_gbps", w.bw_gbps)
          .add("delivered", w.delivered)
          .add("link_down_drops", w.link_down_drops)
          .add("stale_epoch_drops", w.stale_epoch_drops)
          .add("violations", w.violations);
      rows.push_back(row.str());
    }
    JsonObject doc;
    doc.add("bench", "fig18_control_plane_recovery")
        .add("packets_per_source", packets_per_src)
        .add("degraded_vs_baseline", degraded_ratio)
        .add("recovered_vs_baseline", recovered_ratio)
        .add("recovered_publishes", episode.recovered_publishes)
        .add("deterministic", deterministic)
        .add("pass", ok)
        .raw("results", json_array(rows));
    if (!write_json(json_path, doc.str())) ok = false;
  }
  return ok ? 0 : 1;
}
