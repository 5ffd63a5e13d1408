// fabric_permutation — bare forwarding on the fig16 fabric: a 256-node
// dragonfly (8 NICs/switch, 4 switches/group), UGAL, VNI enforcement on,
// zero timing jitter.  Two tenant VNIs sit on alternating NICs and every
// NIC sends to src + N/2 (a half-shift permutation, which stays inside
// its tenant because N/2 is even).  Sends are size-only, 64 B to 4 KiB,
// and posted on an open-loop virtual schedule (each NIC a seeded Poisson
// process at a fixed mean offered load over a fixed virtual horizon)
// through the synchronous walk, so post -> arrival_vt is a meaningful
// virtual latency.  The control plane, the fabric manager
// and reliability do no work here.
//
// The traced run also drives the same schedule through hsn::ShardEngine
// at 1 and min(4, nproc) workers: the sharded engine's per-layer numbers
// and its t1 == tN determinism check.
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "hsn/fabric.hpp"
#include "hsn/shard_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace shs;

constexpr std::size_t kNodes = 256;
/// Packet sizes are drawn uniformly from [kMinBytes, kMaxBytes]: the
/// smallest shows per-packet cost, the largest fills a fabric frame.
constexpr std::uint64_t kMinBytes = 64;
constexpr std::uint64_t kMaxBytes = 4096;
constexpr hsn::Vni kVni[2] = {4242, 4243};
/// Mean gap between one NIC's posts: ~2 KB every 10 us is ~1.7 Gb/s per
/// NIC.  The half shift funnels each group's 32 NICs toward one remote
/// group, so this keeps the global links below saturation: no growing
/// backlog, and latency reflects forwarding plus modest queueing.
constexpr double kMeanGapUs = 10.0;
/// Virtual horizon of the schedule: ~512 posts per NIC.
constexpr double kHorizonUs = 512 * kMeanGapUs;
/// Posts between RX drains (keeps every ring far below its capacity).
constexpr std::size_t kDrainEvery = 4096;
/// Posts between ShardEngine flushes.
constexpr std::size_t kFlushEvery = 8192;

struct Post {
  SimTime vt = 0;
  hsn::NicAddr src = 0;
  std::uint64_t bytes = 0;
};

/// The seeded open-loop schedule, sorted by (vt, src).
std::vector<Post> make_schedule(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Post> posts;
  posts.reserve(kNodes * static_cast<std::size_t>(kHorizonUs / kMeanGapUs));
  const auto gap = [&] { return -kMeanGapUs * std::log(1.0 - rng.uniform()); };
  for (std::size_t s = 0; s < kNodes; ++s) {
    for (double t = gap(); t < kHorizonUs; t += gap()) {
      const std::uint64_t bytes =
          kMinBytes + rng.uniform_u64(kMaxBytes - kMinBytes + 1);
      posts.push_back({from_micros(t), static_cast<hsn::NicAddr>(s), bytes});
    }
  }
  std::sort(posts.begin(), posts.end(), [](const Post& a, const Post& b) {
    return a.vt != b.vt ? a.vt < b.vt : a.src < b.src;
  });
  return posts;
}

struct SpanNames {
  std::uint32_t pass, setup, post, drain, engine_post, flush_t1, flush_tn;
};

struct Rig {
  std::unique_ptr<hsn::Fabric> fabric;
  std::vector<hsn::CassiniNic*> nics;
  std::vector<hsn::EndpointId> eps;
};

/// Fabric construction, per-port VNI authorization, endpoint alloc.
Rig build(std::uint64_t seed) {
  hsn::TopologyConfig topo;
  topo.kind = hsn::TopologyKind::kDragonfly;
  topo.routing = hsn::RoutingPolicy::kUgal;
  topo.nodes_per_switch = 8;
  topo.switches_per_group = 4;
  hsn::TimingConfig timing;
  timing.jitter_amplitude = 0.0;
  timing.run_bias_amplitude = 0.0;
  Rig rig;
  rig.fabric = hsn::Fabric::create(kNodes, timing, seed, topo);
  rig.fabric->set_enforcement(true);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto addr = static_cast<hsn::NicAddr>(i);
    const hsn::Vni vni = kVni[i % 2];
    if (!rig.fabric->switch_for(addr)->authorize_vni(addr, vni).is_ok()) {
      return {};
    }
    rig.nics.push_back(&rig.fabric->nic(addr));
    auto ep = rig.nics.back()->alloc_endpoint(vni,
                                              hsn::TrafficClass::kBulkData);
    if (!ep.is_ok()) return {};
    rig.eps.push_back(ep.value());
  }
  return rig;
}

hsn::NicAddr dst_of(hsn::NicAddr s) {
  return static_cast<hsn::NicAddr>((s + kNodes / 2) % kNodes);
}

/// Everything one pass observed.  Packets carry their schedule index in
/// `tag`, so post -> arrival latency needs no side table.
struct PassResult {
  double setup_s = 0;
  double host_s = 0;
  std::string error;
  std::uint64_t posted = 0, post_failed = 0, received = 0, hops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
  std::vector<double> lat_us;
  SimTime first_post = 0, last_arrival = 0;
  hsn::SwitchCounters sw;
  std::uint64_t rx_overflow = 0;
  double peak_lag_us = 0;
  hsn::ShardEngineStats engine;
  std::uint64_t engine_in_flight = 0, engine_attempts = 0;
};

class Receiver {
 public:
  Receiver(const std::vector<Post>& sched, PassResult& r)
      : sched_(sched), r_(r) {
    r_.lat_us.reserve(sched.size());
  }
  /// Polls every NIC's ring dry, recording latency and folding the
  /// arrival into the digest.
  void drain(Rig& rig, Tracer& tr, std::uint32_t span) {
    const std::int32_t idx = tr.begin(span, 0);
    const std::uint64_t before = r_.received;
    for (std::size_t d = 0; d < kNodes; ++d) {
      std::uint64_t n = 0;
      while (true) {
        auto pkt = rig.nics[d]->poll_rx(rig.eps[d]);
        if (!pkt.is_ok()) break;
        const hsn::Packet& p = pkt.value();
        const Post& post = sched_[p.tag];
        r_.lat_us.push_back(to_micros(p.arrival_vt - post.vt));
        r_.last_arrival = std::max(r_.last_arrival, p.arrival_vt);
        r_.hops += p.hops;
        r_.bytes += p.size_bytes;
        dig_.add(p.tag);
        dig_.add_signed(p.arrival_vt);
        ++n;
      }
      r_.received += n;
    }
    tr.end(idx, r_.received - before);
  }
  std::uint64_t digest() const { return dig_.h; }

 private:
  const std::vector<Post>& sched_;
  PassResult& r_;
  Digest dig_;
};

void finish(Rig& rig, PassResult& r, std::uint64_t digest) {
  r.sw = rig.fabric->total_counters();
  r.rx_overflow = rig.fabric->total_rx_overflow();
  r.peak_lag_us = to_micros(rig.fabric->peak_uplink_lag());
  Digest d;
  d.add(digest);
  d.add(r.sw.delivered);
  d.add(r.sw.dropped_total());
  d.add(r.sw.forwarded);
  d.add(r.sw.routed_nonminimal);
  r.digest = d.h;
}

/// One pass through the synchronous walk (the stack default).
PassResult sync_pass(std::uint64_t seed, const std::vector<Post>& sched,
                     Tracer& tr, const SpanNames& sn, std::uint64_t pass_no) {
  PassResult r;
  Scope pass_span(tr, sn.pass, pass_no);
  const std::int64_t s0 = host_ns();
  std::int32_t setup_idx = tr.begin(sn.setup, pass_no);
  Rig rig = build(seed);
  tr.end(setup_idx);
  r.setup_s = static_cast<double>(host_ns() - s0) * 1e-9;
  if (!rig.fabric) {
    r.error = "fabric set-up failed";
    return r;
  }

  Receiver rx(sched, r);
  r.first_post = sched.front().vt;
  const std::int64_t t0 = host_ns();
  for (std::size_t b = 0; b < sched.size(); b += kDrainEvery) {
    const std::size_t end = std::min(sched.size(), b + kDrainEvery);
    const std::int32_t idx = tr.begin(sn.post, b);
    for (std::size_t i = b; i < end; ++i) {
      const hsn::NicAddr s = sched[i].src;
      const hsn::NicAddr d = dst_of(s);
      const auto res = rig.nics[s]->post_send(rig.eps[s], d, rig.eps[d], i,
                                              sched[i].bytes, {}, sched[i].vt);
      ++r.posted;
      if (!res.is_ok()) ++r.post_failed;
    }
    tr.end(idx, end - b);
    rx.drain(rig, tr, sn.drain);
  }
  r.host_s = static_cast<double>(host_ns() - t0) * 1e-9;
  finish(rig, r, rx.digest());
  return r;
}

/// The same schedule through the sharded engine at `threads` workers.
PassResult engine_pass(std::uint64_t seed, const std::vector<Post>& sched,
                       int threads, std::uint32_t flush_span, Tracer& tr,
                       const SpanNames& sn) {
  PassResult r;
  Rig rig = build(seed);
  if (!rig.fabric) {
    r.error = "fabric set-up failed";
    return r;
  }
  hsn::ShardEngine engine(*rig.fabric, threads);
  Receiver rx(sched, r);
  r.first_post = sched.front().vt;
  const std::int64_t t0 = host_ns();
  std::int32_t batch = tr.begin(sn.engine_post, 0);
  std::uint64_t in_batch = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const hsn::NicAddr s = sched[i].src;
    const hsn::NicAddr d = dst_of(s);
    const Status st = engine.post_send(s, rig.eps[s], d, rig.eps[d], i,
                                       sched[i].bytes, sched[i].vt);
    ++r.posted;
    ++in_batch;
    if (!st.is_ok()) ++r.post_failed;
    if ((i + 1) % kFlushEvery == 0 || i + 1 == sched.size()) {
      tr.end(batch, in_batch);
      const std::int32_t fl = tr.begin(flush_span, i);
      engine.flush();
      tr.end(fl, in_batch);
      rx.drain(rig, tr, sn.drain);
      batch = tr.begin(sn.engine_post, i + 1);
      in_batch = 0;
    }
  }
  tr.end(batch, 0);
  r.host_s = static_cast<double>(host_ns() - t0) * 1e-9;
  r.engine = engine.stats();
  r.engine_in_flight = engine.in_flight();
  r.engine_attempts = engine.attempts_injected();
  finish(rig, r, rx.digest());
  return r;
}

std::map<std::string, double> conservation(const PassResult& r) {
  const hsn::SwitchCounters& c = r.sw;
  return {{"attempts", static_cast<double>(r.posted)},
          {"delivered", static_cast<double>(c.delivered)},
          {"received", static_cast<double>(r.received)},
          {"dropped_total", static_cast<double>(c.dropped_total())},
          {"rx_overflow", static_cast<double>(r.rx_overflow)},
          {"in_flight", static_cast<double>(r.engine_in_flight)},
          {"breakdown_sum", drop_breakdown(c)},
          {"post_failed", static_cast<double>(r.post_failed)}};
}

}  // namespace

std::string run_fabric_permutation(const Options& opt, Tracer& tr,
                                   Record& rec) {
  const SpanNames sn{tr.name("bench.pass"),
                     tr.name("hsn.fabric.construct"),
                     tr.name("hsn.nic.post_send"),
                     tr.name("hsn.nic.drain_rx"),
                     tr.name("hsn.shard_engine.post_send"),
                     tr.name("hsn.shard_engine.flush_t1"),
                     tr.name("hsn.shard_engine.flush_tn")};
  const std::uint64_t seed = mix64(opt.seed ^ 0xfab'5ULL);
  const std::vector<Post> sched = make_schedule(mix64(seed));
  // The traced run leaves half its time for the engine passes.
  const std::int64_t deadline =
      deadline_after(opt.trace ? opt.seconds / 2 : opt.seconds);
  const PassResult ref = run_passes(
      opt, tr, Budget{deadline, opt.trace ? 4 : 3, 400}, rec,
      [&](std::uint64_t n) { return sync_pass(seed, sched, tr, sn, n); });
  if (!ref.error.empty()) return ref.error;

  rec.attempted = ref.posted;
  rec.failed = ref.posted - std::min(ref.posted, ref.received);
  rec.checks["conservation"] = conservation(ref);

  const double vspan_s = to_seconds(ref.last_arrival - ref.first_post);
  rec.metrics["ops_per_s"] =
      static_cast<double>(ref.received) / median(rec.untraced_pass_host_s);
  rec.metrics["vt_p50_us"] = percentile(ref.lat_us, 50);
  rec.metrics["vt_p99_us"] = percentile(ref.lat_us, 99);
  rec.metrics["vt_ops_per_s"] =
      vspan_s > 0 ? static_cast<double>(ref.received) / vspan_s : 0;

  auto& c = rec.counters;
  const auto& sw = ref.sw;
  c["hsn.packets"] = static_cast<double>(ref.received);
  c["hsn.payload_bytes"] = static_cast<double>(ref.bytes);
  c["hsn.vt_span_s"] = vspan_s;
  c["hsn.goodput_gbps"] =
      vspan_s > 0 ? static_cast<double>(ref.bytes) * 8.0 / vspan_s / 1e9 : 0;
  c["hsn.switch.hops"] = static_cast<double>(ref.hops);
  c["hsn.switch.hops_per_pkt"] =
      ref.received ? static_cast<double>(ref.hops) /
                         static_cast<double>(ref.received)
                   : 0;
  // Switch traversals: the ingress switch plus one per inter-switch hop.
  c["hsn.switch.traversals"] = static_cast<double>(ref.hops + ref.received);
  c["hsn.switch.nonminimal"] = static_cast<double>(sw.routed_nonminimal);
  c["hsn.switch.nonminimal_frac"] =
      sw.delivered ? static_cast<double>(sw.routed_nonminimal) /
                         static_cast<double>(sw.delivered)
                   : 0;
  c["hsn.switch.peak_uplink_lag_us"] = ref.peak_lag_us;
  c["hsn.switch.drops.link_down"] = static_cast<double>(sw.dropped_link_down);
  c["hsn.switch.drops.no_route"] = static_cast<double>(sw.dropped_no_route);
  c["hsn.switch.drops.stale_epoch"] =
      static_cast<double>(sw.dropped_stale_epoch);
  c["hsn.switch.drops.src_unauthorized"] =
      static_cast<double>(sw.dropped_src_unauthorized);

  if (opt.trace) {
    // The sharded engine at 1 and min(4, nproc) workers over the same
    // schedule; per-seed results must be identical across thread counts.
    const int tn = static_cast<int>(
        std::max(1U, std::min(4U, std::thread::hardware_concurrency())));
    tr.enable(true);
    PassResult e1 = engine_pass(seed, sched, 1, sn.flush_t1, tr, sn);
    PassResult en = engine_pass(seed, sched, tn, sn.flush_tn, tr, sn);
    tr.enable(false);
    if (!e1.error.empty() || !en.error.empty()) return "engine set-up failed";
    auto cons1 = conservation(e1);
    rec.checks["engine_t1_conservation"] = cons1;
    rec.checks["engine_tn_conservation"] = conservation(en);
    rec.checks["engine"] = {
        {"threads", static_cast<double>(tn)},
        {"digest_t1_eq_tn", e1.digest == en.digest ? 1.0 : 0.0},
        {"attempts_t1", static_cast<double>(e1.engine_attempts)},
        {"attempts_tn", static_cast<double>(en.engine_attempts)},
        {"delivered_t1", static_cast<double>(e1.sw.delivered)},
        {"delivered_tn", static_cast<double>(en.sw.delivered)},
        {"dropped_t1", static_cast<double>(e1.sw.dropped_total())},
        {"dropped_tn", static_cast<double>(en.sw.dropped_total())}};
    const hsn::ShardEngineStats& st = en.engine;
    c["hsn.shard_engine.threads"] = static_cast<double>(tn);
    c["hsn.shard_engine.t1_host_s"] = e1.host_s;
    c["hsn.shard_engine.tn_host_s"] = en.host_s;
    c["hsn.shard_engine.sync_host_s"] = median(rec.untraced_pass_host_s);
    c["hsn.shard_engine.speedup_vs_sync"] =
        en.host_s > 0 ? median(rec.untraced_pass_host_s) / en.host_s : 0;
    c["hsn.shard_engine.windows"] = static_cast<double>(st.windows);
    c["hsn.shard_engine.items_stepped"] = static_cast<double>(st.items_stepped);
    c["hsn.shard_engine.items_per_window"] = st.items_per_window();
    const double fwd =
        static_cast<double>(st.cross_forwards + st.intra_forwards);
    c["hsn.shard_engine.forwards"] = fwd;
    c["hsn.shard_engine.cross_forward_frac"] =
        fwd > 0 ? static_cast<double>(st.cross_forwards) / fwd : 0;
    c["hsn.shard_engine.silent_barrier_frac"] =
        st.windows ? static_cast<double>(st.silent_barriers) /
                         static_cast<double>(st.windows)
                   : 0;
    c["hsn.shard_engine.pool_allocs"] =
        static_cast<double>(st.pool_hits + st.pool_misses);
    c["hsn.shard_engine.pool_hit_rate"] = st.pool_hit_rate();
  }
  return {};
}

}  // namespace perfbench
