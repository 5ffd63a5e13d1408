// tenant_churn_failover — multi-tenant churn on a ~1024-node dragonfly
// SlingshotStack with NIC reliability on, while a seeded schedule fails
// and restores links and switches.
//
// Tenants arrive as a steady stream of kPods-pod `vni: "true"` jobs; at
// most kLive are alive at once and the oldest is deleted when a new one
// is up (create/delete churn with few live objects).  Each pod process
// opens a netns-authenticated endpoint (exec_in_pod -> domain_for ->
// open_endpoint(pod VNI)) with a registered memory region, and every
// step each live tenant runs RMA writes, RMA reads and tagged sends with
// real payload bytes from each pod to the pod half a ring away, each
// verified byte for byte at the target region (writes), the initiator
// (reads) or the receive buffer (sends).  The scheduler packs a job onto
// neighbouring nodes, so the fabric has 4 NICs per switch: a tenant then
// spans two or three switches and often two dragonfly groups, and its
// traffic crosses local and global links.  Every new tenant also probes a neighbour tenant: an
// endpoint on the neighbour's VNI and an RMA write into its region must
// both be refused.
//
// Failures are injected through the fabric manager directly, right
// before a step's traffic: a link between switches that carry live
// tenants' traffic, or a switch that hosts no pod.  The benchmark calls
// FabricManager::repair() itself fm_reroute_delay later on the event
// loop, so replan + publish is timed from outside.  Ops that hit the
// failure window ride it out on the reliability layer's retransmits (the
// stack's retry hook advances the loop through each backoff, so the
// repair lands mid-retry); the retry budget is raised so that it
// outlasts the reroute delay and no op fails.
#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <unordered_map>

#include "bench.hpp"
#include "core/stack.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace shs;

constexpr std::size_t kNodes = 1024;
constexpr int kPods = 8;
constexpr std::size_t kLive = 4;
constexpr int kTenants = 32;  ///< tenants admitted per pass
/// Traffic rounds per live tenant per step; each round runs a write, a
/// read and a send from every pod.
constexpr int kRounds = 8;
constexpr std::size_t kOpBytes = 4096;
constexpr std::size_t kMrBytes = 16 * kOpBytes;
/// Failure actions start at this step and repeat every kFailEvery steps;
/// each is undone kFailEvery / 2 steps later.
constexpr int kFailEvery = 8;
constexpr SimDuration kAdmitTimeout = 120 * kSecond;
constexpr SimDuration kLoopStep = from_millis(20);

struct SpanNames {
  std::uint32_t pass, setup, submit, wait, open, write, read, send, progress,
      repair, remove;
};

struct PodEp {
  hsn::NicAddr nic = 0;
  std::unique_ptr<ofi::Endpoint> ep;
  std::vector<std::byte> mr;  ///< registered target region (never moves)
  hsn::RKey rkey = 0;
  core::SlingshotStack::PodHandle handle;
};

struct Tenant {
  int id = 0;
  k8s::Uid job = k8s::kNoUid;
  hsn::Vni vni = hsn::kInvalidVni;
  std::vector<std::unique_ptr<PodEp>> pods;
};

struct PassResult {
  double setup_s = 0;
  double host_s = 0;
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t ops = 0, ok = 0, failed = 0, mismatches = 0;
  std::uint64_t probes = 0, denied_open = 0, denied_edge = 0, breaches = 0;
  std::uint64_t events = 0, repairs = 0, live_pods_peak = 0;
  std::uint64_t ok_rma = 0;
  std::vector<double> lat_us;
  std::vector<double> create_to_bound, bound_to_running, submit_to_pod;
  double vt_span_s = 0, payload_bytes = 0;
  std::map<std::string, double> counters;
  std::map<std::string, std::map<std::string, double>> checks;
};

class Pass {
 public:
  Pass(std::uint64_t seed, Tracer& tr, const SpanNames& sn)
      : seed_(seed), tr_(tr), sn_(sn), rng_(mix64(seed ^ 0x0b5ULL)) {}

  PassResult run(std::uint64_t pass_no) {
    Scope pass_span(tr_, sn_.pass, pass_no);
    core::StackConfig cfg;
    cfg.nodes = kNodes;
    cfg.seed = seed_;
    cfg.topology.kind = hsn::TopologyKind::kDragonfly;
    cfg.topology.routing = hsn::RoutingPolicy::kUgal;
    cfg.topology.nodes_per_switch = 4;
    cfg.topology.switches_per_group = 4;
    cfg.reliability.enabled = true;
    cfg.reliability.seed = mix64(seed_ ^ 0x7e1ULL);
    // 8 retries back off for ~2.5 ms in total, less than the 5 ms
    // reroute delay; 12 outlast it, so an op caught in a failure window
    // completes on the repaired plan instead of failing.
    cfg.reliability.max_retries = 12;
    const std::int64_t s0 = host_ns();
    {
      Scope s(tr_, sn_.setup, pass_no);
      stack_ = std::make_unique<core::SlingshotStack>(cfg);
    }
    r_.setup_s = static_cast<double>(host_ns() - s0) * 1e-9;
    // The benchmark owns repair timing (see the file comment).
    for (const auto& l : stack_->fabric().plan()->links) {
      if (l.from < l.to) links_.emplace_back(l.from, l.to);
    }

    const std::int64_t t0 = host_ns();
    const SimTime vt0 = stack_->loop().now();
    for (int i = 0; i < kTenants && r_.error.empty(); ++i) step(i);
    while (!live_.empty() && r_.error.empty()) retire();
    r_.host_s = static_cast<double>(host_ns() - t0) * 1e-9;
    r_.vt_span_s = to_seconds(stack_->loop().now() - vt0);
    if (r_.error.empty()) finish();
    return std::move(r_);
  }

 private:
  // -- Control plane.

  std::size_t run_loop(SimDuration d) {
    const std::size_t n = stack_->loop().run_for(d);
    r_.events += n;
    return n;
  }

  /// Submits tenant `id` and runs the loop until all its pods run.
  std::unique_ptr<Tenant> admit(int id) {
    auto t = std::make_unique<Tenant>();
    t->id = id;
    core::JobOptions o;
    o.name = "tenant-" + std::to_string(id);
    o.vni_annotation = "true";
    o.pods = kPods;
    o.run_duration = 3600 * kSecond;  // runs until the benchmark deletes it
    o.grace_s = 5;
    const SimTime submitted = stack_->loop().now();
    Result<k8s::Uid> job = [&] {
      Scope s(tr_, sn_.submit, static_cast<std::uint64_t>(id));
      return stack_->submit_job(o);
    }();
    if (!job.is_ok()) {
      r_.error = "submit failed: " + job.status().to_string();
      return nullptr;
    }
    t->job = job.value();
    std::vector<k8s::Pod> pods;
    bool up = false;
    {
      const std::int32_t idx =
          tr_.begin(sn_.wait, static_cast<std::uint64_t>(id));
      const SimTime deadline = stack_->loop().now() + kAdmitTimeout;
      std::size_t events = 0;
      while (!up && stack_->loop().now() < deadline) {
        pods = stack_->pods_of_job(t->job);
        up = pods.size() == kPods &&
             std::all_of(pods.begin(), pods.end(), [](const k8s::Pod& p) {
               return p.status.phase == k8s::PodPhase::kRunning;
             });
        if (!up) events += run_loop(kLoopStep);
      }
      tr_.end(idx, events);
    }
    if (!up) {
      r_.error = "tenant " + std::to_string(id) + " pods not running";
      return nullptr;
    }
    std::size_t live_pods = 0;
    stack_->api().visit_pods([&](const k8s::Pod&) { ++live_pods; });
    r_.live_pods_peak = std::max<std::uint64_t>(r_.live_pods_peak, live_pods);
    for (const auto& p : pods) {
      r_.create_to_bound.push_back(
          to_micros(p.status.scheduled_vt - p.meta.creation_vt));
      r_.bound_to_running.push_back(
          to_micros(p.status.running_vt - p.status.scheduled_vt));
      r_.submit_to_pod.push_back(to_micros(p.meta.creation_vt - submitted));
      dig_.add(p.meta.uid);
      dig_.add_signed(p.status.running_vt);
      t->vni = p.status.vni;
    }
    for (const auto& p : pods) {
      auto pe = std::make_unique<PodEp>();
      auto h = stack_->exec_in_pod(p.meta.uid);
      if (!h.is_ok()) {
        r_.error = "exec_in_pod: " + h.status().to_string();
        return nullptr;
      }
      pe->handle = h.value();
      pe->nic = stack_->node(pe->handle.node_index).nic;
      Result<std::unique_ptr<ofi::Endpoint>> ep = [&] {
        Scope s(tr_, sn_.open, static_cast<std::uint64_t>(id));
        auto dom = stack_->domain_for(pe->handle);
        if (!dom.is_ok()) {
          return Result<std::unique_ptr<ofi::Endpoint>>(dom.status());
        }
        return dom.value().open_endpoint(p.status.vni);
      }();
      if (!ep.is_ok()) {
        r_.error = "open_endpoint: " + ep.status().to_string();
        return nullptr;
      }
      pe->ep = std::move(ep).value();
      pe->mr.resize(kMrBytes);
      fill(pe->mr);
      auto key = pe->ep->mr_reg(pe->mr);
      if (!key.is_ok()) {
        r_.error = "mr_reg: " + key.status().to_string();
        return nullptr;
      }
      pe->rkey = key.value();
      dig_.add(pe->nic);
      t->pods.push_back(std::move(pe));
    }
    return t;
  }

  void retire() {
    Scope s(tr_, sn_.remove, static_cast<std::uint64_t>(live_.front()->id));
    Tenant& t = *live_.front();
    for (auto& p : t.pods) {
      (void)p->ep->mr_close(p->rkey);
      p->ep.reset();
    }
    const Status st = stack_->delete_job(t.job);
    if (!st.is_ok()) r_.error = "delete_job: " + st.to_string();
    retired_.push_back(t.job);
    live_.pop_front();
  }

  // -- Failure schedule.

  /// Switches hosting any pod (live, terminating or pending): failing
  /// one of them would evict or strand pods, so switch failures avoid
  /// them.
  std::set<hsn::SwitchId> busy_switches() {
    std::unordered_map<std::string, hsn::SwitchId> home;
    for (std::size_t n = 0; n < stack_->node_count(); ++n) {
      home[stack_->node(n).name] =
          stack_->fabric().home_switch(stack_->node(n).nic);
    }
    std::set<hsn::SwitchId> busy;
    stack_->api().visit_pods([&](const k8s::Pod& p) {
      const auto it = home.find(p.status.node);
      if (it != home.end()) busy.insert(it->second);
    });
    return busy;
  }

  /// Links joining the home switches of two pods that exchange traffic
  /// (falling back to every link): failing one puts the step's traffic
  /// in its way.
  std::vector<std::pair<hsn::SwitchId, hsn::SwitchId>> traffic_links() {
    const hsn::Fabric& fab = stack_->fabric();
    std::set<std::pair<hsn::SwitchId, hsn::SwitchId>> pairs;
    for (const auto& t : live_) {
      for (std::size_t j = 0; j < t->pods.size(); ++j) {
        const hsn::SwitchId a = fab.home_switch(t->pods[j]->nic);
        const hsn::SwitchId b = fab.home_switch(
            t->pods[(j + kPods / 2) % kPods]->nic);
        if (a != b) pairs.emplace(std::min(a, b), std::max(a, b));
      }
    }
    std::vector<std::pair<hsn::SwitchId, hsn::SwitchId>> out;
    for (const auto& l : links_) {
      if (pairs.contains(l)) out.push_back(l);
    }
    return out.empty() ? links_ : out;
  }

  void schedule_repair() {
    stack_->loop().schedule_after(stack_->config().fm_reroute_delay, [this] {
      Scope s(tr_, sn_.repair, 0);
      dig_.add(stack_->fabric().manager().repair());
      ++r_.repairs;
    });
  }

  void inject(int step) {
    hsn::Fabric& fab = stack_->fabric();
    if (step >= kFailEvery && step % kFailEvery == kFailEvery / 2) {
      // Undo the previous action.
      const Status st = failed_switch_ != hsn::kInvalidSwitch
                            ? fab.restore_switch(failed_switch_)
                            : fab.restore_link(failed_link_.first,
                                               failed_link_.second);
      failed_switch_ = hsn::kInvalidSwitch;
      if (!st.is_ok()) r_.error = "restore: " + st.to_string();
      schedule_repair();
      return;
    }
    if (step < kFailEvery || step % kFailEvery != 0) return;
    Status st;
    if ((step / kFailEvery) % 2 == 1) {
      const auto cands = traffic_links();
      failed_link_ = cands[rng_.uniform_u64(cands.size())];
      st = fab.fail_link(failed_link_.first, failed_link_.second);
      dig_.add(failed_link_.first);
      dig_.add(failed_link_.second);
    } else {
      const auto busy = busy_switches();
      std::vector<hsn::SwitchId> idle;
      for (hsn::SwitchId s = 0; s < fab.switch_count(); ++s) {
        if (!busy.contains(s)) idle.push_back(s);
      }
      failed_switch_ = idle[rng_.uniform_u64(idle.size())];
      st = fab.fail_switch(failed_switch_);
      dig_.add(failed_switch_);
    }
    if (!st.is_ok()) r_.error = "fail: " + st.to_string();
    schedule_repair();
  }

  // -- Data plane.

  void fill(std::span<std::byte> buf) {
    for (std::size_t i = 0; i < buf.size(); i += sizeof(std::uint64_t)) {
      const std::uint64_t x = rng_.next();
      std::memcpy(buf.data() + i, &x,
                  std::min(sizeof x, buf.size() - i));
    }
  }

  /// Reads the CQ of `ep` up to the completion matching `pred`.  The
  /// synchronous walk has finished the op when its post returns, so a
  /// completion missing here never arrives.
  template <typename Pred>
  std::optional<ofi::Completion> await(ofi::Endpoint& ep, Pred pred) {
    const std::int32_t idx = tr_.begin(sn_.progress, 0);
    std::optional<ofi::Completion> hit;
    std::uint64_t n = 0;
    while (!hit) {
      auto c = ep.cq_read();
      if (!c) break;
      ++n;
      if (pred(*c)) hit = c;
    }
    tr_.end(idx, n);
    return hit;
  }

  void record(bool ok, bool verified, SimTime post_vt, SimTime done_vt,
              bool rma) {
    ++r_.ops;
    clock_ = std::max(clock_, done_vt);
    if (!ok) {
      ++r_.failed;
      dig_.add(0xfa11);
      return;
    }
    if (!verified) {
      ++r_.mismatches;
      ++r_.failed;
      return;
    }
    ++r_.ok;
    if (rma) ++r_.ok_rma;
    r_.payload_bytes += kOpBytes;
    r_.lat_us.push_back(to_micros(done_vt - post_vt));
    dig_.add_signed(done_vt - post_vt);
  }

  SimTime post_time() {
    clock_ = std::max(clock_, stack_->loop().now());
    return clock_;
  }

  void rma_write(PodEp& a, PodEp& b, std::uint64_t req) {
    std::vector<std::byte> payload(kOpBytes);
    fill(payload);
    const std::uint64_t off = rng_.uniform_u64(kMrBytes / kOpBytes) * kOpBytes;
    const SimTime vt = post_time();
    Result<std::uint64_t> op = [&] {
      Scope s(tr_, sn_.write, req);
      return a.ep->post_rma_write(b.nic, b.rkey, off, payload, kOpBytes, vt);
    }();
    if (!op.is_ok()) return record(false, false, vt, vt, true);
    auto c = await(*a.ep, [&](const ofi::Completion& x) {
      return x.op_id == op.value();
    });
    const bool ok = c && c->kind == ofi::Completion::Kind::kRmaWrite;
    const bool same =
        ok && std::memcmp(b.mr.data() + off, payload.data(), kOpBytes) == 0;
    record(ok, same, vt, ok ? c->vt : vt, true);
  }

  void rma_read(PodEp& a, PodEp& b, std::uint64_t req) {
    std::vector<std::byte> out(kOpBytes);
    const std::uint64_t off = rng_.uniform_u64(kMrBytes / kOpBytes) * kOpBytes;
    const SimTime vt = post_time();
    Result<std::uint64_t> op = [&] {
      Scope s(tr_, sn_.read, req);
      return a.ep->post_rma_read(b.nic, b.rkey, off, kOpBytes, out, vt);
    }();
    if (!op.is_ok()) return record(false, false, vt, vt, true);
    auto c = await(*a.ep, [&](const ofi::Completion& x) {
      return x.op_id == op.value();
    });
    const bool ok = c && c->kind == ofi::Completion::Kind::kRmaRead;
    const bool same =
        ok && std::memcmp(b.mr.data() + off, out.data(), kOpBytes) == 0;
    record(ok, same, vt, ok ? c->vt : vt, true);
  }

  void send(PodEp& a, PodEp& b, std::uint64_t req) {
    std::vector<std::byte> payload(kOpBytes), in(kOpBytes);
    fill(payload);
    const std::uint64_t tag = ++tag_;
    b.ep->post_trecv(tag, in, tag);
    const SimTime vt = post_time();
    Result<SimTime> st = [&] {
      Scope s(tr_, sn_.send, req);
      return a.ep->tsend(b.ep->addr(), tag, payload, kOpBytes, vt);
    }();
    if (!st.is_ok()) return record(false, false, vt, vt, false);
    auto c = await(*b.ep, [&](const ofi::Completion& x) {
      return x.kind == ofi::Completion::Kind::kRecv && x.context == tag;
    });
    const bool ok = c.has_value();
    const bool same =
        ok && std::memcmp(in.data(), payload.data(), kOpBytes) == 0;
    record(ok, same, vt, ok ? c->vt : vt, false);
  }

  void traffic(Tenant& t) {
    const auto req = static_cast<std::uint64_t>(t.id);
    for (int round = 0; round < kRounds; ++round) {
      for (int j = 0; j < kPods; ++j) {
        PodEp& a = *t.pods[static_cast<std::size_t>(j)];
        PodEp& b = *t.pods[static_cast<std::size_t>((j + kPods / 2) % kPods)];
        rma_write(a, b, req);
        rma_read(a, b, req);
        send(a, b, req);
      }
    }
  }

  /// Cross-tenant probes from `t` toward `victim`: both must be refused,
  /// and the victim's region must be untouched.
  void probe(Tenant& t, Tenant& victim) {
    PodEp& a = *t.pods[0];
    PodEp& v = *victim.pods[0];
    ++r_.probes;
    auto dom = stack_->domain_for(a.handle);
    if (dom.is_ok() && !dom.value().open_endpoint(victim.vni).is_ok()) {
      ++r_.denied_open;
    } else {
      ++r_.breaches;
    }
    ++r_.probes;
    const std::vector<std::byte> before = v.mr;
    std::vector<std::byte> junk(kOpBytes, std::byte{0x5a});
    const SimTime vt = stack_->loop().now();
    auto op = a.ep->post_rma_write(v.nic, v.rkey, 0, junk, kOpBytes, vt);
    bool refused = !op.is_ok();
    if (!refused) {
      auto c = await(*a.ep, [&](const ofi::Completion& x) {
        return x.op_id == op.value();
      });
      refused = c && c->kind == ofi::Completion::Kind::kError;
    }
    if (refused && v.mr == before) {
      ++r_.denied_edge;
    } else {
      ++r_.breaches;
    }
  }

  void step(int i) {
    auto t = admit(i);
    if (!t) return;
    live_.push_back(std::move(t));
    inject(i);
    for (auto& lt : live_) traffic(*lt);
    if (live_.size() > 1) probe(*live_.back(), *live_[live_.size() - 2]);
    if (live_.size() > kLive) retire();
  }

  /// Drains the churn, then reads every layer's counters and checks.
  void finish() {
    for (const k8s::Uid job : retired_) {
      const SimTime deadline = stack_->loop().now() + kAdmitTimeout;
      while (stack_->api().get_job(job).is_ok() &&
             stack_->loop().now() < deadline) {
        run_loop(kLoopStep);
      }
    }
    std::size_t jobs_left = 0, pods_left = 0;
    stack_->api().visit_jobs([&](const k8s::Job&) { ++jobs_left; });
    stack_->api().visit_pods([&](const k8s::Pod&) { ++pods_left; });

    hsn::Fabric& fab = stack_->fabric();
    const hsn::SwitchCounters sw = fab.total_counters();
    const hsn::ReliabilityCounters rel = fab.reliability_totals();
    std::uint64_t tx = 0, vni_mismatch = 0, nacks = 0;
    for (std::size_t n = 0; n < fab.node_count(); ++n) {
      const auto nc = fab.nic(static_cast<hsn::NicAddr>(n)).counters();
      tx += nc.tx_packets;
      vni_mismatch += nc.rx_vni_mismatch;
      nacks += nc.rma_denied;
    }
    const auto& vc = stack_->vni_endpoint().counters();
    std::uint64_t unavailable_adds = 0;
    for (std::size_t n = 0; n < stack_->node_count(); ++n) {
      if (const auto& cni = stack_->node(n).cxi_cni) {
        unavailable_adds += cni->counters().unavailable_adds;
      }
    }
    dig_.add(sw.delivered);
    dig_.add(sw.dropped_total());
    dig_.add(rel.retransmits);
    dig_.add(fab.plan_version());
    r_.digest = dig_.h;

    // Fabric attempts: the NICs' tx_packets count every request and
    // every retransmit, but a target's first reply to an accepted RMA
    // request (ACK, read response or NACK) is injected uncounted — one
    // per completed RMA op plus one per NACK.
    r_.checks["conservation"] = {
        {"attempts", static_cast<double>(tx + r_.ok_rma + nacks)},
        {"tx_packets", static_cast<double>(tx)},
        {"replies", static_cast<double>(r_.ok_rma + nacks)},
        {"delivered", static_cast<double>(sw.delivered)},
        {"dropped_total", static_cast<double>(sw.dropped_total())},
        {"rx_overflow", static_cast<double>(fab.total_rx_overflow())},
        {"in_flight", 0.0},
        {"breakdown_sum", drop_breakdown(sw)}};
    r_.checks["isolation"] = {
        {"probes", static_cast<double>(r_.probes)},
        {"denied_open", static_cast<double>(r_.denied_open)},
        {"denied_edge", static_cast<double>(r_.denied_edge)},
        {"delivered", static_cast<double>(r_.breaches)},
        {"rx_vni_mismatch", static_cast<double>(vni_mismatch)}};
    r_.checks["payload"] = {
        {"ops", static_cast<double>(r_.ops)},
        {"ok", static_cast<double>(r_.ok)},
        {"failed", static_cast<double>(r_.failed)},
        {"mismatches", static_cast<double>(r_.mismatches)}};
    r_.checks["churn"] = {
        {"tenants", static_cast<double>(kTenants)},
        {"jobs_left", static_cast<double>(jobs_left)},
        {"pods_left", static_cast<double>(pods_left)},
        {"acquisitions", static_cast<double>(vc.acquisitions)},
        {"releases", static_cast<double>(vc.releases)},
        {"repairs", static_cast<double>(r_.repairs)},
        {"failures_outstanding",
         static_cast<double>(fab.manager().failed_link_count() +
                             fab.manager().failed_switch_count())}};

    auto& c = r_.counters;
    const auto ops = static_cast<double>(r_.ops);
    const auto per_op = [&](std::uint64_t v) {
      return ops > 0 ? static_cast<double>(v) / ops : 0.0;
    };
    c["ops"] = ops;
    c["k8s.api.live_pods_peak"] = static_cast<double>(r_.live_pods_peak);
    c["sim.events"] = static_cast<double>(r_.events);
    c["sim.events_per_op"] = per_op(r_.events);
    c["admit.samples"] = static_cast<double>(r_.create_to_bound.size());
    c["admit.vt_create_to_bound_us.p50"] = percentile(r_.create_to_bound, 50);
    c["admit.vt_create_to_bound_us.p99"] = percentile(r_.create_to_bound, 99);
    c["admit.vt_bound_to_running_us.p50"] = percentile(r_.bound_to_running, 50);
    c["admit.vt_bound_to_running_us.p99"] = percentile(r_.bound_to_running, 99);
    c["admit.vt_submit_to_pod_us.p50"] = percentile(r_.submit_to_pod, 50);
    c["admit.vt_submit_to_pod_us.p99"] = percentile(r_.submit_to_pod, 99);
    c["core.vni_endpoint.sync_job"] = static_cast<double>(vc.sync_job);
    c["core.vni_endpoint.acquisitions"] = static_cast<double>(vc.acquisitions);
    c["core.vni_endpoint.releases"] = static_cast<double>(vc.releases);
    c["core.vni_endpoint.sync_job_per_job"] =
        vc.acquisitions ? static_cast<double>(vc.sync_job) /
                              static_cast<double>(vc.acquisitions)
                        : 0;
    c["core.cxi_cni.unavailable_adds"] = static_cast<double>(unavailable_adds);
    c["core.cxi_cni.pods"] = static_cast<double>(kTenants * kPods);
    c["core.cxi_cni.unavailable_adds_per_pod"] =
        static_cast<double>(unavailable_adds) / (kTenants * kPods);
    c["hsn.packets"] = static_cast<double>(sw.delivered);
    c["hsn.payload_bytes"] = r_.payload_bytes;
    c["hsn.vt_span_s"] = r_.vt_span_s;
    c["hsn.goodput_gbps"] =
        r_.vt_span_s > 0 ? r_.payload_bytes * 8.0 / r_.vt_span_s / 1e9 : 0;
    c["hsn.switch.hops"] = static_cast<double>(sw.forwarded);
    c["hsn.switch.hops_per_pkt"] =
        sw.delivered ? static_cast<double>(sw.forwarded) /
                           static_cast<double>(sw.delivered)
                     : 0;
    c["hsn.switch.traversals"] =
        static_cast<double>(sw.forwarded + sw.delivered + sw.dropped_total());
    c["hsn.switch.nonminimal"] = static_cast<double>(sw.routed_nonminimal);
    c["hsn.switch.nonminimal_frac"] =
        sw.delivered ? static_cast<double>(sw.routed_nonminimal) /
                           static_cast<double>(sw.delivered)
                     : 0;
    c["hsn.switch.peak_uplink_lag_us"] = to_micros(fab.peak_uplink_lag());
    c["hsn.switch.drops.link_down"] = per_op(sw.dropped_link_down);
    c["hsn.switch.drops.no_route"] = per_op(sw.dropped_no_route);
    c["hsn.switch.drops.stale_epoch"] = per_op(sw.dropped_stale_epoch);
    c["hsn.switch.drops.src_unauthorized"] =
        per_op(sw.dropped_src_unauthorized);
    c["hsn.reliability.retransmits"] = static_cast<double>(rel.retransmits);
    c["hsn.reliability.retransmits_per_op"] = per_op(rel.retransmits);
    c["hsn.reliability.duplicates"] = static_cast<double>(rel.duplicates);
    c["hsn.reliability.budget_exhausted"] =
        static_cast<double>(rel.budget_exhausted);
    c["hsn.reliability.recovered_after_replan"] =
        static_cast<double>(rel.recovered_after_replan);
    c["hsn.reliability.useful_frac"] =
        ops > 0 ? static_cast<double>(r_.ok) /
                      (ops + static_cast<double>(rel.retransmits))
                : 0;
    c["hsn.fabric_manager.repairs"] = static_cast<double>(r_.repairs);
    c["hsn.fabric_manager.plan_version"] =
        static_cast<double>(fab.plan_version());
  }

  std::uint64_t seed_;
  Tracer& tr_;
  const SpanNames& sn_;
  Rng rng_;
  std::unique_ptr<core::SlingshotStack> stack_;
  std::deque<std::unique_ptr<Tenant>> live_;
  std::vector<k8s::Uid> retired_;
  std::vector<std::pair<hsn::SwitchId, hsn::SwitchId>> links_;
  std::pair<hsn::SwitchId, hsn::SwitchId> failed_link_{};
  hsn::SwitchId failed_switch_ = hsn::kInvalidSwitch;
  std::uint64_t tag_ = 0;
  /// The application clock: ops run back to back across all tenants,
  /// each posted when the previous one completed (never before the
  /// loop's now()), so no op overtakes another in virtual time.
  SimTime clock_ = 0;
  Digest dig_;
  PassResult r_;
};

}  // namespace

std::string run_tenant_churn_failover(const Options& opt, Tracer& tr,
                                      Record& rec) {
  const SpanNames sn{
      tr.name("bench.pass"),          tr.name("core.stack.construct"),
      tr.name("k8s.submit_job"),      tr.name("sim.run_until_running"),
      tr.name("cxi.open_endpoint"),   tr.name("ofi.post_rma_write"),
      tr.name("ofi.post_rma_read"),   tr.name("ofi.tsend"),
      tr.name("ofi.progress"),        tr.name("hsn.fabric_manager.repair"),
      tr.name("k8s.delete_job")};
  const std::uint64_t seed = mix64(opt.seed ^ 0xc42ULL);
  // A traced pass records ~100 k spans: three of each kind suffice.
  const PassResult ref = run_passes(
      opt, tr,
      Budget{deadline_after(opt.seconds), opt.trace ? 2 : 1,
             opt.trace ? 6 : 64},
      rec, [&](std::uint64_t n) { return Pass(seed, tr, sn).run(n); });
  if (!ref.error.empty()) return ref.error;

  rec.attempted = ref.ops;
  rec.failed = ref.failed;
  rec.counters = ref.counters;
  rec.checks.insert(ref.checks.begin(), ref.checks.end());
  rec.metrics["ops_per_s"] =
      static_cast<double>(ref.ok) / median(rec.untraced_pass_host_s);
  rec.metrics["vt_p50_us"] = percentile(ref.lat_us, 50);
  rec.metrics["vt_p99_us"] = percentile(ref.lat_us, 99);
  rec.metrics["vt_ops_per_s"] =
      ref.vt_span_s > 0 ? static_cast<double>(ref.ok) / ref.vt_span_s : 0;
  return {};
}

}  // namespace perfbench
