// admission_spike — the paper's spike test (fig11/fig12) as a benchmark
// workload: the 2-node, single-switch testbed receives kJobs single-pod
// `vni: "true"` jobs (echo + alpine, 100 ms, ttl_after_finished_s = 0)
// at virtual t = 0, open loop, and runs until every job is admitted and
// gone.  The control plane (k8s, the VNI endpoint / CXI CNI / registry,
// the database and the event loop) does all the work; the data plane
// does none.
#include <unordered_map>

#include "bench.hpp"
#include "core/stack.hpp"

namespace perfbench {
namespace {

using namespace shs;

constexpr int kJobs = 1000;
constexpr SimDuration kMaxVirtual = 15 * 60 * kSecond;

struct PodTimes {
  k8s::Uid job = k8s::kNoUid;
  SimTime created = 0;
  SimTime scheduled = 0;
  SimTime running = -1;  ///< -1 until the pod is first seen Running
};

struct SpanNames {
  std::uint32_t pass, setup, submit, run;
};

struct PassResult {
  double setup_s = 0;
  double host_s = 0;  ///< submission + event loop until the spike drains
  std::uint64_t digest = 0;
  std::string error;
  std::uint64_t admitted = 0;
  std::map<std::string, double> counters;
  std::map<std::string, std::map<std::string, double>> checks;
  std::vector<double> job_vt_us;  ///< submit -> first pod Running
  double vt_last_admit_s = 0;
};

/// Free VNIs: the registry's range minus allocated and still-quarantined.
double free_vnis(core::SlingshotStack& stack, SimTime now) {
  const auto& cfg = stack.config().vni;
  const double range = static_cast<double>(cfg.vni_max - cfg.vni_min + 1);
  return range - static_cast<double>(stack.registry().allocated_count()) -
         static_cast<double>(stack.registry().quarantined_count(now));
}

PassResult run_pass(std::uint64_t seed, Tracer& tr, const SpanNames& sn,
                    std::uint64_t pass_no) {
  PassResult r;
  Scope pass_span(tr, sn.pass, pass_no);
  core::StackConfig cfg;
  cfg.seed = seed;
  const std::int64_t s0 = host_ns();
  std::int32_t setup_idx = tr.begin(sn.setup, pass_no);
  core::SlingshotStack stack(cfg);
  tr.end(setup_idx);
  r.setup_s = static_cast<double>(host_ns() - s0) * 1e-9;
  const double free_start = free_vnis(stack, stack.loop().now());

  // Per-pod stage times and the live-pod high-water mark, from the pod
  // watch stream (jobs delete themselves, so record as events arrive).
  std::unordered_map<k8s::Uid, PodTimes> pods;
  std::int64_t live = 0, live_peak = 0;
  stack.api().watch_pods([&](const k8s::WatchEvent<k8s::Pod>& ev) {
    const k8s::Pod& p = ev.object;
    if (ev.type == k8s::WatchEventType::kAdded) {
      live_peak = std::max(live_peak, ++live);
      pods[p.meta.uid] = {p.meta.owner_uid, p.meta.creation_vt, 0, -1};
      return;
    }
    if (ev.type == k8s::WatchEventType::kDeleted) --live;
    auto it = pods.find(p.meta.uid);
    if (it == pods.end()) return;
    if (p.status.scheduled_vt > 0) it->second.scheduled = p.status.scheduled_vt;
    if (it->second.running < 0 && p.status.running_vt > 0) {
      it->second.running = p.status.running_vt;
    }
  });

  const std::int64_t t0 = host_ns();
  std::vector<k8s::Uid> jobs;
  jobs.reserve(kJobs);
  std::uint64_t submit_failed = 0;
  for (int i = 0; i < kJobs; ++i) {
    core::JobOptions o;
    o.name = "spike-" + std::to_string(i);
    o.vni_annotation = "true";
    o.pods = 1;
    o.run_duration = from_millis(100);
    o.grace_s = 5;
    o.ttl_after_finished_s = 0;
    Result<k8s::Uid> uid = [&] {
      Scope s(tr, sn.submit, static_cast<std::uint64_t>(i));
      return stack.submit_job(o);
    }();
    if (uid.is_ok()) {
      jobs.push_back(uid.value());
    } else {
      ++submit_failed;
    }
  }

  // One simulated second per step: host time and events per step are
  // sampled against the live-pod count (the reconcile-cost slope).
  std::uint64_t events = 0;
  std::int64_t loop_ns = 0;
  std::vector<double> ms_per_vs, live_at;
  bool drained = false;
  while (stack.loop().now() < kMaxVirtual) {
    std::size_t alive = 0;
    stack.api().visit_jobs([&](const k8s::Job&) { ++alive; });
    if (alive == 0) {
      drained = true;
      break;
    }
    const double live_now = static_cast<double>(live);
    const std::int64_t h0 = host_ns();
    std::int32_t run_idx = tr.begin(sn.run, 0);
    const std::size_t n = stack.loop().run_for(kSecond);
    tr.end(run_idx, n);
    events += n;
    const std::int64_t dt = host_ns() - h0;
    loop_ns += dt;
    ms_per_vs.push_back(static_cast<double>(dt) * 1e-6);
    live_at.push_back(live_now);
  }
  r.host_s = static_cast<double>(host_ns() - t0) * 1e-9;
  const SimTime drain_vt = stack.loop().now();

  // Outcome per job (submission order), folded into the digest.
  std::unordered_map<k8s::Uid, const PodTimes*> first_pod;
  for (const auto& [uid, t] : pods) {
    auto& slot = first_pod[t.job];
    if (slot == nullptr || t.running >= 0) slot = &t;
  }
  Digest d;
  SimTime last_admit = 0;
  std::vector<double> create_to_bound, bound_to_running, submit_to_pod;
  for (const k8s::Uid job : jobs) {
    const auto it = first_pod.find(job);
    if (it == first_pod.end() || it->second->running < 0) {
      d.add(0);
      continue;
    }
    const PodTimes& t = *it->second;
    ++r.admitted;
    last_admit = std::max(last_admit, t.running);
    r.job_vt_us.push_back(to_micros(t.running));  // submitted at vt 0
    create_to_bound.push_back(to_micros(t.scheduled - t.created));
    bound_to_running.push_back(to_micros(t.running - t.scheduled));
    submit_to_pod.push_back(to_micros(t.created));
    d.add_signed(t.created);
    d.add_signed(t.scheduled);
    d.add_signed(t.running);
  }
  const auto& vc = stack.vni_endpoint().counters();
  d.add(vc.acquisitions);
  d.add(vc.releases);
  d.add_signed(drain_vt);
  d.add(events);
  r.digest = d.h;
  r.vt_last_admit_s = to_seconds(last_admit);

  std::uint64_t unavailable_adds = 0, services = 0;
  for (std::size_t n = 0; n < stack.node_count(); ++n) {
    if (const auto& cni = stack.node(n).cxi_cni) {
      unavailable_adds += cni->counters().unavailable_adds;
      services += cni->counters().services_created;
    }
  }
  std::size_t pods_left = 0;
  stack.api().visit_pods([&](const k8s::Pod&) { ++pods_left; });
  const std::size_t allocated_end = stack.registry().allocated_count();
  // Released VNIs sit in quarantine; past its window the free count must
  // be back where it started (untimed).
  stack.loop().run_for(stack.config().vni.quarantine + kSecond);
  const double free_end = free_vnis(stack, stack.loop().now());

  auto& c = r.counters;
  c["k8s.api.live_pods_peak"] = static_cast<double>(live_peak);
  c["sim.events"] = static_cast<double>(events);
  c["sim.loop_host_ns"] = static_cast<double>(loop_ns);
  c["sim.host_ns_per_event"] =
      events ? static_cast<double>(loop_ns) / static_cast<double>(events) : 0;
  c["sim.events_per_op"] =
      r.admitted ? static_cast<double>(events) / static_cast<double>(r.admitted)
                 : 0;
  c["sim.host_ms_per_vs.p50"] = median(ms_per_vs);
  c["sim.host_ms_per_vs.samples"] = static_cast<double>(ms_per_vs.size());
  // Least-squares slope of host ms per simulated second against live
  // pods, per 1000 pods: how reconcile cost grows with cluster state.
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < live_at.size(); ++i) {
    mx += live_at[i];
    my += ms_per_vs[i];
  }
  double sxy = 0, sxx = 0;
  if (!live_at.empty()) {
    mx /= static_cast<double>(live_at.size());
    my /= static_cast<double>(live_at.size());
    for (std::size_t i = 0; i < live_at.size(); ++i) {
      sxy += (live_at[i] - mx) * (ms_per_vs[i] - my);
      sxx += (live_at[i] - mx) * (live_at[i] - mx);
    }
  }
  c["sim.host_ms_per_vs.slope_per_kpod"] = sxx > 0 ? 1000.0 * sxy / sxx : 0;
  c["admit.vt_create_to_bound_us.p50"] = percentile(create_to_bound, 50);
  c["admit.vt_create_to_bound_us.p99"] = percentile(create_to_bound, 99);
  c["admit.vt_bound_to_running_us.p50"] = percentile(bound_to_running, 50);
  c["admit.vt_bound_to_running_us.p99"] = percentile(bound_to_running, 99);
  c["admit.vt_submit_to_pod_us.p50"] = percentile(submit_to_pod, 50);
  c["admit.vt_submit_to_pod_us.p99"] = percentile(submit_to_pod, 99);
  c["admit.samples"] = static_cast<double>(r.admitted);
  c["core.vni_endpoint.sync_job"] = static_cast<double>(vc.sync_job);
  c["core.vni_endpoint.acquisitions"] = static_cast<double>(vc.acquisitions);
  c["core.vni_endpoint.releases"] = static_cast<double>(vc.releases);
  c["core.vni_endpoint.sync_job_per_job"] =
      vc.acquisitions ? static_cast<double>(vc.sync_job) /
                            static_cast<double>(vc.acquisitions)
                      : 0;
  c["core.cxi_cni.unavailable_adds"] = static_cast<double>(unavailable_adds);
  c["core.cxi_cni.pods"] = static_cast<double>(pods.size());
  c["core.cxi_cni.unavailable_adds_per_pod"] =
      pods.empty() ? 0
                   : static_cast<double>(unavailable_adds) /
                         static_cast<double>(pods.size());
  c["core.cxi_cni.services_created"] = static_cast<double>(services);

  r.checks["admission"] = {
      {"jobs", kJobs},
      {"submitted", static_cast<double>(jobs.size())},
      {"submit_failed", static_cast<double>(submit_failed)},
      {"admitted", static_cast<double>(r.admitted)},
      {"drained", drained ? 1.0 : 0.0},
      {"jobs_left", static_cast<double>(drained ? 0 : 1)},
      {"pods_left", static_cast<double>(pods_left)},
      {"acquisitions", static_cast<double>(vc.acquisitions)},
      {"releases", static_cast<double>(vc.releases)},
      {"allocated_end", static_cast<double>(allocated_end)},
      {"free_start", free_start},
      {"free_end", free_end},
  };
  return r;
}

}  // namespace

std::string run_admission_spike(const Options& opt, Tracer& tr,
                                Record& rec) {
  const SpanNames sn{tr.name("bench.pass"), tr.name("core.stack.construct"),
                     tr.name("k8s.submit_job"), tr.name("sim.run_for")};
  const std::uint64_t seed = mix64(opt.seed ^ 0xad31'55ULL);
  const PassResult ref = run_passes(
      opt, tr, Budget{deadline_after(opt.seconds), opt.trace ? 2 : 1, 64}, rec,
      [&](std::uint64_t n) { return run_pass(seed, tr, sn, n); });

  rec.attempted = kJobs;
  rec.failed = kJobs - ref.admitted;
  rec.counters = ref.counters;
  rec.checks.insert(ref.checks.begin(), ref.checks.end());
  rec.metrics["ops_per_s"] =
      static_cast<double>(ref.admitted) / median(rec.untraced_pass_host_s);
  rec.metrics["vt_p50_us"] = percentile(ref.job_vt_us, 50);
  rec.metrics["vt_p99_us"] = percentile(ref.job_vt_us, 99);
  rec.metrics["vt_ops_per_s"] =
      ref.vt_last_admit_s > 0
          ? static_cast<double>(ref.admitted) / ref.vt_last_admit_s
          : 0;
  return {};
}

}  // namespace perfbench
