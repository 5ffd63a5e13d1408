#include "core/stack.hpp"

#include <algorithm>
#include <cstdint>

#include "core/webhook_codec.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::core {

namespace {
constexpr const char* kTag = "stack";
}

SlingshotStack::SlingshotStack(StackConfig config)
    : config_(config), master_rng_(config.seed) {
  api_ = std::make_unique<k8s::ApiServer>(loop_, config_.k8s_params);
  fabric_ = hsn::Fabric::create(config_.nodes, config_.timing,
                                master_rng_.next(), config_.topology);
  if (config_.data_plane_threads > 0) {
    shard_engine_ = std::make_unique<hsn::ShardEngine>(
        *fabric_, config_.data_plane_threads);
  }
  db_ = std::make_unique<db::Database>();
  registry_ = std::make_unique<VniRegistry>(*db_, config_.vni);
  endpoint_ = std::make_unique<VniEndpoint>(*registry_, loop_);

  // Per-node stacks.  The kubelets share one sync round and register
  // with it in node order.
  kubelet_round_ = std::make_unique<k8s::KubeletRound>(
      loop_, api_->params().kubelet_sync_period);
  std::vector<std::string> node_names;
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->name = strfmt("node-%zu", i);
    node->nic = static_cast<hsn::NicAddr>(i);
    node->kernel = std::make_unique<linuxsim::Kernel>();
    // Each node's driver programs VNI ACLs on its *own* edge switch.
    node->driver = std::make_unique<cxi::CxiDriver>(
        *node->kernel, fabric_->nic(node->nic),
        fabric_->switch_for(node->nic), config_.auth_mode);
    node->runtime = std::make_unique<cri::ContainerRuntime>(
        *node->kernel, node->name, api_->params(), master_rng_.fork());
    node->bridge_cni = std::make_shared<cri::BridgeCni>(
        *node->kernel, api_->params(), master_rng_.fork());
    node->runtime->add_cni_plugin(node->bridge_cni);
    if (config_.install_cxi_cni) {
      node->cxi_cni = std::make_shared<CxiCniPlugin>(
          *api_, *node->driver, node->root_pid, master_rng_.fork());
      node->runtime->add_cni_plugin(node->cxi_cni);
    }
    node->kubelet = std::make_unique<k8s::Kubelet>(
        *api_, node->name, *node->runtime, master_rng_.fork(),
        *kubelet_round_);
    node_names.push_back(node->name);
    nodes_.push_back(std::move(node));
  }

  // Cluster-wide controllers.
  job_controller_ =
      std::make_unique<k8s::JobController>(*api_, master_rng_.fork());
  job_controller_->start();
  std::unordered_map<std::string, std::uint32_t> node_switch;
  for (const auto& node : nodes_) {
    node_switch[node->name] = fabric_->home_switch(node->nic);
  }
  scheduler_ = std::make_unique<k8s::Scheduler>(
      *api_, node_names, master_rng_.fork(), std::move(node_switch));
  // Bind telemetry: when a spread group must straddle switches, record
  // how congested the inter-switch links are at that moment.
  scheduler_->set_congestion_probe(
      [this] { return fabric_->max_uplink_lag(loop_.now()); });
  // Fabric health is a first-class scheduling input: the scheduler skips
  // nodes behind unhealthy switches and drains pods whose home switch
  // died.
  scheduler_->set_switch_health_probe([this](std::uint32_t s) {
    return fabric_->switch_health(s) == hsn::SwitchHealth::kHealthy;
  });
  scheduler_->start();

  // Data-plane failures repair through the event loop (detection +
  // reprogramming delay), not synchronously at injection time.
  fabric_->manager().set_auto_repair(false);
  // Control-plane crash safety: the fabric manager journals failure
  // events and publish intents alongside the VNI ground truth, so a
  // controller crash recovers from the same ACID store (its table is
  // private; the registry never scans it).
  fabric_->manager().attach_journal(*db_);
  if (config_.publish_stagger > 0) {
    fabric_->manager().set_publish_stagger(
        {true, config_.publish_stagger, config_.seed ^ 0x57a66e5ULL});
  }
  if (config_.fm_watchdog) start_fm_watchdog();

  if (config_.reliability.enabled) {
    fabric_->set_reliability(config_.reliability);
    // Retransmit timers live on the event loop's clock: each backoff
    // advances the loop, so a scheduled repair (schedule_reroute) can
    // fire mid-retry and the retransmit completes on the new tables.
    // The running() guard makes the hook a no-op if a send ever happens
    // inside a loop callback.
    fabric_->set_retry_hook([this](int /*attempt*/, SimDuration backoff) {
      if (!loop_.running()) loop_.run_for(backoff);
    });
  }

  // The real VNI Endpoint is an HTTP service; the hooks round-trip every
  // request and response through the JSON webhook codec so the
  // serialization boundary is honest (no shared pointers between the
  // controller and the endpoint).
  k8s::DecoratorController::Hooks hooks;
  hooks.sync_job =
      [this](const k8s::Job& j) -> Result<std::vector<k8s::VniObject>> {
    using R = Result<std::vector<k8s::VniObject>>;
    auto request = webhook::Json::parse(webhook::encode_job(j).dump());
    if (!request.is_ok()) return R(request.status());
    auto job = webhook::decode_job(request.value());
    if (!job.is_ok()) return R(job.status());
    auto children = endpoint_->sync_job(job.value());
    if (!children.is_ok()) return children;
    auto response = webhook::Json::parse(
        webhook::encode_children(children.value()).dump());
    if (!response.is_ok()) return R(response.status());
    return webhook::decode_children(response.value());
  };
  hooks.finalize_job = [this](const k8s::Job& j) -> Result<bool> {
    auto request = webhook::Json::parse(webhook::encode_job(j).dump());
    if (!request.is_ok()) return Result<bool>(request.status());
    auto job = webhook::decode_job(request.value());
    if (!job.is_ok()) return Result<bool>(job.status());
    auto fin = endpoint_->finalize_job(job.value());
    if (!fin.is_ok()) return fin;
    auto response = webhook::Json::parse(
        webhook::encode_finalized(fin.value()).dump());
    if (!response.is_ok()) return Result<bool>(response.status());
    return webhook::decode_finalized(response.value());
  };
  hooks.sync_claim = [this](const k8s::VniClaim& c)
      -> Result<std::vector<k8s::VniObject>> {
    using R = Result<std::vector<k8s::VniObject>>;
    auto request = webhook::Json::parse(webhook::encode_claim(c).dump());
    if (!request.is_ok()) return R(request.status());
    auto claim = webhook::decode_claim(request.value());
    if (!claim.is_ok()) return R(claim.status());
    auto children = endpoint_->sync_claim(claim.value());
    if (!children.is_ok()) return children;
    auto response = webhook::Json::parse(
        webhook::encode_children(children.value()).dump());
    if (!response.is_ok()) return R(response.status());
    return webhook::decode_children(response.value());
  };
  hooks.finalize_claim = [this](const k8s::VniClaim& c) -> Result<bool> {
    auto request = webhook::Json::parse(webhook::encode_claim(c).dump());
    if (!request.is_ok()) return Result<bool>(request.status());
    auto claim = webhook::decode_claim(request.value());
    if (!claim.is_ok()) return Result<bool>(claim.status());
    auto fin = endpoint_->finalize_claim(claim.value());
    if (!fin.is_ok()) return fin;
    auto response = webhook::Json::parse(
        webhook::encode_finalized(fin.value()).dump());
    if (!response.is_ok()) return Result<bool>(response.status());
    return webhook::decode_finalized(response.value());
  };
  vni_controller_ = std::make_unique<k8s::DecoratorController>(
      *api_, std::move(hooks), master_rng_.fork());
  vni_controller_->start();

  SHS_INFO(kTag) << "cluster up: " << config_.nodes << " nodes, auth mode "
                 << static_cast<int>(config_.auth_mode);
}

SlingshotStack::~SlingshotStack() {
  vni_controller_->stop();
  scheduler_->stop();
  job_controller_->stop();
}

Result<k8s::Uid> SlingshotStack::submit_job(const JobOptions& options) {
  if (options.name.empty()) {
    return Result<k8s::Uid>(invalid_argument("job needs a name"));
  }
  k8s::Job job;
  job.meta.name = options.name;
  job.meta.ns = options.ns;
  if (!options.vni_annotation.empty()) {
    job.meta.annotations[k8s::kVniAnnotation] = options.vni_annotation;
  }
  job.spec.completions = options.pods;
  job.spec.parallelism = options.pods;
  job.spec.ttl_after_finished_s = options.ttl_after_finished_s;
  job.spec.pod_template.image = options.image;
  job.spec.pod_template.run_duration = options.run_duration;
  job.spec.pod_template.termination_grace_s = options.grace_s;
  job.spec.pod_template.spread_key = options.spread_key;
  return api_->create_job(std::move(job));
}

Result<k8s::Uid> SlingshotStack::create_claim(const std::string& ns,
                                              const std::string& claim_name) {
  k8s::VniClaim claim;
  claim.meta.name = claim_name;
  claim.meta.ns = ns;
  claim.spec.claim_name = claim_name;
  return api_->create_vni_claim(std::move(claim));
}

Status SlingshotStack::delete_claim(k8s::Uid uid) {
  return api_->delete_vni_claim(uid);
}

Status SlingshotStack::delete_job(k8s::Uid uid) {
  return api_->delete_job(uid);
}

void SlingshotStack::schedule_reroute() {
  const SimTime injected = loop_.now();
  loop_.schedule_after(config_.fm_reroute_delay, [this, injected] {
    fabric_->manager().repair();
    schedule_publish_waves();
    last_reroute_latency_ = loop_.now() - injected;
    total_reroute_latency_ += last_reroute_latency_;
    ++reroute_events_;
    SHS_INFO(kTag) << "fabric re-route completed "
                   << to_micros(last_reroute_latency_)
                   << " us after injection";
  });
}

void SlingshotStack::schedule_publish_waves() {
  hsn::FabricManager& fm = fabric_->manager();
  if (!fm.publish_pending()) return;
  if (shard_engine_ != nullptr) {
    // The engine drains one wave per window barrier — its only
    // all-workers-quiescent points — which keeps mixed-epoch routing
    // bit-identical across thread counts.  Scheduling loop callbacks
    // too would race the barrier drain nondeterministically.
    return;
  }
  const std::uint64_t gen = fm.publish_generation();
  for (const SimDuration d : fm.pending_publish_delays()) {
    loop_.schedule_after(d, [this, d, gen] {
      fabric_->manager().apply_publishes_older_than(d, gen);
    });
  }
}

void SlingshotStack::start_fm_watchdog() {
  loop_.schedule_periodic(config_.fm_watchdog_interval, [this] {
    hsn::FabricManager& fm = fabric_->manager();
    if (!fm.crashed()) {
      if (fm_degraded_) {
        // Recovered out-of-band (a harness called restart() directly).
        fabric_->set_degraded(false);
        fm_degraded_ = false;
        fm_restart_backoff_ = 0;
      }
      return;
    }
    fm_downtime_vt_ += config_.fm_watchdog_interval;
    if (!fm_degraded_) {
      // First detection: degrade the data plane (stretched retry
      // budgets on replan-dependent drops) and give the controller one
      // backoff interval to come back before forcing a restart.
      fm_degraded_ = true;
      fabric_->set_degraded(true);
      fm_restart_backoff_ = 1;
      fm_next_restart_vt_ = loop_.now() + config_.fm_watchdog_interval;
      SHS_INFO(kTag) << "fabric manager DOWN: degraded mode engaged";
      return;
    }
    if (loop_.now() < fm_next_restart_vt_) return;
    const Status st = fm.restart();
    if (st.is_ok()) {
      fabric_->set_degraded(false);
      fm_degraded_ = false;
      fm_restart_backoff_ = 0;
      schedule_publish_waves();
      if (fm.repair_pending()) schedule_reroute();
      SHS_INFO(kTag) << "fabric manager restarted; degraded mode cleared";
    } else {
      fm_restart_backoff_ = std::min(fm_restart_backoff_ * 2, 8);
      fm_next_restart_vt_ =
          loop_.now() + fm_restart_backoff_ * config_.fm_watchdog_interval;
      SHS_WARN(kTag) << "fabric manager restart failed (" << st
                     << "); backing off";
    }
  });
}

Status SlingshotStack::fail_link(hsn::SwitchId a, hsn::SwitchId b) {
  const Status st = fabric_->fail_link(a, b);
  if (st.is_ok()) schedule_reroute();
  return st;
}

Status SlingshotStack::restore_link(hsn::SwitchId a, hsn::SwitchId b) {
  const Status st = fabric_->restore_link(a, b);
  if (st.is_ok()) schedule_reroute();
  return st;
}

Status SlingshotStack::fail_switch(hsn::SwitchId s) {
  const Status st = fabric_->fail_switch(s);
  if (st.is_ok()) schedule_reroute();
  return st;
}

Status SlingshotStack::restore_switch(hsn::SwitchId s) {
  const Status st = fabric_->restore_switch(s);
  if (st.is_ok()) schedule_reroute();
  return st;
}

bool SlingshotStack::run_until(const std::function<bool()>& pred,
                               SimDuration max_wait, SimDuration step) {
  const SimTime deadline = loop_.now() + max_wait;
  while (loop_.now() < deadline) {
    if (pred()) return true;
    loop_.run_for(step);
  }
  return pred();
}

bool SlingshotStack::wait_job_start(k8s::Uid job, SimDuration max_wait) {
  return run_until(
      [&] {
        auto j = api_->get_job(job);
        return j.is_ok() && j.value().status.start_vt > 0;
      },
      max_wait);
}

bool SlingshotStack::wait_job_complete(k8s::Uid job, SimDuration max_wait) {
  return run_until(
      [&] {
        auto j = api_->get_job(job);
        return j.is_ok() && j.value().status.complete;
      },
      max_wait);
}

bool SlingshotStack::wait_job_gone(k8s::Uid job, SimDuration max_wait) {
  return run_until(
      [&] { return !api_->get_job(job).is_ok(); }, max_wait);
}

std::vector<k8s::Pod> SlingshotStack::pods_of_job(k8s::Uid job) const {
  std::vector<k8s::Pod> pods;
  api_->visit_pods_of_owner(job,
                            [&](const k8s::Pod& p) { pods.push_back(p); });
  return pods;
}

Result<SlingshotStack::PodHandle> SlingshotStack::exec_in_pod(
    k8s::Uid pod_uid) {
  auto pod = api_->get_pod(pod_uid);
  if (!pod.is_ok()) return Result<PodHandle>(pod.status());
  const std::string& node_name = pod.value().status.node;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->name == node_name) {
      auto pid = nodes_[i]->runtime->exec_in_pod(pod_uid);
      if (!pid.is_ok()) return Result<PodHandle>(pid.status());
      return PodHandle{pod_uid, i, pid.value()};
    }
  }
  return Result<PodHandle>(
      failed_precondition("pod is not bound to any node yet"));
}

Result<ofi::Domain> SlingshotStack::domain_for(const PodHandle& handle) {
  if (handle.node_index >= nodes_.size()) {
    return Result<ofi::Domain>(invalid_argument("bad node index"));
  }
  Node& n = *nodes_[handle.node_index];
  return ofi::Domain(*n.driver, fabric_->nic(n.nic), fabric_->timing(),
                     handle.pid);
}

}  // namespace shs::core
