// metacontroller.hpp — a Metacontroller-style DecoratorController.
//
// The paper implements its VNI Controller as a Metacontroller Decorator
// Controller (Section III-C1): it watches already-created resources that
// match a pattern (Jobs carrying the `vni` annotation, plus VniClaim CRD
// instances), calls the VNI Endpoint's /sync and /finalize webhooks, and
// applies the returned child objects (VNI CRD instances) with "apply
// semantics".  This class is that backend; the webhook *logic* lives in
// core::VniEndpoint and is injected here as hooks.
//
// Change-driven: a tick re-evaluates only the jobs and claims marked
// dirty since the last one — their object changed (the API server's
// change sink) or a webhook call for them finished (succeeded, or failed
// and is retried on the next tick).
#pragma once

#include <functional>
#include <set>
#include <unordered_set>

#include "k8s/api_server.hpp"
#include "util/rng.hpp"

namespace shs::k8s {

inline constexpr const char* kMetaFinalizer = "shs.io/vni-controller";

class DecoratorController {
 public:
  struct Hooks {
    /// /sync for an annotated job: returns the desired child VNI CRD
    /// instances (normally exactly one).  Idempotent.
    std::function<Result<std::vector<VniObject>>(const Job&)> sync_job;
    /// /finalize for a deleted job: true when cleanup is complete.
    std::function<Result<bool>(const Job&)> finalize_job;
    /// /sync for a VniClaim.
    std::function<Result<std::vector<VniObject>>(const VniClaim&)> sync_claim;
    /// /finalize for a VniClaim: only true once all users are gone
    /// (Section III-C2: deletion stalls otherwise).
    std::function<Result<bool>(const VniClaim&)> finalize_claim;
  };

  DecoratorController(ApiServer& api, Hooks hooks, Rng rng);
  ~DecoratorController();
  DecoratorController(const DecoratorController&) = delete;
  DecoratorController& operator=(const DecoratorController&) = delete;

  void start();
  void stop();

  /// Webhook-call counters (exposed for the admission-overhead benches).
  [[nodiscard]] std::uint64_t sync_calls() const noexcept {
    return sync_calls_;
  }
  [[nodiscard]] std::uint64_t finalize_calls() const noexcept {
    return finalize_calls_;
  }

 private:
  void reconcile();
  void reconcile_job(Uid uid, bool deleting, bool has_finalizer);
  void reconcile_claim(Uid uid, bool deleting, bool has_finalizer);
  void apply_children(Uid parent_uid, const std::vector<VniObject>& desired);
  /// Deletes every child VNI CRD instance of `parent_uid`.
  void delete_children(Uid parent_uid);
  SimDuration jittered(SimDuration d) {
    return static_cast<SimDuration>(
        static_cast<double>(d) * rng_.jitter(api_.params().jitter_amplitude));
  }

  ApiServer& api_;
  Hooks hooks_;
  Rng rng_;
  sim::EventLoop::TaskId task_ = sim::EventLoop::kInvalidTask;
  SubId job_sink_ = 0;
  SubId claim_sink_ = 0;
  /// Jobs and claims to re-evaluate on the next tick, in uid order.
  std::set<Uid> dirty_jobs_;
  std::set<Uid> dirty_claims_;
  std::unordered_set<Uid> sync_inflight_;
  std::unordered_set<Uid> synced_;
  std::unordered_set<Uid> finalize_inflight_;
  std::uint64_t sync_calls_ = 0;
  std::uint64_t finalize_calls_ = 0;
};

}  // namespace shs::k8s
