// k8s_test.cpp — control-plane semantics: API server store + watches +
// two-phase deletion, and the job -> pod pipeline through scheduler and
// kubelet with a fake runtime.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "k8s/api_server.hpp"
#include "k8s/job_controller.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/metacontroller.hpp"
#include "k8s/scheduler.hpp"

namespace shs::k8s {
namespace {

/// Deterministic runtime stand-in: fixed costs, scripted CNI behaviour.
class FakeRuntime final : public PodRuntime {
 public:
  Result<SandboxInfo> create_sandbox(const Pod&) override {
    ++sandboxes_created;
    return SandboxInfo{next_inode_++, from_millis(10)};
  }
  Result<CniAddInfo> attach_networks(const Pod&) override {
    ++attach_calls;
    if (attach_unavailable_times > 0) {
      --attach_unavailable_times;
      return Result<CniAddInfo>(unavailable("VNI not served yet"));
    }
    if (fail_attach) {
      return Result<CniAddInfo>(invalid_argument("CNI config broken"));
    }
    return CniAddInfo{granted_vni, from_millis(5)};
  }
  Result<SimDuration> pull_image(const Pod&) override {
    return from_millis(10);
  }
  Result<SimDuration> start_container(const Pod&) override {
    return from_millis(10);
  }
  Result<SimDuration> stop_container(const Pod&, SimDuration grace) override {
    last_stop_grace = grace;
    return from_millis(5);
  }
  Result<SimDuration> detach_networks(const Pod&) override {
    ++detach_calls;
    return from_millis(5);
  }
  Result<SimDuration> destroy_sandbox(const Pod&) override {
    ++sandboxes_destroyed;
    return from_millis(5);
  }

  int sandboxes_created = 0;
  int sandboxes_destroyed = 0;
  int attach_calls = 0;
  int detach_calls = 0;
  int attach_unavailable_times = 0;
  bool fail_attach = false;
  hsn::Vni granted_vni = 42;
  SimDuration last_stop_grace = -1;

 private:
  linuxsim::NetNsInode next_inode_ = 9000;
};

/// A 2-node control plane wired to fake runtimes.
struct ClusterFixture : ::testing::Test {
  void SetUp() override {
    api = std::make_unique<ApiServer>(loop);
    jc = std::make_unique<JobController>(*api, Rng(1));
    jc->start();
    sched = std::make_unique<Scheduler>(
        *api, std::vector<std::string>{"node-0", "node-1"}, Rng(2));
    sched->start();
    round = std::make_unique<KubeletRound>(
        loop, api->params().kubelet_sync_period);
    kubelet0 =
        std::make_unique<Kubelet>(*api, "node-0", rt0, Rng(3), *round);
    kubelet1 =
        std::make_unique<Kubelet>(*api, "node-1", rt1, Rng(4), *round);
  }

  Uid submit(const std::string& name, int pods = 1, int ttl = -1,
             const std::string& vni_ann = "", int grace_s = 5,
             const std::string& spread = "") {
    Job job;
    job.meta.name = name;
    job.spec.completions = pods;
    job.spec.parallelism = pods;
    job.spec.ttl_after_finished_s = ttl;
    job.spec.pod_template.run_duration = from_millis(100);
    job.spec.pod_template.termination_grace_s = grace_s;
    job.spec.pod_template.spread_key = spread;
    if (!vni_ann.empty()) job.meta.annotations[kVniAnnotation] = vni_ann;
    return api->create_job(std::move(job)).value();
  }

  bool run_until(const std::function<bool()>& pred,
                 SimDuration max = 120 * kSecond) {
    const SimTime deadline = loop.now() + max;
    while (loop.now() < deadline) {
      if (pred()) return true;
      loop.run_for(from_millis(25));
    }
    return pred();
  }

  sim::EventLoop loop;
  std::unique_ptr<ApiServer> api;
  FakeRuntime rt0, rt1;
  std::unique_ptr<JobController> jc;
  std::unique_ptr<Scheduler> sched;
  std::unique_ptr<KubeletRound> round;
  std::unique_ptr<Kubelet> kubelet0, kubelet1;
};

// -- API server object store. -------------------------------------------------

TEST(ApiServer, CreateRequiresName) {
  sim::EventLoop loop;
  ApiServer api(loop);
  EXPECT_EQ(api.create_pod(Pod{}).code(), Code::kInvalidArgument);
}

TEST(ApiServer, NamesAreUniquePerNamespace) {
  sim::EventLoop loop;
  ApiServer api(loop);
  Pod p;
  p.meta.name = "x";
  EXPECT_TRUE(api.create_pod(p).is_ok());
  EXPECT_EQ(api.create_pod(p).code(), Code::kAlreadyExists);
  p.meta.ns = "other";
  EXPECT_TRUE(api.create_pod(p).is_ok());
}

TEST(ApiServer, WatchDeliversEventsAsync) {
  sim::EventLoop loop;
  ApiServer api(loop);
  std::vector<WatchEventType> seen;
  api.watch_pods([&](const WatchEvent<Pod>& ev) { seen.push_back(ev.type); });
  Pod p;
  p.meta.name = "w";
  const Uid uid = api.create_pod(p).value();
  EXPECT_TRUE(seen.empty()) << "watch events are not synchronous";
  loop.run_until_idle();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], WatchEventType::kAdded);

  auto live = api.get_pod(uid).value();
  live.status.phase = PodPhase::kRunning;
  ASSERT_TRUE(api.update_pod(live).is_ok());
  loop.run_until_idle();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], WatchEventType::kModified);
}

TEST(ApiServer, TwoPhaseDeleteWaitsForFinalizers) {
  sim::EventLoop loop;
  ApiServer api(loop);
  Pod p;
  p.meta.name = "f";
  const Uid uid = api.create_pod(p).value();
  ASSERT_TRUE(api.add_pod_finalizer(uid, "t/guard").is_ok());
  ASSERT_TRUE(api.delete_pod(uid).is_ok());
  // Still present: the finalizer holds it.
  ASSERT_TRUE(api.get_pod(uid).is_ok());
  EXPECT_TRUE(api.get_pod(uid).value().meta.deletion_requested);
  ASSERT_TRUE(api.remove_pod_finalizer(uid, "t/guard").is_ok());
  EXPECT_EQ(api.get_pod(uid).code(), Code::kNotFound);
}

TEST(ApiServer, UpdateCannotResurrectDeletionState) {
  sim::EventLoop loop;
  ApiServer api(loop);
  Pod p;
  p.meta.name = "r";
  const Uid uid = api.create_pod(p).value();
  ASSERT_TRUE(api.add_pod_finalizer(uid, "t/guard").is_ok());
  ASSERT_TRUE(api.delete_pod(uid).is_ok());
  Pod stale = api.get_pod(uid).value();
  stale.meta.deletion_requested = false;  // client tampering
  stale.meta.finalizers.clear();
  ASSERT_TRUE(api.update_pod(stale).is_ok());
  EXPECT_TRUE(api.get_pod(uid).value().meta.deletion_requested);
  EXPECT_TRUE(api.get_pod(uid).value().meta.has_finalizer("t/guard"));
}

TEST(ApiServer, ResourceVersionBumps) {
  sim::EventLoop loop;
  ApiServer api(loop);
  Pod p;
  p.meta.name = "rv";
  const Uid uid = api.create_pod(p).value();
  const auto v1 = api.get_pod(uid).value().meta.resource_version;
  auto live = api.get_pod(uid).value();
  ASSERT_TRUE(api.update_pod(live).is_ok());
  EXPECT_GT(api.get_pod(uid).value().meta.resource_version, v1);
}

TEST(ApiServer, IdentityFieldsAreImmutable) {
  sim::EventLoop loop;
  ApiServer api(loop);
  Pod p;
  p.meta.name = "id";
  p.meta.owner_uid = 7;
  const Uid uid = api.create_pod(p).value();
  for (int field = 0; field < 3; ++field) {
    Pod edit = api.get_pod(uid).value();
    if (field == 0) edit.meta.name = "renamed";
    if (field == 1) edit.meta.ns = "elsewhere";
    if (field == 2) edit.meta.owner_uid = 8;
    EXPECT_EQ(api.update_pod(edit).code(), Code::kInvalidArgument);
  }
  EXPECT_TRUE(api.get_pod_by_name("default", "id").is_ok());
  EXPECT_FALSE(api.get_pod_by_name("default", "renamed").is_ok());
}

// -- Indexes and the change sink. ---------------------------------------------

/// A randomized sequence of pod and VNI-object mutations.  After every
/// operation each index must equal a brute-force recompute over a full
/// scan, and the pod change sinks must have seen exactly the pods whose
/// resourceVersion changed or that were reaped.
class IndexProperty : public ::testing::Test {
 protected:
  void SetUp() override {
    api = std::make_unique<ApiServer>(loop);
    api->on_pod_change([this](const Pod& p) { seen.insert(p.meta.uid); });
    api->on_node_pod_change(
        "n0", [this](const Pod& p) { seen_n0.insert(p.meta.uid); });
  }

  /// Every live pod's resourceVersion, by uid.
  std::map<Uid, std::uint64_t> versions() const {
    std::map<Uid, std::uint64_t> out;
    api->visit_pods([&](const Pod& p) {
      out[p.meta.uid] = p.meta.resource_version;
    });
    return out;
  }

  /// Last-known node of every pod (kept across reaps).
  void note_nodes() {
    api->visit_pods(
        [&](const Pod& p) { last_node[p.meta.uid] = p.status.node; });
  }

  void expect_indexes_match() const {
    std::map<Uid, std::vector<Uid>> by_owner;
    std::map<std::string, std::vector<Uid>> by_node;
    std::map<std::pair<std::string, std::string>, Uid> pod_names;
    api->visit_pods([&](const Pod& p) {
      by_owner[p.meta.owner_uid].push_back(p.meta.uid);
      by_node[p.status.node].push_back(p.meta.uid);
      pod_names.emplace(std::make_pair(p.meta.ns, p.meta.name), p.meta.uid);
    });
    std::map<Uid, std::vector<Uid>> by_bound;
    for (const VniObject& v : api->list_vni_objects()) {
      by_bound[v.bound_uid].push_back(v.meta.uid);
    }
    for (Uid key = 0; key < kKeys; ++key) {
      std::vector<Uid> pods, vnis;
      api->visit_pods_of_owner(
          key, [&](const Pod& p) { pods.push_back(p.meta.uid); });
      api->visit_vni_objects_of(
          key, [&](const VniObject& v) { vnis.push_back(v.meta.uid); });
      EXPECT_EQ(pods, by_owner[key]) << "owner " << key;
      EXPECT_EQ(vnis, by_bound[key]) << "bound " << key;
    }
    for (const std::string& node : kNodes) {
      std::vector<Uid> pods;
      api->visit_pods_on_node(
          node, [&](const Pod& p) { pods.push_back(p.meta.uid); });
      EXPECT_EQ(pods, by_node[node]) << "node '" << node << "'";
    }
    for (const std::string& ns : kNamespaces) {
      for (int n = 0; n < kNames; ++n) {
        const std::string name = "o" + std::to_string(n);
        const auto pod = api->get_pod_by_name(ns, name);
        const auto pit = pod_names.find({ns, name});
        ASSERT_EQ(pod.is_ok(), pit != pod_names.end()) << ns << "/" << name;
        if (pod.is_ok()) {
          EXPECT_EQ(pod.value().meta.uid, pit->second);
        }
      }
    }
  }

  static constexpr Uid kKeys = 4;  ///< owner / bound uids 0..3
  static constexpr int kNames = 6;
  const std::vector<std::string> kNodes{"", "n0", "n1"};
  const std::vector<std::string> kNamespaces{"default", "team"};

  sim::EventLoop loop;
  std::unique_ptr<ApiServer> api;
  std::set<Uid> seen, seen_n0;
  std::map<Uid, std::string> last_node;
};

TEST_F(IndexProperty, IndexesAndSinkTrackEveryMutation) {
  Rng rng(0x1dec5);
  std::vector<Uid> pods, vnis;  // every uid ever created, per kind
  const std::vector<std::string> fins{"a", "b"};
  int unreaped_removals = 0, reaps = 0, rejected = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(step);
    const auto before = versions();
    note_nodes();
    seen.clear();
    seen_n0.clear();
    const bool pod_kind = rng.uniform_u64(3) != 0;
    auto& uids = pod_kind ? pods : vnis;
    const Uid target =
        uids.empty() ? kNoUid : uids[rng.uniform_u64(uids.size())];
    const std::string& fin = fins[rng.uniform_u64(fins.size())];
    const auto op = uids.empty() ? 0 : rng.uniform_u64(6);
    Status st = Status::ok();
    if (op == 0) {  // create: succeeds exactly when the name is free
      const std::string name = "o" + std::to_string(rng.uniform_u64(kNames));
      const std::string& ns = kNamespaces[rng.uniform_u64(2)];
      const auto same_name = [&](const ObjectMeta& m) {
        return m.ns == ns && m.name == name;
      };
      Result<Uid> r = Uid{kNoUid};
      bool taken = false;
      if (pod_kind) {
        taken = !api->list_pods([&](const Pod& p) {
                       return same_name(p.meta);
                     }).empty();
        Pod p;
        p.meta.name = name;
        p.meta.ns = ns;
        p.meta.owner_uid = rng.uniform_u64(kKeys);
        p.status.node = kNodes[rng.uniform_u64(kNodes.size())];
        r = api->create_pod(p);
      } else {
        taken = !api->list_vni_objects([&](const VniObject& v) {
                       return same_name(v.meta);
                     }).empty();
        VniObject v;
        v.meta.name = name;
        v.meta.ns = ns;
        v.bound_uid = rng.uniform_u64(kKeys);
        r = api->create_vni_object(v);
      }
      EXPECT_EQ(r.is_ok(), !taken) << ns << "/" << name;
      if (r.is_ok()) uids.push_back(r.value());
    } else if (op == 1) {  // update: move an index key, maybe illegally
      const bool illegal = rng.uniform_u64(8) == 0;
      if (pod_kind) {
        auto p = api->get_pod(target);
        if (p.is_ok()) {
          Pod edit = p.value();
          edit.status.node = kNodes[rng.uniform_u64(kNodes.size())];
          edit.status.phase = PodPhase::kRunning;
          if (illegal) edit.meta.owner_uid = edit.meta.owner_uid + 1;
          st = api->update_pod(edit);
        }
      } else {
        auto v = api->get_vni_object(target);
        if (v.is_ok()) {
          VniObject edit = v.value();
          edit.bound_uid = rng.uniform_u64(kKeys);
          if (illegal) edit.meta.name += "x";
          st = api->update_vni_object(edit);
        }
      }
      if (illegal && !st.is_ok()) ++rejected;
    } else if (op == 2) {
      st = pod_kind ? api->add_pod_finalizer(target, fin)
                    : api->add_vni_finalizer(target, fin);
    } else if (op == 3) {
      st = pod_kind ? api->remove_pod_finalizer(target, fin)
                    : api->remove_vni_finalizer(target, fin);
      if (st.is_ok() && pod_kind && api->get_pod(target).is_ok()) {
        ++unreaped_removals;
      }
    } else {
      st = pod_kind ? api->delete_pod(target) : api->delete_vni_object(target);
    }
    (void)st;

    const auto after = versions();
    std::set<Uid> changed, changed_n0;
    for (const auto& [uid, rv] : after) {
      const auto it = before.find(uid);
      if (it == before.end() || it->second != rv) changed.insert(uid);
    }
    for (const auto& [uid, rv] : before) {
      if (!after.contains(uid)) {
        changed.insert(uid);
        ++reaps;
      }
    }
    note_nodes();
    for (const Uid uid : changed) {
      const auto it = last_node.find(uid);
      if (it != last_node.end() && it->second == "n0") changed_n0.insert(uid);
    }
    EXPECT_EQ(seen, changed);
    EXPECT_EQ(seen_n0, changed_n0);
    expect_indexes_match();
    if (HasFailure()) break;
  }
  // The sequence covered the interesting cases.
  EXPECT_GT(unreaped_removals, 0);
  EXPECT_GT(reaps, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(pods.size(), 20u);
  EXPECT_GT(vnis.size(), 10u);
}

// -- Job pipeline. --------------------------------------------------------------

TEST_F(ClusterFixture, JobRunsToCompletion) {
  const Uid job = submit("echo-job");
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.complete;
  })) << "job never completed";
  const Job done = api->get_job(job).value();
  EXPECT_EQ(done.status.succeeded, 1);
  EXPECT_GT(done.status.start_vt, 0);
  EXPECT_GE(done.status.completion_vt, done.status.start_vt);
  EXPECT_EQ(rt0.sandboxes_created + rt1.sandboxes_created, 1);
}

TEST_F(ClusterFixture, AdmissionDelayIsPositiveAndBounded) {
  const Uid job = submit("timing-job");
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.start_vt > 0;
  }));
  const Job j = api->get_job(job).value();
  const SimDuration admission = j.status.start_vt - j.meta.creation_vt;
  EXPECT_GT(admission, from_millis(30));  // pipeline stages cost time
  EXPECT_LT(admission, 5 * kSecond);      // idle cluster: no queueing
}

TEST_F(ClusterFixture, TopologySpreadLandsOnDistinctNodes) {
  const Uid job = submit("mpi", /*pods=*/2, -1, "", 5, /*spread=*/"osu");
  ASSERT_TRUE(run_until([&] {
    const auto pods = api->list_pods([&](const Pod& p) {
      return p.meta.owner_uid == job &&
             p.status.phase == PodPhase::kRunning;
    });
    return pods.size() == 2;
  }));
  const auto pods =
      api->list_pods([&](const Pod& p) { return p.meta.owner_uid == job; });
  ASSERT_EQ(pods.size(), 2u);
  EXPECT_NE(pods[0].status.node, pods[1].status.node)
      << "topology spread must place the two OSU ranks on distinct nodes";
}

TEST_F(ClusterFixture, TtlZeroDeletesJobAfterCompletion) {
  const Uid job = submit("ephemeral", 1, /*ttl=*/0);
  ASSERT_TRUE(run_until([&] { return !api->get_job(job).is_ok(); }))
      << "job should be auto-deleted";
  // All pods cleaned up as well.
  EXPECT_TRUE(run_until([&] {
    return api
        ->list_pods([&](const Pod& p) { return p.meta.owner_uid == job; })
        .empty();
  }));
  EXPECT_EQ(rt0.sandboxes_created + rt1.sandboxes_created,
            rt0.sandboxes_destroyed + rt1.sandboxes_destroyed);
}

TEST_F(ClusterFixture, DeleteJobCascadesToPods) {
  const Uid job = submit("long", 1);
  // Make the pod long-running so deletion hits a live pod.
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.start_vt > 0;
  }));
  ASSERT_TRUE(api->delete_job(job).is_ok());
  ASSERT_TRUE(run_until([&] { return !api->get_job(job).is_ok(); }));
  EXPECT_TRUE(api->list_pods([&](const Pod& p) {
                   return p.meta.owner_uid == job;
                 }).empty());
  EXPECT_EQ(rt0.detach_calls + rt1.detach_calls,
            rt0.attach_calls + rt1.attach_calls);
}

TEST_F(ClusterFixture, CniUnavailableRetriesThenSucceeds) {
  rt0.attach_unavailable_times = 2;
  rt1.attach_unavailable_times = 2;
  const Uid job = submit("waits-for-vni", 1, -1, "true");
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.complete;
  })) << "pod should launch after CNI retries";
  EXPECT_GE(rt0.attach_calls + rt1.attach_calls, 3);
}

TEST_F(ClusterFixture, CniHardFailureFailsPod) {
  rt0.fail_attach = true;
  rt1.fail_attach = true;
  const Uid job = submit("broken-cni", 1);
  ASSERT_TRUE(run_until([&] {
    const auto pods = api->list_pods([&](const Pod& p) {
      return p.meta.owner_uid == job &&
             p.status.phase == PodPhase::kFailed;
    });
    return !pods.empty();
  })) << "pod should fail when CNI ADD fails hard";
}

TEST_F(ClusterFixture, GraceCappedAt30sForVniPods) {
  const Uid job = submit("vni-grace", 1, -1, "true", /*grace_s=*/300);
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.start_vt > 0;
  }));
  ASSERT_TRUE(api->delete_job(job).is_ok());
  ASSERT_TRUE(run_until([&] { return !api->get_job(job).is_ok(); }));
  const SimDuration grace =
      std::max(rt0.last_stop_grace, rt1.last_stop_grace);
  EXPECT_EQ(grace, from_seconds(30))
      << "kubelet must cap VNI pods at the 30 s quarantine bound";
}

TEST_F(ClusterFixture, NonVniPodKeepsItsGrace) {
  const Uid job = submit("normal-grace", 1, -1, "", /*grace_s=*/120);
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.start_vt > 0;
  }));
  ASSERT_TRUE(api->delete_job(job).is_ok());
  ASSERT_TRUE(run_until([&] { return !api->get_job(job).is_ok(); }));
  const SimDuration grace =
      std::max(rt0.last_stop_grace, rt1.last_stop_grace);
  EXPECT_EQ(grace, from_seconds(120));
}

TEST_F(ClusterFixture, ParallelJobCountsAllCompletions) {
  const Uid job = submit("wide", /*pods=*/4);
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.complete;
  }));
  EXPECT_EQ(api->get_job(job).value().status.succeeded, 4);
}

// -- Metacontroller decoration. -------------------------------------------------

TEST_F(ClusterFixture, DecoratorCreatesAndFinalizesChildren) {
  int syncs = 0;
  int finalizes = 0;
  DecoratorController::Hooks hooks;
  hooks.sync_job = [&](const Job& j) {
    ++syncs;
    VniObject child;
    child.meta.name = j.meta.name + "-vni";
    child.meta.ns = j.meta.ns;
    child.vni = 1234;
    child.bound_uid = j.meta.uid;
    return Result<std::vector<VniObject>>(std::vector<VniObject>{child});
  };
  hooks.finalize_job = [&](const Job&) {
    ++finalizes;
    return Result<bool>(true);
  };
  DecoratorController dc(*api, std::move(hooks), Rng(7));
  dc.start();

  const Uid job = submit("decorated", 1, -1, "true");
  ASSERT_TRUE(run_until([&] {
    return !api->list_vni_objects([&](const VniObject& v) {
                 return v.bound_uid == job;
               }).empty();
  })) << "decorator should create the VNI child";
  EXPECT_EQ(syncs, 1);
  EXPECT_EQ(api->list_vni_objects()[0].vni, 1234u);

  ASSERT_TRUE(api->delete_job(job).is_ok());
  ASSERT_TRUE(run_until([&] { return !api->get_job(job).is_ok(); }));
  EXPECT_GE(finalizes, 1);
  EXPECT_TRUE(run_until([&] { return api->list_vni_objects().empty(); }))
      << "children must be removed after finalize";
  dc.stop();
}

TEST_F(ClusterFixture, DecoratorRetriesFailedHooksEveryPass) {
  // A failing /sync or /finalize changes nothing in the store; the
  // decorator must still retry it on the next pass, not wait for the job
  // to change.
  int syncs = 0;
  int finalizes = 0;
  DecoratorController::Hooks hooks;
  hooks.sync_job = [&](const Job& j) {
    if (++syncs < 10) {
      return Result<std::vector<VniObject>>(unavailable("endpoint down"));
    }
    VniObject child;
    child.meta.name = j.meta.name + "-vni";
    child.vni = 77;
    child.bound_uid = j.meta.uid;
    return Result<std::vector<VniObject>>(std::vector<VniObject>{child});
  };
  hooks.finalize_job = [&](const Job&) {
    return Result<bool>(++finalizes >= 3);
  };
  DecoratorController dc(*api, std::move(hooks), Rng(7));
  dc.start();
  const Uid job = submit("flaky", 1, -1, "true");
  ASSERT_TRUE(run_until([&] { return !api->list_vni_objects().empty(); }));
  EXPECT_EQ(syncs, 10);
  ASSERT_TRUE(api->delete_job(job).is_ok());
  ASSERT_TRUE(run_until([&] { return !api->get_job(job).is_ok(); }));
  EXPECT_EQ(finalizes, 3);
  EXPECT_TRUE(api->list_vni_objects().empty());
  dc.stop();
}

TEST_F(ClusterFixture, DecoratorIgnoresUnannotatedJobs) {
  int syncs = 0;
  DecoratorController::Hooks hooks;
  hooks.sync_job = [&](const Job&) {
    ++syncs;
    return Result<std::vector<VniObject>>(std::vector<VniObject>{});
  };
  DecoratorController dc(*api, std::move(hooks), Rng(7));
  dc.start();
  const Uid job = submit("plain", 1);
  ASSERT_TRUE(run_until([&] {
    auto j = api->get_job(job);
    return j.is_ok() && j.value().status.complete;
  }));
  EXPECT_EQ(syncs, 0);
  dc.stop();
}

}  // namespace
}  // namespace shs::k8s
