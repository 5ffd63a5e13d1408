// api_server.hpp — the cluster's typed object store with watches and
// Kubernetes deletion semantics.
//
// Faithful pieces:
//   * every mutation bumps resourceVersion and fans out a watch event
//     (delivered asynchronously on the event loop after `watch_latency`);
//   * deletion is two-phase — `request_delete` sets the deletion
//     timestamp; the object only disappears when its finalizer list
//     drains (controllers own finalizers, exactly like kubelet and the
//     Metacontroller decorator in the real system);
//   * reads return snapshots (value semantics); the copy-free `find_*` /
//     `visit_*` reads are for controller hot paths and must not outlive
//     the next mutation.
//
// Controllers are change-driven (the informer / work-queue pattern):
//   * each store keeps a `(namespace, name) -> uid` index, and pods and
//     VNI objects keep secondary indexes (pods by owner and by bound
//     node, VNI objects by the resource they decorate), all maintained
//     on every mutation;
//   * a *change sink* is called synchronously on every resourceVersion
//     bump and every reap, with the object's new state (its last state
//     when reaped).  Unlike the watch it is not delayed, so a controller
//     that marks keys dirty from it sees exactly the state a full scan
//     would, and it also covers finalizer removals that reap nothing
//     (which send no watch event).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "k8s/objects.hpp"
#include "k8s/params.hpp"
#include "sim/event_loop.hpp"
#include "util/status.hpp"

namespace shs::k8s {

/// Subscription handle returned by watch registration.
using SubId = std::uint64_t;

namespace detail {

/// A secondary index: the uids of a kind's objects grouped by one key,
/// uid-ordered within a key (the order a scan of the store visits them).
template <typename T, typename Key, const Key& (*KeyOf)(const T&)>
class Index {
 public:
  void insert(const T& obj) { buckets_[KeyOf(obj)].insert(obj.meta.uid); }

  void erase(const T& obj) {
    const auto it = buckets_.find(KeyOf(obj));
    it->second.erase(obj.meta.uid);
    if (it->second.empty()) buckets_.erase(it);
  }

  /// Re-files an object whose state changes from `before` to `after`.
  void update(const T& before, const T& after) {
    if (KeyOf(before) == KeyOf(after)) return;
    erase(before);
    insert(after);
  }

  [[nodiscard]] const std::set<Uid>& at(const Key& key) const {
    static const std::set<Uid> kNone;
    const auto it = buckets_.find(key);
    return it == buckets_.end() ? kNone : it->second;
  }

 private:
  std::unordered_map<Key, std::set<Uid>> buckets_;
};

inline const Uid& pod_owner(const Pod& p) { return p.meta.owner_uid; }
inline const std::string& pod_node(const Pod& p) { return p.status.node; }
inline const Uid& vni_bound(const VniObject& v) { return v.bound_uid; }

/// The secondary indexes of one kind (none by default).
template <typename T>
struct Indexes {
  void insert(const T&) {}
  void erase(const T&) {}
  void update(const T&, const T&) {}
};

template <>
struct Indexes<Pod> {
  Index<Pod, Uid, pod_owner> by_owner;
  Index<Pod, std::string, pod_node> by_node;  ///< "" = unbound

  void insert(const Pod& p) {
    by_owner.insert(p);
    by_node.insert(p);
  }
  void erase(const Pod& p) {
    by_owner.erase(p);
    by_node.erase(p);
  }
  void update(const Pod& before, const Pod& after) {
    by_owner.update(before, after);
    by_node.update(before, after);
  }
};

template <>
struct Indexes<VniObject> {
  Index<VniObject, Uid, vni_bound> by_bound;

  void insert(const VniObject& v) { by_bound.insert(v); }
  void erase(const VniObject& v) { by_bound.erase(v); }
  void update(const VniObject& before, const VniObject& after) {
    by_bound.update(before, after);
  }
};

/// One kind's storage: uid-ordered objects, their indexes, watchers and
/// change sinks.
template <typename T>
class Store {
 public:
  using Watcher = std::function<void(const WatchEvent<T>&)>;
  /// Synchronous change sink (see the file comment).  Sinks must not
  /// mutate the store; they record what changed for a later pass.
  using Sink = std::function<void(const T&)>;

  explicit Store(sim::EventLoop& loop, const K8sParams& params)
      : loop_(loop), params_(params) {}

  Result<Uid> create(T obj, Uid uid, SimTime now) {
    if (obj.meta.name.empty()) {
      return Result<Uid>(invalid_argument("metadata.name required"));
    }
    auto& names = names_[obj.meta.ns];
    if (names.contains(obj.meta.name)) {
      return Result<Uid>(already_exists(obj.meta.ns + "/" + obj.meta.name));
    }
    obj.meta.uid = uid;
    obj.meta.creation_vt = now;
    obj.meta.resource_version = ++rv_;
    auto [it, ok] = objects_.emplace(uid, std::move(obj));
    names.emplace(it->second.meta.name, uid);
    indexes_.insert(it->second);
    changed(it->second);
    notify(WatchEventType::kAdded, it->second);
    return uid;
  }

  Result<T> get(Uid uid) const {
    const T* obj = find(uid);
    if (obj == nullptr) return Result<T>(not_found("no such object"));
    return *obj;
  }

  /// Copy-free read; the pointer is invalidated by the next mutation.
  [[nodiscard]] const T* find(Uid uid) const {
    const auto it = objects_.find(uid);
    return it == objects_.end() ? nullptr : &it->second;
  }

  Result<T> get_by_name(const std::string& ns, const std::string& name) const {
    const auto nit = names_.find(ns);
    if (nit != names_.end()) {
      const auto it = nit->second.find(name);
      if (it != nit->second.end()) return objects_.at(it->second);
    }
    return Result<T>(not_found(ns + "/" + name));
  }

  /// Last-write-wins update keyed by uid.  Deleted objects reject writes,
  /// and so do writes that change the object's identity (name, namespace,
  /// owner), which are fixed at creation.
  Status update(const T& obj) {
    const auto it = objects_.find(obj.meta.uid);
    if (it == objects_.end()) return not_found("no such object");
    if (obj.meta.name != it->second.meta.name ||
        obj.meta.ns != it->second.meta.ns ||
        obj.meta.owner_uid != it->second.meta.owner_uid) {
      return invalid_argument("name, namespace and owner are immutable");
    }
    indexes_.update(it->second, obj);
    auto preserved_finalizers = std::move(it->second.meta.finalizers);
    const bool preserved_deletion = it->second.meta.deletion_requested;
    const SimTime preserved_deletion_vt = it->second.meta.deletion_vt;
    it->second = obj;
    // Deletion state and finalizers are owned by the server (clients use
    // the dedicated verbs below), so status updates cannot resurrect.
    it->second.meta.finalizers = std::move(preserved_finalizers);
    it->second.meta.deletion_requested = preserved_deletion;
    it->second.meta.deletion_vt = preserved_deletion_vt;
    it->second.meta.resource_version = ++rv_;
    changed(it->second);
    notify(WatchEventType::kModified, it->second);
    return Status::ok();
  }

  Status add_finalizer(Uid uid, const std::string& f) {
    const auto it = objects_.find(uid);
    if (it == objects_.end()) return not_found("no such object");
    if (!it->second.meta.has_finalizer(f)) {
      it->second.meta.finalizers.push_back(f);
      it->second.meta.resource_version = ++rv_;
      changed(it->second);
      notify(WatchEventType::kModified, it->second);
    }
    return Status::ok();
  }

  Status remove_finalizer(Uid uid, const std::string& f) {
    const auto it = objects_.find(uid);
    if (it == objects_.end()) return not_found("no such object");
    auto& fins = it->second.meta.finalizers;
    for (auto fit = fins.begin(); fit != fins.end(); ++fit) {
      if (*fit == f) {
        fins.erase(fit);
        it->second.meta.resource_version = ++rv_;
        changed(it->second);
        maybe_reap(it->first);
        return Status::ok();
      }
    }
    return not_found("finalizer not present");
  }

  Status request_delete(Uid uid, SimTime now) {
    const auto it = objects_.find(uid);
    if (it == objects_.end()) return not_found("no such object");
    if (!it->second.meta.deletion_requested) {
      it->second.meta.deletion_requested = true;
      it->second.meta.deletion_vt = now;
      it->second.meta.resource_version = ++rv_;
      changed(it->second);
      notify(WatchEventType::kModified, it->second);
    }
    maybe_reap(uid);
    return Status::ok();
  }

  std::vector<T> list(const std::function<bool(const T&)>& pred = nullptr)
      const {
    std::vector<T> out;
    for (const auto& [uid, obj] : objects_) {
      if (!pred || pred(obj)) out.push_back(obj);
    }
    return out;
  }

  /// Copy-free iteration for controller hot paths.  The callback must not
  /// mutate the store (single-threaded loop, so re-entrancy is the only
  /// hazard — visitors must not call create/update/delete).
  void visit(const std::function<void(const T&)>& fn) const {
    for (const auto& [uid, obj] : objects_) fn(obj);
  }

  /// Copy-free iteration, in uid order, over the objects whose uids are
  /// `uids` (an index bucket); same rules as visit().
  void visit_uids(const std::set<Uid>& uids,
                  const std::function<void(const T&)>& fn) const {
    for (const Uid uid : uids) fn(objects_.at(uid));
  }

  [[nodiscard]] const Indexes<T>& indexes() const { return indexes_; }

  [[nodiscard]] std::size_t size() const { return objects_.size(); }

  SubId subscribe(Watcher w, SubId id) {
    watchers_.emplace(id, std::move(w));
    return id;
  }
  void unsubscribe(SubId id) { watchers_.erase(id); }

  SubId add_sink(Sink s, SubId id) {
    sinks_.emplace(id, std::move(s));
    return id;
  }
  void remove_sink(SubId id) { sinks_.erase(id); }

 private:
  void maybe_reap(Uid uid) {
    const auto it = objects_.find(uid);
    if (it == objects_.end()) return;
    if (it->second.meta.deletion_requested &&
        it->second.meta.finalizers.empty()) {
      T snapshot = std::move(it->second);
      objects_.erase(it);
      const auto nit = names_.find(snapshot.meta.ns);
      nit->second.erase(snapshot.meta.name);
      if (nit->second.empty()) names_.erase(nit);
      indexes_.erase(snapshot);
      changed(snapshot);
      notify(WatchEventType::kDeleted, snapshot);
    }
  }

  void changed(const T& obj) {
    for (const auto& [id, sink] : sinks_) sink(obj);
  }

  void notify(WatchEventType type, const T& obj) {
    for (const auto& [id, w] : watchers_) {
      // Copy the watcher and a snapshot; deliver after the watch latency,
      // matching the asynchrony of real watch streams.
      auto watcher = w;
      WatchEvent<T> ev{type, obj};
      loop_.schedule_after(params_.watch_latency,
                           [watcher, ev] { watcher(ev); });
    }
  }

  sim::EventLoop& loop_;
  const K8sParams& params_;
  std::map<Uid, T> objects_;  // ordered: deterministic list()
  /// namespace -> name -> uid.
  std::unordered_map<std::string, std::unordered_map<std::string, Uid>>
      names_;
  Indexes<T> indexes_;
  std::map<SubId, Watcher> watchers_;
  std::map<SubId, Sink> sinks_;
  std::uint64_t rv_ = 0;
};

}  // namespace detail

/// The API server.  Single-threaded: all access happens on the event-loop
/// thread (controllers are loop callbacks), matching the deterministic
/// control-plane design.
class ApiServer {
 public:
  explicit ApiServer(sim::EventLoop& loop, K8sParams params = {})
      : loop_(loop), params_(params), pods_(loop, params_),
        jobs_(loop, params_), vnis_(loop, params_), claims_(loop, params_) {
    pods_.add_sink(
        [this](const Pod& p) {
          const auto it = node_sinks_.find(p.status.node);
          if (it == node_sinks_.end()) return;
          for (const auto& [id, sink] : it->second) sink(p);
        },
        next_sub_++);
  }
  ApiServer(const ApiServer&) = delete;
  ApiServer& operator=(const ApiServer&) = delete;

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] const K8sParams& params() const noexcept { return params_; }

  // -- Pods.
  Result<Uid> create_pod(Pod pod) {
    return pods_.create(std::move(pod), next_uid_++, loop_.now());
  }
  Result<Pod> get_pod(Uid uid) const { return pods_.get(uid); }
  [[nodiscard]] const Pod* find_pod(Uid uid) const { return pods_.find(uid); }
  Result<Pod> get_pod_by_name(const std::string& ns,
                              const std::string& name) const {
    return pods_.get_by_name(ns, name);
  }
  Status update_pod(const Pod& pod) { return pods_.update(pod); }
  Status add_pod_finalizer(Uid uid, const std::string& f) {
    return pods_.add_finalizer(uid, f);
  }
  Status remove_pod_finalizer(Uid uid, const std::string& f) {
    return pods_.remove_finalizer(uid, f);
  }
  Status delete_pod(Uid uid) { return pods_.request_delete(uid, loop_.now()); }
  std::vector<Pod> list_pods(
      const std::function<bool(const Pod&)>& pred = nullptr) const {
    return pods_.list(pred);
  }
  void visit_pods(const std::function<void(const Pod&)>& fn) const {
    pods_.visit(fn);
  }
  /// Pods whose owner is `owner`, in uid order (index lookup).
  void visit_pods_of_owner(Uid owner,
                           const std::function<void(const Pod&)>& fn) const {
    pods_.visit_uids(pods_.indexes().by_owner.at(owner), fn);
  }
  /// Pods bound to `node` ("" = unbound), in uid order (index lookup).
  void visit_pods_on_node(const std::string& node,
                          const std::function<void(const Pod&)>& fn) const {
    pods_.visit_uids(pods_.indexes().by_node.at(node), fn);
  }
  SubId watch_pods(detail::Store<Pod>::Watcher w) {
    return pods_.subscribe(std::move(w), next_sub_++);
  }
  void unwatch_pods(SubId id) { pods_.unsubscribe(id); }

  // -- Jobs.
  Result<Uid> create_job(Job job) {
    return jobs_.create(std::move(job), next_uid_++, loop_.now());
  }
  Result<Job> get_job(Uid uid) const { return jobs_.get(uid); }
  [[nodiscard]] const Job* find_job(Uid uid) const { return jobs_.find(uid); }
  Result<Job> get_job_by_name(const std::string& ns,
                              const std::string& name) const {
    return jobs_.get_by_name(ns, name);
  }
  Status update_job(const Job& job) { return jobs_.update(job); }
  Status add_job_finalizer(Uid uid, const std::string& f) {
    return jobs_.add_finalizer(uid, f);
  }
  Status remove_job_finalizer(Uid uid, const std::string& f) {
    return jobs_.remove_finalizer(uid, f);
  }
  Status delete_job(Uid uid) { return jobs_.request_delete(uid, loop_.now()); }
  std::vector<Job> list_jobs(
      const std::function<bool(const Job&)>& pred = nullptr) const {
    return jobs_.list(pred);
  }
  void visit_jobs(const std::function<void(const Job&)>& fn) const {
    jobs_.visit(fn);
  }
  SubId watch_jobs(detail::Store<Job>::Watcher w) {
    return jobs_.subscribe(std::move(w), next_sub_++);
  }
  void unwatch_jobs(SubId id) { jobs_.unsubscribe(id); }

  // -- Vni CRD instances.
  Result<Uid> create_vni_object(VniObject v) {
    return vnis_.create(std::move(v), next_uid_++, loop_.now());
  }
  Result<VniObject> get_vni_object(Uid uid) const { return vnis_.get(uid); }
  Status update_vni_object(const VniObject& v) { return vnis_.update(v); }
  Status delete_vni_object(Uid uid) {
    return vnis_.request_delete(uid, loop_.now());
  }
  Status add_vni_finalizer(Uid uid, const std::string& f) {
    return vnis_.add_finalizer(uid, f);
  }
  Status remove_vni_finalizer(Uid uid, const std::string& f) {
    return vnis_.remove_finalizer(uid, f);
  }
  std::vector<VniObject> list_vni_objects(
      const std::function<bool(const VniObject&)>& pred = nullptr) const {
    return vnis_.list(pred);
  }
  /// VNI objects decorating the resource `bound_uid`, in uid order
  /// (index lookup).
  void visit_vni_objects_of(
      Uid bound_uid, const std::function<void(const VniObject&)>& fn) const {
    vnis_.visit_uids(vnis_.indexes().by_bound.at(bound_uid), fn);
  }
  SubId watch_vni_objects(detail::Store<VniObject>::Watcher w) {
    return vnis_.subscribe(std::move(w), next_sub_++);
  }

  // -- VniClaim CRD instances.
  Result<Uid> create_vni_claim(VniClaim c) {
    return claims_.create(std::move(c), next_uid_++, loop_.now());
  }
  Result<VniClaim> get_vni_claim(Uid uid) const { return claims_.get(uid); }
  [[nodiscard]] const VniClaim* find_vni_claim(Uid uid) const {
    return claims_.find(uid);
  }
  Result<VniClaim> get_vni_claim_by_name(const std::string& ns,
                                         const std::string& name) const {
    return claims_.get_by_name(ns, name);
  }
  Status update_vni_claim(const VniClaim& c) { return claims_.update(c); }
  Status delete_vni_claim(Uid uid) {
    return claims_.request_delete(uid, loop_.now());
  }
  Status add_claim_finalizer(Uid uid, const std::string& f) {
    return claims_.add_finalizer(uid, f);
  }
  Status remove_claim_finalizer(Uid uid, const std::string& f) {
    return claims_.remove_finalizer(uid, f);
  }
  std::vector<VniClaim> list_vni_claims(
      const std::function<bool(const VniClaim&)>& pred = nullptr) const {
    return claims_.list(pred);
  }
  void visit_vni_claims(const std::function<void(const VniClaim&)>& fn)
      const {
    claims_.visit(fn);
  }
  SubId watch_vni_claims(detail::Store<VniClaim>::Watcher w) {
    return claims_.subscribe(std::move(w), next_sub_++);
  }

  // -- Change sinks (see the file comment).  One id space with watches;
  //    remove_change_sink takes any id returned below.
  SubId on_pod_change(detail::Store<Pod>::Sink s) {
    return pods_.add_sink(std::move(s), next_sub_++);
  }
  /// Changes to pods whose new state is bound to `node` (a kubelet's
  /// view: only its own pods, however many nodes the cluster has).
  SubId on_node_pod_change(const std::string& node,
                           detail::Store<Pod>::Sink s) {
    const SubId id = next_sub_++;
    node_sinks_[node].emplace(id, std::move(s));
    sink_node_.emplace(id, node);
    return id;
  }
  SubId on_job_change(detail::Store<Job>::Sink s) {
    return jobs_.add_sink(std::move(s), next_sub_++);
  }
  SubId on_vni_claim_change(detail::Store<VniClaim>::Sink s) {
    return claims_.add_sink(std::move(s), next_sub_++);
  }
  void remove_change_sink(SubId id) {
    if (const auto it = sink_node_.find(id); it != sink_node_.end()) {
      const auto nit = node_sinks_.find(it->second);
      nit->second.erase(id);
      if (nit->second.empty()) node_sinks_.erase(nit);
      sink_node_.erase(it);
      return;
    }
    pods_.remove_sink(id);
    jobs_.remove_sink(id);
    vnis_.remove_sink(id);
    claims_.remove_sink(id);
  }

 private:
  sim::EventLoop& loop_;
  K8sParams params_;
  Uid next_uid_ = 1;
  SubId next_sub_ = 1;
  detail::Store<Pod> pods_;
  detail::Store<Job> jobs_;
  detail::Store<VniObject> vnis_;
  detail::Store<VniClaim> claims_;
  /// on_node_pod_change subscriptions: node -> id -> sink, and id -> node.
  std::unordered_map<std::string, std::map<SubId, detail::Store<Pod>::Sink>>
      node_sinks_;
  std::unordered_map<SubId, std::string> sink_node_;
};

}  // namespace shs::k8s
