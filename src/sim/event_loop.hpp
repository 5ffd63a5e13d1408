// event_loop.hpp — single-threaded discrete-event simulator.
//
// The Kubernetes control-plane model (API server, controllers, kubelets,
// CNI invocations, VNI service) runs entirely on this loop in *virtual*
// time: each stage schedules its continuation after a modeled latency.
// That makes the 3-minute spike test of the paper (Fig 11) regenerate in
// milliseconds, deterministically.
//
// The loop is deliberately single-threaded (events at equal timestamps are
// ordered by insertion), so every admission-test run is reproducible.  The
// RDMA data path does NOT use this loop — it uses per-link virtual-time
// accounting in src/hsn: each post is stamped with the caller's virtual
// clock and returns its completion time, and nothing waits on the host.
//
// Memory: the event queue is a binary heap over a reserved vector.
// Cancellation is lazy (a cancelled id is dropped when its heap entry
// surfaces), but the heap is compacted whenever cancelled entries
// outnumber live ones, so queue memory stays bounded under arbitrary
// schedule/cancel churn — long-running soak workloads cannot grow the
// loop without growing the number of genuinely pending tasks.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/units.hpp"

namespace shs::sim {

/// Discrete-event loop over virtual nanoseconds.
class EventLoop {
 public:
  using Callback = std::function<void()>;
  using TaskId = std::uint64_t;
  static constexpr TaskId kInvalidTask = 0;

  EventLoop() { heap_.reserve(kInitialQueueCapacity); }
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute virtual time `t` (clamped to >= now).
  TaskId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` from now.
  TaskId schedule_after(SimDuration delay, Callback cb);

  /// Schedules `cb` every `period`, first firing at now + `period`.
  /// Periodic tasks run until cancelled or the loop is destroyed.
  TaskId schedule_periodic(SimDuration period, Callback cb);

  /// Cancels a pending (or periodic) task.  Returns false if unknown or
  /// already executed.
  bool cancel(TaskId id);

  /// Runs events until the queue is empty (or `max_events` processed).
  /// Returns the number of events executed.
  std::size_t run_until_idle(
      std::size_t max_events = std::numeric_limits<std::size_t>::max());

  /// Runs all events with timestamp <= `t`, then advances now() to `t`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime t);

  /// Runs for `d` of virtual time from the current instant.
  std::size_t run_for(SimDuration d) { return run_until(now_ + d); }

  /// Requests that the current run_* call return after the in-flight
  /// callback completes.  Only meaningful from within a callback.
  void stop() noexcept { stop_requested_ = true; }

  /// True while a run_* call is dispatching events.  Re-entrant run_*
  /// calls (e.g. a NIC retry hook advancing the loop from within a
  /// callback the loop itself is executing) are refused — they return 0
  /// without dispatching — because nested dispatch would interleave
  /// now_ updates and break the (time, seq) execution order.  Callers
  /// that may run in both contexts guard with `if (!loop.running())`.
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// True when no events are pending.
  [[nodiscard]] bool idle() const noexcept;

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const noexcept;

  /// Heap entries currently held (pending + not-yet-reclaimed cancelled).
  /// Compaction keeps this within a small factor of pending() — the
  /// observable the churn-boundedness test asserts on.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return heap_.size();
  }

 private:
  static constexpr std::size_t kInitialQueueCapacity = 256;

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< tie-breaker: FIFO among equal timestamps
    TaskId id = kInvalidTask;
    SimDuration period = 0;  ///< > 0 for periodic tasks
    // Callbacks live in a side map so cancel() can free them eagerly.
  };
  /// Max-heap comparator that makes the (time, seq)-smallest entry the
  /// heap top — std::push_heap/std::pop_heap with this ordering yield a
  /// min-queue, exactly the old std::priority_queue behaviour.
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  TaskId push(SimTime t, Callback cb, SimDuration period);
  void push_event(Event e);
  bool pop_next(Event& out);
  /// Removes every cancelled entry from the heap in one pass and
  /// restores the heap property.  Ordering of the survivors is fully
  /// determined by (time, seq), so compaction never perturbs execution
  /// order — it only reclaims memory.
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  TaskId next_id_ = 1;
  bool stop_requested_ = false;
  bool running_ = false;  ///< re-entrancy guard; see running()
  std::vector<Event> heap_;  ///< binary heap under EventOrder
  std::unordered_set<TaskId> cancelled_;
  std::unordered_map<TaskId, Callback> callbacks_;
};

}  // namespace shs::sim
