// ServerCore: the long-lived multi-session serving loop. Sessions enter a
// bounded admission queue (block / reject / shed-oldest on overflow), worker
// threads dequeue them, lease a replica from the ReplicaPool, and run the
// session executor under a SerialRegionGuard — per-session compute is
// serial, concurrency lives across sessions. Each session carries a
// DeadlineBudget charged with its queue wait and evaluation time; a
// watchdog thread declares replicas wedged — condemning the slot and
// cancelling its session's budget cooperatively — and a supervisor thread
// rebuilds condemned replicas in the background (readmitting them, or
// quarantining a slot that keeps dying). stop(kDrain) finishes the queue,
// stop(kNow) flushes it and interrupts running sessions at their next safe
// point (journaled sessions flush and remain resumable).
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "serve/coalesce.hpp"
#include "serve/replica.hpp"
#include "serve/serve.hpp"

namespace metadse::serve {

class ServerCore {
 public:
  /// Validates options (replicas/workers/queue_capacity >= 1) and starts
  /// the worker and watchdog threads immediately.
  ServerCore(ServeOptions options, SessionExecutor executor);

  /// stop(kNow) + join.
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Admits one session. Always returns a future that eventually resolves
  /// (possibly immediately, with kRejected/kShed). Under AdmissionPolicy::
  /// kBlock a full queue makes this call wait for space. After stop() every
  /// submission resolves kRejected.
  std::future<SessionResult> submit(SessionRequest request);

  enum class StopMode {
    kDrain,  ///< finish every queued session, then stop
    kNow,    ///< flush the queue (kStopped) and interrupt running sessions
  };

  /// Idempotent; returns once every worker and the watchdog have joined.
  void stop(StopMode mode);

  ServerStats stats() const;
  size_t queue_depth() const;
  const ServeOptions& options() const { return options_; }

  /// Installs the source of coalescing counters surfaced by stats()
  /// (typically MetaDseSessionEngine::coalesce_stats). Call before serving
  /// starts; not thread-safe against concurrent stats().
  void set_coalesce_stats(std::function<CoalesceStats()> source) {
    coalesce_source_ = std::move(source);
  }

  /// Rebuilds one condemned replica so the supervisor can readmit it, for
  /// executors that keep per-slot state. Returns false (or throws) to
  /// report the rebuild failed, which quarantines the slot. Runs on the
  /// supervisor thread while the slot is out of dispatch, so it may mutate
  /// per-replica state freely. MetaDseSessionEngine keeps no per-slot state
  /// (every slot reads the same adapted predictors), so it installs none.
  using ReplicaRebuilder = std::function<bool(size_t replica)>;

  /// Installs the rebuilder. Without one, condemned slots are readmitted
  /// as-is (rebuild = no-op success) — the pre-supervisor behaviour where a
  /// wedged replica that finally finished its session is presumed usable.
  /// Call before serving starts; not thread-safe against serving.
  void set_replica_rebuilder(ReplicaRebuilder rebuilder) {
    rebuilder_ = std::move(rebuilder);
  }

  /// The pool's view of one slot (tests and the CLI status line).
  ReplicaPool::SlotState replica_state(size_t id) const {
    return pool_.state(id);
  }

 private:
  struct Pending {
    SessionRequest request;
    std::promise<SessionResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<explore::DeadlineBudget> budget;
  };

  void worker_loop();
  void watchdog_loop();
  void supervisor_loop();
  /// Condemns @p replica (wedge or executor-reported fault) and counts the
  /// transition once. Returns true when this call made it.
  bool condemn_replica(size_t replica);
  /// Runs one dequeued session end-to-end and settles its promise.
  void serve_one(Pending item, size_t depth_after_pop);
  /// Resolves @p item's promise with @p result and bumps the status bucket.
  void settle(Pending& item, SessionResult result);

  ServeOptions options_;
  SessionExecutor executor_;
  ReplicaPool pool_;

  mutable std::mutex m_;
  std::condition_variable queue_cv_;  ///< workers: queue non-empty / stopping
  std::condition_variable space_cv_;  ///< blocked submitters: space freed
  std::condition_variable watchdog_cv_;  ///< watchdog: shutdown wake-up
  std::deque<Pending> queue_;
  bool stopping_ = false;  ///< no new admissions
  std::atomic<bool> stop_now_{false};  ///< interrupt running sessions
  std::atomic<bool> watchdog_exit_{false};
  /// Budget of the session currently holding each replica (watchdog target).
  std::vector<std::shared_ptr<explore::DeadlineBudget>> active_;

  // Terminal-status buckets (relaxed atomics; stats() is a snapshot).
  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> ok_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> shed_{0};
  std::atomic<size_t> deadline_{0};
  std::atomic<size_t> stopped_{0};
  std::atomic<size_t> failed_{0};
  std::atomic<size_t> degraded_{0};
  std::atomic<size_t> queue_high_water_{0};
  std::atomic<size_t> watchdog_trips_{0};
  std::atomic<size_t> cancelled_points_{0};
  std::atomic<size_t> quant_sessions_{0};
  std::atomic<size_t> quant_fallbacks_{0};
  std::atomic<size_t> replicas_condemned_{0};
  std::atomic<size_t> replicas_rebuilt_{0};
  std::atomic<size_t> replicas_quarantined_{0};

  std::function<CoalesceStats()> coalesce_source_;
  ReplicaRebuilder rebuilder_;
  /// Recent rebuild completion times per slot (supervisor thread only) —
  /// the sliding window behind replica_rebuild_limit.
  std::vector<std::vector<std::chrono::steady_clock::time_point>>
      rebuild_times_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::thread supervisor_;
  std::atomic<bool> supervisor_exit_{false};
  bool joined_ = false;  ///< guarded by m_
};

}  // namespace metadse::serve
