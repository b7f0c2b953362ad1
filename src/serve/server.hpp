// ServerCore: the long-lived multi-session serving loop. Sessions enter a
// bounded admission queue (block / reject / shed-oldest on overflow), worker
// threads dequeue them, lease a replica from the ReplicaPool, and run the
// session executor under a SerialRegionGuard — per-session compute is
// serial, concurrency lives across sessions. Each session carries a
// DeadlineBudget charged with its queue wait and evaluation time; a
// watchdog thread declares replicas wedged — condemning the lease and
// cancelling its session's budget cooperatively. The pool readmits a
// condemned slot (or quarantines one that keeps dying) the moment its lease
// ends, before the session's future resolves. stop(kDrain) finishes the
// queue, stop(kNow) flushes it and interrupts running sessions at their
// next safe point (journaled sessions flush and remain resumable).
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

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

 private:
  struct Pending {
    SessionRequest request;
    std::promise<SessionResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<explore::DeadlineBudget> budget;
  };

  void worker_loop();
  void watchdog_loop();
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
  /// Budget of the session currently holding each replica, tagged with its
  /// lease's sequence number (watchdog target).
  struct Active {
    uint64_t lease = 0;
    std::shared_ptr<explore::DeadlineBudget> budget;
  };
  std::vector<Active> active_;

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

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  bool joined_ = false;  ///< guarded by m_
};

}  // namespace metadse::serve
