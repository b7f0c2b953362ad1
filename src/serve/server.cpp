#include "serve/server.hpp"

#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "explore/explorer.hpp"
#include "explore/guarded.hpp"

namespace metadse::serve {

namespace {

size_t elapsed_ms(std::chrono::steady_clock::time_point start) {
  return static_cast<size_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ServerCore::ServerCore(ServeOptions options, SessionExecutor executor)
    : options_(options),
      executor_(std::move(executor)),
      pool_(options.replicas, options.replica_rebuild_limit,
            options.replica_rebuild_window_ms),
      active_(options.replicas) {
  if (!executor_) {
    throw std::invalid_argument("ServerCore: null session executor");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("ServerCore: workers must be >= 1");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("ServerCore: queue_capacity must be >= 1");
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (options_.watchdog_period_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ServerCore::~ServerCore() { stop(StopMode::kNow); }

std::future<SessionResult> ServerCore::submit(SessionRequest request) {
  Pending item;
  item.request = std::move(request);
  item.enqueued = std::chrono::steady_clock::now();
  item.budget = std::make_shared<explore::DeadlineBudget>(
      options_.session_deadline_ms);
  std::future<SessionResult> fut = item.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  std::optional<Pending> victim;  // shed under kShedOldest
  {
    std::unique_lock<std::mutex> lk(m_);
    if (!stopping_ && queue_.size() >= options_.queue_capacity) {
      switch (options_.admission) {
        case AdmissionPolicy::kReject: {
          SessionResult r;
          r.id = item.request.id;
          r.status = SessionStatus::kRejected;
          r.retry_after_ms = options_.retry_after_ms;
          r.detail = "admission queue full";
          lk.unlock();
          settle(item, std::move(r));
          return fut;
        }
        case AdmissionPolicy::kShedOldest:
          victim = std::move(queue_.front());
          queue_.pop_front();
          break;
        case AdmissionPolicy::kBlock:
          space_cv_.wait(lk, [&] {
            return stopping_ || queue_.size() < options_.queue_capacity;
          });
          break;
      }
    }
    if (stopping_) {
      // Either the server was already stopping at entry, or a kBlock wait
      // was woken by shutdown; a shed victim cannot exist on either path
      // (the shed branch never releases the lock).
      SessionResult r;
      r.id = item.request.id;
      r.status = SessionStatus::kRejected;
      r.detail = "server is stopping";
      lk.unlock();
      settle(item, std::move(r));
      return fut;
    }
    queue_.push_back(std::move(item));
    const size_t depth = queue_.size();
    size_t hw = queue_high_water_.load(std::memory_order_relaxed);
    while (depth > hw &&
           !queue_high_water_.compare_exchange_weak(
               hw, depth, std::memory_order_relaxed)) {
    }
  }
  queue_cv_.notify_one();
  if (victim) {
    SessionResult r;
    r.id = victim->request.id;
    r.status = SessionStatus::kShed;
    r.queued_ms = elapsed_ms(victim->enqueued);
    r.total_ms = r.queued_ms;
    r.detail = "shed from the admission queue by a newer session";
    settle(*victim, std::move(r));
  }
  return fut;
}

void ServerCore::worker_loop() {
  for (;;) {
    Pending item;
    size_t depth_after_pop = 0;
    {
      std::unique_lock<std::mutex> lk(m_);
      queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      item = std::move(queue_.front());
      queue_.pop_front();
      depth_after_pop = queue_.size();
    }
    space_cv_.notify_one();
    serve_one(std::move(item), depth_after_pop);
  }
}

void ServerCore::serve_one(Pending item, size_t depth_after_pop) {
  SessionResult result;
  result.id = item.request.id;
  result.queued_ms = elapsed_ms(item.enqueued);
  item.budget->charge(result.queued_ms);

  if (stop_now_.load(std::memory_order_relaxed)) {
    result.status = SessionStatus::kStopped;
    result.total_ms = result.queued_ms;
    result.detail = "server stopped before the session was dispatched";
    settle(item, std::move(result));
    return;
  }
  if (item.budget->exhausted()) {
    result.status = SessionStatus::kDeadline;
    result.total_ms = result.queued_ms;
    result.detail = "session deadline expired while queued (" +
                    std::to_string(result.queued_ms) + " ms of " +
                    std::to_string(item.budget->total_ms()) + ")";
    settle(item, std::move(result));
    return;
  }

  // Load-aware degradation: a deep backlog at dispatch forces the session
  // onto the cheap baseline rung so the queue drains instead of growing.
  const double fill =
      static_cast<double>(depth_after_pop) /
      static_cast<double>(options_.queue_capacity);
  const bool forced_baseline = fill >= options_.degrade_at;

  auto lease = pool_.acquire(
      [this] { return stop_now_.load(std::memory_order_relaxed); });
  if (!lease) {
    if (pool_.all_quarantined()) {
      result.status = SessionStatus::kFailed;
      result.total_ms = elapsed_ms(item.enqueued);
      result.detail = "every replica is quarantined; the pool cannot serve";
    } else {
      result.status = SessionStatus::kStopped;
      result.total_ms = elapsed_ms(item.enqueued);
      result.detail = "server stopped while waiting for a replica";
    }
    settle(item, std::move(result));
    return;
  }
  const size_t replica = lease->id();
  {
    std::lock_guard<std::mutex> lk(m_);
    active_[replica] = {lease->seq(), item.budget};
  }

  ExecContext ctx;
  ctx.replica = replica;
  ctx.budget = item.budget;
  ctx.stop_requested = [this] {
    return stop_now_.load(std::memory_order_relaxed);
  };
  ctx.start_level = forced_baseline ? explore::DegradeLevel::kBaseline
                                    : explore::DegradeLevel::kSurrogate;

  const auto service_start = std::chrono::steady_clock::now();
  try {
    // Per-session compute is serial: the replica's nested parallel regions
    // run inline, so N sessions on N replicas never contend for the global
    // single-batch thread pool.
    core::SerialRegionGuard serial;
    ExecResult exec = executor_(item.request, ctx);
    result.status = SessionStatus::kOk;
    // A blown-deadline batch cancellation served some points off the cheap
    // rung: fold it into degraded so the stats self-check
    // (cancelled_points > 0 implies degraded > 0) holds at the serve layer,
    // not just inside the guard's report.
    result.degraded =
        forced_baseline || exec.degraded || exec.cancelled_points > 0;
    result.detail = std::move(exec.detail);
    cancelled_points_.fetch_add(exec.cancelled_points,
                                std::memory_order_relaxed);
    if (exec.quantized) quant_sessions_.fetch_add(1, std::memory_order_relaxed);
    if (exec.quant_fallback) {
      quant_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const explore::StopRequested& e) {
    result.status = SessionStatus::kStopped;
    result.detail = e.what();
  } catch (const ReplicaFault& e) {
    // The executor reported the *replica* broken, not just the session:
    // condemn the lease now, while it is still held, so releasing it runs
    // the slot through the quarantine breaker.
    pool_.condemn(replica, lease->seq());
    result.status = SessionStatus::kFailed;
    result.detail = e.what();
  } catch (const explore::ExplorationAborted& e) {
    result.status = (item.budget->cancelled() || item.budget->exhausted())
                        ? SessionStatus::kDeadline
                        : SessionStatus::kFailed;
    result.detail = e.what();
  } catch (const std::exception& e) {
    result.status = SessionStatus::kFailed;
    result.detail = e.what();
  }
  result.service_ms = elapsed_ms(service_start);
  result.total_ms = elapsed_ms(item.enqueued);

  {
    std::lock_guard<std::mutex> lk(m_);
    active_[replica] = {};
  }
  // Release before settling: by the time the future resolves, a condemned
  // slot is already readmitted or quarantined.
  lease.reset();
  settle(item, std::move(result));
}

void ServerCore::watchdog_loop() {
  std::unique_lock<std::mutex> lk(m_);
  while (!watchdog_exit_.load(std::memory_order_relaxed)) {
    watchdog_cv_.wait_for(
        lk, std::chrono::milliseconds(options_.watchdog_period_ms));
    if (watchdog_exit_.load(std::memory_order_relaxed)) return;
    if (options_.wedged_after_ms == 0) continue;
    lk.unlock();
    for (const auto& info : pool_.busy_slots()) {
      if (info.busy_ms <= options_.wedged_after_ms) continue;
      // Only the lease measured: if it ended since the snapshot, a new
      // session on the same slot is not wedged.
      if (!pool_.condemn(info.replica, info.seq)) continue;
      // Transition to wedged: trip the breaker once and cancel the
      // session's budget so it aborts at its next cooperative check; the
      // slot is resolved when that lease ends.
      watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> inner(m_);
      const Active& a = active_[info.replica];
      if (a.budget && a.lease == info.seq) a.budget->cancel();
    }
    lk.lock();
  }
}

void ServerCore::settle(Pending& item, SessionResult result) {
  switch (result.status) {
    case SessionStatus::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      if (result.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionStatus::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionStatus::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionStatus::kDeadline:
      deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionStatus::kStopped:
      stopped_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SessionStatus::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  item.promise.set_value(std::move(result));
}

void ServerCore::stop(StopMode mode) {
  std::vector<Pending> flushed;
  bool do_join = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    stopping_ = true;
    if (mode == StopMode::kNow) {
      stop_now_.store(true, std::memory_order_relaxed);
      while (!queue_.empty()) {
        flushed.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      for (auto& a : active_) {
        if (a.budget) a.budget->cancel();
      }
    }
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& item : flushed) {
    SessionResult r;
    r.id = item.request.id;
    r.status = SessionStatus::kStopped;
    r.queued_ms = elapsed_ms(item.enqueued);
    r.total_ms = r.queued_ms;
    r.detail = "server stopped before the session was dispatched";
    settle(item, std::move(r));
  }
  if (!do_join) return;
  for (auto& w : workers_) w.join();
  watchdog_exit_.store(true, std::memory_order_relaxed);
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

ServerStats ServerCore::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline = deadline_.load(std::memory_order_relaxed);
  s.stopped = stopped_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  s.watchdog_trips = watchdog_trips_.load(std::memory_order_relaxed);
  s.cancelled_points = cancelled_points_.load(std::memory_order_relaxed);
  s.quant_sessions = quant_sessions_.load(std::memory_order_relaxed);
  s.quant_fallbacks = quant_fallbacks_.load(std::memory_order_relaxed);
  const ReplicaPool::Counters c = pool_.counters();
  s.replicas_condemned = c.condemned;
  s.replicas_rebuilt = c.readmitted;
  s.replicas_quarantined = c.quarantined;
  s.replicas_pending_rebuild = c.pending;
  return s;
}

size_t ServerCore::queue_depth() const {
  std::lock_guard<std::mutex> lk(m_);
  return queue_.size();
}

}  // namespace metadse::serve
