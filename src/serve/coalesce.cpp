#include "serve/coalesce.hpp"

#include <algorithm>
#include <chrono>

#include "core/chaos.hpp"
#include "sim/fault_injection.hpp"

namespace metadse::serve {

/// One submitted request's full lifecycle. State transitions (under m_):
///   kAssembling -> kInFlight -> kDone | kFailed
///   kAssembling -> kCancelled            (dropped before execution)
/// cancel_requested marks an in-flight request whose waiter gave up: the
/// fused call still completes (other sessions' rows ride in it), but the
/// waiter throws and the result is discarded.
struct CoalesceRequest {
  uint64_t session_id = 0;
  uint64_t seq = 0;
  BatchCoalescer::Rows rows;
  enum class State { kAssembling, kInFlight, kDone, kFailed, kCancelled };
  State state = State::kAssembling;
  bool cancel_requested = false;
  std::vector<float> result;
  std::exception_ptr error;
};

namespace {

using State = CoalesceRequest::State;

bool resolved(const CoalesceRequest& r) {
  return r.state == State::kDone || r.state == State::kFailed ||
         r.state == State::kCancelled;
}

}  // namespace

BatchCoalescer::BatchCoalescer(CoalesceOptions options, Executor executor)
    : options_(options), executor_(std::move(executor)) {
  if (!executor_) {
    throw std::invalid_argument("BatchCoalescer: null executor");
  }
  if (options_.max_batch == 0) {
    throw std::invalid_argument("BatchCoalescer: max_batch must be >= 1");
  }
  if (options_.wait_ticks == 0) {
    throw std::invalid_argument("BatchCoalescer: wait_ticks must be >= 1");
  }
  if (options_.tick_ms > 0) {
    ticker_ = std::thread([this] { ticker_loop(); });
  }
}

BatchCoalescer::~BatchCoalescer() {
  {
    std::unique_lock<std::mutex> lk(m_);
    stopping_ = true;
    for (auto& req : assembling_) {
      req->state = State::kCancelled;
      stats_.cancelled_points += req->rows.size();
    }
    assembling_.clear();
    assembled_points_ = 0;
  }
  cv_.notify_all();
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  // Wait out an in-flight fused call so the executor never outlives us.
  { std::lock_guard<std::mutex> ex(exec_m_); }
}

BatchCoalescer::Participation BatchCoalescer::join(uint64_t session_id) {
  std::unique_lock<std::mutex> lk(m_);
  if (!joined_.insert(session_id).second) {
    throw std::logic_error("BatchCoalescer: session " +
                           std::to_string(session_id) + " joined twice");
  }
  // Only a session with a request already assembling can complete the
  // occupancy here; the engine joins before its first submit.
  flush_if_full_locked(lk);
  return Participation(this, session_id);
}

void BatchCoalescer::leave(uint64_t session_id) {
  std::unique_lock<std::mutex> lk(m_);
  joined_.erase(session_id);
  const auto mine = [session_id](const auto& req) {
    return req->session_id == session_id;
  };
  if (std::none_of(assembling_.begin(), assembling_.end(), mine) &&
      std::none_of(in_flight_.begin(), in_flight_.end(), mine)) {
    next_seq_.erase(session_id);
  }
  // The departing session may have been the only one not waiting: this
  // thread then flushes for the others.
  flush_if_full_locked(lk);
}

void BatchCoalescer::flush_if_full_locked(std::unique_lock<std::mutex>& lk) {
  if (assembling_.empty()) return;
  const bool all_joined_waiting =
      !joined_.empty() &&
      std::all_of(joined_.begin(), joined_.end(), [this](uint64_t id) {
        return std::any_of(
            assembling_.begin(), assembling_.end(),
            [id](const auto& req) { return req->session_id == id; });
      });
  if (all_joined_waiting || assembled_points_ >= options_.max_batch) {
    flush_locked(lk, FlushCause::kFull);
  }
}

BatchCoalescer::Ticket BatchCoalescer::submit(uint64_t session_id,
                                              Rows rows) {
  auto req = std::make_shared<CoalesceRequest>();
  req->session_id = session_id;
  req->rows = std::move(rows);

  std::unique_lock<std::mutex> lk(m_);
  if (stopping_) {
    throw std::logic_error("BatchCoalescer: submit after shutdown");
  }
  req->seq = next_seq_[session_id]++;
  stats_.submitted_requests += 1;
  stats_.submitted_points += req->rows.size();
  if (req->rows.empty()) {
    // Nothing to coalesce; resolve immediately so waiters never block.
    req->state = State::kDone;
  } else {
    if (assembling_.empty()) open_tick_ = tick_now_;
    assembling_.push_back(req);
    assembled_points_ += req->rows.size();
    flush_if_full_locked(lk);
  }
  Ticket t;
  t.req_ = std::move(req);
  return t;
}

std::vector<float> BatchCoalescer::wait(const Ticket& ticket,
                                        const std::function<bool()>& cancel) {
  if (!ticket.valid()) {
    throw std::logic_error("BatchCoalescer: wait on an invalid ticket");
  }
  const auto& req = ticket.req_;
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    if (resolved(*req)) {
      switch (req->state) {
        case State::kDone:
          if (req->cancel_requested) {
            throw CoalesceCancelled(
                "coalesce: request cancelled while its fused batch was "
                "in flight; result discarded");
          }
          return req->result;
        case State::kFailed:
          std::rethrow_exception(req->error);
        default:  // kCancelled
          throw CoalesceCancelled(
              "coalesce: request dropped from the assembling batch");
      }
    }
    if (cancel && cancel()) {
      cancel_locked(req);
      continue;  // resolves as kCancelled or waits out the in-flight batch
    }
    // Bounded wait so the cancel predicate is polled even when no flush is
    // coming (e.g. the budget was cancelled while this straggler waits).
    cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
}

std::vector<float> BatchCoalescer::predict(uint64_t session_id, Rows rows,
                                           const std::function<bool()>&
                                               cancel) {
  return wait(submit(session_id, std::move(rows)), cancel);
}

void BatchCoalescer::tick() {
  std::unique_lock<std::mutex> lk(m_);
  ++tick_now_;
  if (!assembling_.empty() &&
      tick_now_ - open_tick_ >= options_.wait_ticks) {
    flush_locked(lk, FlushCause::kTick);
  }
}

void BatchCoalescer::flush() {
  std::unique_lock<std::mutex> lk(m_);
  if (!assembling_.empty()) flush_locked(lk, FlushCause::kBarrier);
}

void BatchCoalescer::cancel_session(uint64_t session_id) {
  std::unique_lock<std::mutex> lk(m_);
  // Snapshot first: cancel_locked mutates assembling_.
  std::vector<std::shared_ptr<CoalesceRequest>> mine;
  for (const auto& req : assembling_) {
    if (req->session_id == session_id) mine.push_back(req);
  }
  for (const auto& req : in_flight_) {
    if (req->session_id == session_id) mine.push_back(req);
  }
  for (const auto& req : mine) cancel_locked(req);
  cv_.notify_all();
}

void BatchCoalescer::cancel_locked(
    const std::shared_ptr<CoalesceRequest>& req) {
  switch (req->state) {
    case State::kAssembling: {
      // Remove its rows before the batch executes: survivors' values are
      // unaffected because each row's result is independent of the batch.
      auto it = std::find(assembling_.begin(), assembling_.end(), req);
      if (it != assembling_.end()) assembling_.erase(it);
      assembled_points_ -= req->rows.size();
      stats_.cancelled_points += req->rows.size();
      req->state = State::kCancelled;
      break;
    }
    case State::kInFlight:
      // Too late to pull the rows; discard the result at resolution.
      req->cancel_requested = true;
      break;
    default:
      break;  // already resolved
  }
}

void BatchCoalescer::flush_locked(std::unique_lock<std::mutex>& lk,
                                  FlushCause cause) {
  std::vector<std::shared_ptr<CoalesceRequest>> batch =
      std::move(assembling_);
  assembling_.clear();
  assembled_points_ = 0;
  if (batch.empty()) return;

  // Reproducible assembly order regardless of which thread submitted first.
  std::sort(batch.begin(), batch.end(),
            [](const auto& a, const auto& b) {
              return a->session_id != b->session_id
                         ? a->session_id < b->session_id
                         : a->seq < b->seq;
            });
  Rows fused;
  size_t total = 0;
  for (const auto& req : batch) total += req->rows.size();
  fused.reserve(total);
  for (auto& req : batch) {
    req->state = State::kInFlight;
    in_flight_.push_back(req);
    for (const auto& row : req->rows) fused.push_back(row);
  }

  // The fused call runs outside m_ (submitters/tickers stay unblocked,
  // assembling the next batch) but under exec_m_: one model, one fused
  // forward at a time.
  lk.unlock();
  std::vector<float> results;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> ex(exec_m_);
    try {
      // Chaos: a failed fused forward. Every waiter in this batch rethrows
      // it and their guards retry/degrade — exactly the executor-throw path.
      if (core::chaos::fire("coalesce.flush")) {
        throw sim::SimulationFailure("injected coalesce flush fault");
      }
      results = executor_(fused);
      if (results.size() != total) {
        throw std::runtime_error(
            "BatchCoalescer: executor returned " +
            std::to_string(results.size()) + " results for " +
            std::to_string(total) + " rows");
      }
    } catch (...) {
      error = std::current_exception();
    }
  }
  lk.lock();
  // Only this batch's entries: a concurrent flush may have its own in
  // flight while m_ was released.
  for (const auto& req : batch) {
    auto it = std::find(in_flight_.begin(), in_flight_.end(), req);
    if (it != in_flight_.end()) in_flight_.erase(it);
  }

  if (error) {
    for (auto& req : batch) {
      req->state = State::kFailed;
      req->error = error;
    }
    stats_.failed_points += total;
    stats_.failed_batches += 1;
  } else {
    size_t offset = 0;
    for (auto& req : batch) {
      req->result.assign(results.begin() + static_cast<std::ptrdiff_t>(offset),
                         results.begin() +
                             static_cast<std::ptrdiff_t>(offset +
                                                         req->rows.size()));
      offset += req->rows.size();
      req->state = State::kDone;
    }
    stats_.coalesced_batches += 1;
    stats_.coalesced_points += total;
    stats_.max_batch_points = std::max(stats_.max_batch_points, total);
    switch (cause) {
      case FlushCause::kFull: stats_.flush_full += 1; break;
      case FlushCause::kTick: stats_.flush_tick += 1; break;
      case FlushCause::kBarrier: stats_.flush_barrier += 1; break;
    }
  }
  cv_.notify_all();
}

CoalesceStats BatchCoalescer::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return stats_;
}

void BatchCoalescer::ticker_loop() {
  std::unique_lock<std::mutex> lk(m_);
  while (!stopping_) {
    ticker_cv_.wait_for(lk, std::chrono::milliseconds(options_.tick_ms));
    if (stopping_) return;
    ++tick_now_;
    if (!assembling_.empty() &&
        tick_now_ - open_tick_ >= options_.wait_ticks) {
      flush_locked(lk, FlushCause::kTick);
    }
  }
}

}  // namespace metadse::serve
