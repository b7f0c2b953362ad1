// BatchCoalescer: a cross-session batching queue. Concurrent sessions submit
// small predict requests (a few feature rows each); the coalescer assembles
// them into one large fused batch per flush and executes a single
// predict_batch call instead of many small ones — the cuBERT-style
// multi-instance payoff the ROADMAP names. Because predict_batch guarantees
// element i is bitwise identical to predict_one(rows[i]) regardless of what
// else is in the batch, fusing rows from unrelated sessions cannot change any
// session's values: coalesced fronts are bitwise-identical to uncoalesced
// ones (pinned by the CoalesceEquivalence suite).
//
// Flush policy (deterministic given the submit/join/leave/tick sequence):
//   1. max-batch  — a submit that brings the assembling batch to >= max_batch
//      points flushes immediately; the submitting thread is the leader and
//      executes the fused call inline.
//   2. occupancy  — sessions that route every prediction through the
//      coalescer join() it for the length of their run. Once every joined
//      session has a request assembling, no co-rider can still arrive, so
//      the submit (or join/leave) that made it so flushes inline. A lone
//      joined session therefore never waits: its submit is its flush.
//   3. wait-ticks — tick() advances logical time; a batch whose oldest
//      request has aged wait_ticks ticks is flushed by the ticking thread.
//      This bounds the wait behind a joined session that is busy between
//      predictions (or wedged) and is the only timed trigger for sessions
//      that never joined. With tick_ms > 0 an internal ticker thread calls
//      tick() periodically; tick_ms == 0 leaves ticking to the caller (tests).
//   4. barrier    — flush() force-flushes whatever is assembled.
// At flush, requests are ordered by (session_id, seq) — seq is a per-session
// counter assigned at submit — so assembly order is reproducible no matter
// which thread won the race to submit first.
//
// Cancellation: a cancel while the request is still assembling removes its
// rows from the batch before execution (survivors' values are untouched —
// row independence again); a cancel after the batch went in-flight lets the
// fused call finish (results for the cancelled request are discarded).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace metadse::serve {

/// Coalescing knobs. Defaults suit serving; tests use tick_ms = 0 and drive
/// tick()/flush() by hand for deterministic schedules.
struct CoalesceOptions {
  /// Flush as soon as the assembling batch holds this many points (>= 1).
  size_t max_batch = 64;
  /// Flush a non-empty batch once its oldest request has waited this many
  /// ticks (>= 1) — bounds the latency a lone straggler can add.
  size_t wait_ticks = 2;
  /// Ticker thread period; 0 disables the ticker (manual tick()/flush()).
  size_t tick_ms = 1;
};

/// Monotonic accounting. Once every submitted request has resolved (drained):
///   submitted_points == coalesced_points + cancelled_points + failed_points
///   coalesced_batches == flush_full + flush_tick + flush_barrier
struct CoalesceStats {
  size_t submitted_requests = 0;
  size_t submitted_points = 0;
  size_t coalesced_batches = 0;   ///< successful fused executor calls
  size_t coalesced_points = 0;    ///< points answered by fused calls
  size_t cancelled_points = 0;    ///< points removed from assembly by cancel
  size_t failed_points = 0;       ///< points in batches whose executor threw
  size_t failed_batches = 0;      ///< fused calls whose executor threw
  size_t max_batch_points = 0;    ///< largest successful fused batch
  /// Flushes of a batch that could not grow: max_batch reached, or every
  /// joined session waiting (occupancy).
  size_t flush_full = 0;
  size_t flush_tick = 0;          ///< flushes triggered by wait_ticks aging
  size_t flush_barrier = 0;       ///< flushes triggered by flush()

  double mean_batch_points() const {
    return coalesced_batches == 0
               ? 0.0
               : static_cast<double>(coalesced_points) /
                     static_cast<double>(coalesced_batches);
  }
};

/// Thrown to a waiter whose request was cancelled (its own cancel predicate
/// fired, cancel_session() dropped it, or the coalescer shut down).
class CoalesceCancelled : public std::runtime_error {
 public:
  explicit CoalesceCancelled(const std::string& what)
      : std::runtime_error(what) {}
};

class BatchCoalescer {
 public:
  using Rows = std::vector<std::vector<float>>;
  /// The fused call: must return exactly one float per input row, row i
  /// independent of the other rows (the predict_batch contract).
  using Executor = std::function<std::vector<float>(const Rows&)>;

  /// Validates options (max_batch/wait_ticks >= 1, executor non-null) and,
  /// when tick_ms > 0, starts the ticker thread.
  BatchCoalescer(CoalesceOptions options, Executor executor);

  /// Cancels every request still assembling, waits for an in-flight fused
  /// call to finish, and joins the ticker. The caller must guarantee no
  /// thread is inside submit/wait/predict when destruction starts (the
  /// serving engine destroys the coalescer only after ServerCore joined).
  ~BatchCoalescer();

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Handle to one submitted request; wait() redeems it.
  class Ticket {
   public:
    Ticket() = default;
    bool valid() const { return req_ != nullptr; }

   private:
    friend class BatchCoalescer;
    std::shared_ptr<struct CoalesceRequest> req_;
  };

  /// Membership of one session in the occupancy trigger; its destructor
  /// leaves. Movable so it can live in an optional, never copyable.
  class Participation {
   public:
    Participation(Participation&& other) noexcept
        : coal_(std::exchange(other.coal_, nullptr)),
          session_id_(other.session_id_) {}
    Participation(const Participation&) = delete;
    Participation& operator=(const Participation&) = delete;
    Participation& operator=(Participation&&) = delete;
    ~Participation() {
      if (coal_ != nullptr) coal_->leave(session_id_);
    }

   private:
    friend class BatchCoalescer;
    Participation(BatchCoalescer* coal, uint64_t session_id)
        : coal_(coal), session_id_(session_id) {}
    BatchCoalescer* coal_;
    uint64_t session_id_;
  };

  /// Counts @p session_id toward the occupancy trigger until the returned
  /// handle is destroyed. Join only a session whose every prediction goes
  /// through this coalescer: a joined session that stops submitting holds
  /// its co-riders back until wait_ticks releases them. Throws
  /// std::logic_error if @p session_id is already joined.
  [[nodiscard]] Participation join(uint64_t session_id);

  /// Enqueues @p rows for session @p session_id (non-blocking apart from an
  /// inline fused execution when this submit fills the batch or completes
  /// the joined sessions' occupancy). Empty rows resolve immediately with
  /// an empty result.
  Ticket submit(uint64_t session_id, Rows rows);

  /// Blocks until the ticket's request resolves. Returns one float per
  /// submitted row, in row order. @p cancel, when set, is polled while
  /// waiting; once it returns true the request is cancelled (dropped from
  /// the assembling batch, or its in-flight result discarded) and
  /// CoalesceCancelled is thrown. Executor exceptions are rethrown verbatim.
  std::vector<float> wait(const Ticket& ticket,
                          const std::function<bool()>& cancel = {});

  /// submit + wait in one call — what the session evaluators use.
  std::vector<float> predict(uint64_t session_id, Rows rows,
                             const std::function<bool()>& cancel = {});

  /// Advances logical time by one tick and flushes an over-age batch.
  void tick();

  /// Session barrier: flushes whatever is assembled right now (no-op when
  /// the batch is empty).
  void flush();

  /// Drops every assembling request of @p session_id (their waiters get
  /// CoalesceCancelled) and marks its in-flight requests for discard.
  void cancel_session(uint64_t session_id);

  CoalesceStats stats() const;
  const CoalesceOptions& options() const { return options_; }

 private:
  enum class FlushCause { kFull, kTick, kBarrier };

  /// Called by ~Participation. Removes @p session_id from the joined set,
  /// forgets its seq counter when none of its requests is assembling or in
  /// flight, and flushes for the remaining joined sessions when they are
  /// all waiting.
  void leave(uint64_t session_id);
  /// Precondition: @p lk holds m_. Flushes as kFull when the batch cannot
  /// grow: max_batch reached, or every joined session waiting.
  void flush_if_full_locked(std::unique_lock<std::mutex>& lk);
  /// Precondition: @p lk holds m_. Executes the assembled batch (releasing
  /// m_ around the fused call, serialized by exec_m_) and scatters results.
  void flush_locked(std::unique_lock<std::mutex>& lk, FlushCause cause);
  /// Precondition: m_ held. Cancels one request according to its state.
  void cancel_locked(const std::shared_ptr<CoalesceRequest>& req);
  void ticker_loop();

  CoalesceOptions options_;
  Executor executor_;

  mutable std::mutex m_;
  std::condition_variable cv_;  ///< waiters: request resolved / shutdown
  std::mutex exec_m_;  ///< serializes fused executor calls (one model)
  std::vector<std::shared_ptr<CoalesceRequest>> assembling_;
  /// Requests whose fused batch is currently executing (m_ released around
  /// the call): cancel_session must still be able to find and mark them.
  std::vector<std::shared_ptr<CoalesceRequest>> in_flight_;
  size_t assembled_points_ = 0;
  uint64_t tick_now_ = 0;   ///< logical clock
  uint64_t open_tick_ = 0;  ///< tick when the oldest assembling request landed
  std::map<uint64_t, uint64_t> next_seq_;  ///< per-session submit counters
  std::set<uint64_t> joined_;  ///< sessions counted by the occupancy trigger
  bool stopping_ = false;
  CoalesceStats stats_;

  std::thread ticker_;
  std::condition_variable ticker_cv_;  ///< ticker: shutdown wake-up
};

}  // namespace metadse::serve
