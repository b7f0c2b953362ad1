// Shared vocabulary of the serving subsystem: what a session request looks
// like, every terminal status a session can reach, the server's tuning knobs
// (admission policy, degradation thresholds, watchdog), and the executor
// contract that binds the generic ServerCore to an actual session engine
// (the MetaDSE DSE loop in production, a synthetic sleeper in the bench).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "explore/guarded.hpp"
#include "explore/run_report.hpp"

namespace metadse::serve {

/// Thrown by a session executor to report that the *replica* it ran on is
/// broken (crashed model state, poisoned cache, chaos kill) — as opposed to
/// an ordinary session failure. The server condemns the lease, so the slot
/// goes through the quarantine breaker when the lease ends (readmitted, or
/// quarantined if it keeps dying); the session itself lands in kFailed.
class ReplicaFault : public std::runtime_error {
 public:
  explicit ReplicaFault(const std::string& what) : std::runtime_error(what) {}
};

/// What the admission queue does when a request arrives and it is full.
enum class AdmissionPolicy {
  kBlock,      ///< the submitter waits for space (closed-loop clients)
  kReject,     ///< fail fast with kRejected + a retry-after hint
  kShedOldest, ///< evict the oldest queued session (kShed) to admit the new
};

inline const char* to_string(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kShedOldest: return "shed";
  }
  return "?";
}

/// Server tuning knobs. Defaults suit tests; the CLI and bench override.
struct ServeOptions {
  size_t replicas = 1;        ///< predictor instances (>= 1)
  size_t workers = 2;         ///< session worker threads (>= 1)
  size_t queue_capacity = 64; ///< bounded admission queue (>= 1)
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Queue fill fraction (depth/capacity, sampled at dequeue) at or above
  /// which a session is forced to start on the baseline rung of the
  /// degradation ladder — overload pays the cheap forest, not the
  /// transformer. > 1.0 disables load-aware degradation.
  double degrade_at = 0.75;
  /// Per-session wall-clock allowance in ms (queue wait + evaluation +
  /// retry backoff all charge it); 0 = unlimited.
  size_t session_deadline_ms = 0;
  /// Retry-after hint attached to kRejected results.
  size_t retry_after_ms = 50;
  /// Watchdog scan period; 0 disables the watchdog thread.
  size_t watchdog_period_ms = 100;
  /// A replica continuously busy longer than this is declared wedged: its
  /// lease is condemned (the slot leaves dispatch until that lease ends,
  /// then is readmitted or quarantined) and its session's budget is
  /// cancelled (cooperative — the session aborts at its next budget check).
  /// 0 disables wedge detection.
  size_t wedged_after_ms = 0;
  /// Quarantine circuit breaker. A "rebuild" is a readmission: every slot
  /// reads the workload's one shared adapted model, so a condemned slot
  /// only has to rejoin dispatch. A slot readmitted more than this many
  /// times within replica_rebuild_window_ms is quarantined (permanently out
  /// of rotation) instead — a replica that keeps dying is not worth
  /// readmitting forever. 0 disables quarantine (every condemned slot is
  /// readmitted, without limit).
  size_t replica_rebuild_limit = 0;
  /// Sliding window for replica_rebuild_limit.
  size_t replica_rebuild_window_ms = 60000;
};

/// One session submitted to the server.
struct SessionRequest {
  uint64_t id = 0;            ///< caller-assigned, unique per session
  std::string workload = {};  ///< target workload name
  uint64_t seed = 0;          ///< explorer seed for this session
  std::string journal_path = {};  ///< per-session WAL; empty = unjournaled
  bool resume = false;        ///< replay an existing journal
};

/// Terminal status of one session.
enum class SessionStatus {
  kOk,        ///< ran to completion (possibly degraded)
  kRejected,  ///< refused at admission (queue full, policy kReject)
  kShed,      ///< evicted from the queue (policy kShedOldest)
  kDeadline,  ///< session budget exhausted or cancelled before completion
  kStopped,   ///< server shutdown interrupted it (journal flushed if any)
  kFailed,    ///< executor error
};

inline const char* to_string(SessionStatus s) {
  switch (s) {
    case SessionStatus::kOk: return "ok";
    case SessionStatus::kRejected: return "rejected";
    case SessionStatus::kShed: return "shed";
    case SessionStatus::kDeadline: return "deadline";
    case SessionStatus::kStopped: return "stopped";
    case SessionStatus::kFailed: return "failed";
  }
  return "?";
}

/// What the submitter's future resolves to.
struct SessionResult {
  uint64_t id = 0;
  SessionStatus status = SessionStatus::kFailed;
  /// The session was served below full quality: forced to the baseline
  /// rung at dispatch, or its run degraded/cancelled points en route.
  bool degraded = false;
  size_t queued_ms = 0;   ///< admission-queue wait
  size_t service_ms = 0;  ///< executor wall-clock
  size_t total_ms = 0;    ///< queued + service
  size_t retry_after_ms = 0;  ///< advisory backoff (kRejected only)
  std::string detail;         ///< run summary or error text
};

/// Monotonic accounting over a server's lifetime. Every submitted session
/// lands in exactly one terminal bucket:
///   submitted == ok + rejected + shed + deadline + stopped + failed
/// once all futures have resolved.
struct ServerStats {
  size_t submitted = 0;
  size_t ok = 0;
  size_t rejected = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t stopped = 0;
  size_t failed = 0;
  size_t degraded = 0;          ///< kOk sessions served degraded
  size_t queue_high_water = 0;  ///< max queue depth observed
  size_t watchdog_trips = 0;    ///< replicas declared wedged
  // -- replica fault-domain accounting (DESIGN.md §14), read from the pool
  // in one locked snapshot. Every condemnation resolves into exactly one of
  // rebuilt (readmitted) / quarantined / still pending:
  //   replicas_condemned ==
  //       replicas_rebuilt + replicas_quarantined + replicas_pending_rebuild
  // holds in every stats() snapshot. Pending counts condemned leases not yet
  // released, so it is 0 once stop() has returned.
  size_t replicas_condemned = 0;   ///< wedge/fault transitions out of service
  size_t replicas_rebuilt = 0;     ///< condemned slots readmitted
  size_t replicas_quarantined = 0; ///< slots permanently out of rotation
  size_t replicas_pending_rebuild = 0;  ///< condemned, lease still held
  /// Evaluator points diverted down the ladder by blown-deadline batch
  /// cancellation (GuardedEvaluator report.cancelled), summed over kOk
  /// sessions. cancelled_points > 0 implies degraded > 0: a session whose
  /// batch was cancelled mid-flight was not served at full quality.
  size_t cancelled_points = 0;
  /// Reduced-precision serving accounting: sessions that ran their DSE loop
  /// at a quantized tier, and sessions that requested one but fell back to
  /// fp32 because the quantization error contract tripped (DESIGN.md §15).
  /// quant_fallbacks counts against quant_sessions' requests, not ok.
  size_t quant_sessions = 0;
  size_t quant_fallbacks = 0;
};

/// Per-dispatch context handed to the session executor.
struct ExecContext {
  size_t replica = 0;  ///< replica slot the session leased
  /// Session budget (never null): pre-charged with the queue wait, cancelled
  /// by the watchdog/shutdown. Pass it into the evaluators.
  std::shared_ptr<explore::DeadlineBudget> budget;
  /// True once the server wants the session to stop at the next safe point
  /// (wire it to ExplorerOptions::stop_check).
  std::function<bool()> stop_requested;
  /// Rung the session must start on (kBaseline under load shedding).
  explore::DegradeLevel start_level = explore::DegradeLevel::kSurrogate;
};

/// What a completed execution reports back (errors are thrown instead:
/// StopRequested -> kStopped, ExplorationAborted -> kDeadline/kFailed,
/// anything else -> kFailed).
struct ExecResult {
  bool degraded = false;
  std::string detail;
  /// Points the guard diverted down the ladder after a blown deadline
  /// (report.cancelled). The server folds this into ServerStats::
  /// cancelled_points and treats any nonzero value as a degraded serve.
  size_t cancelled_points = 0;
  /// The session served its DSE loop at a reduced-precision tier.
  bool quantized = false;
  /// A reduced-precision tier was requested but the quantization error
  /// contract tripped; the session ran at fp32 (ServerStats::
  /// quant_fallbacks). Not a degraded serve — fp32 is full quality.
  bool quant_fallback = false;
};

/// The session engine: runs one session to completion on the leased replica.
/// Called with the worker thread already inside a SerialRegionGuard, so all
/// nested parallelism runs inline — concurrency lives across sessions.
using SessionExecutor =
    std::function<ExecResult(const SessionRequest&, const ExecContext&)>;

}  // namespace metadse::serve
