// Serving-core behaviour: replica pool leasing, admission policies under a
// full queue (block / reject / shed-oldest), deadline budgets expiring in the
// queue and propagating into the executor, load-aware forced degradation,
// the watchdog's wedged-replica breaker, drain/now shutdown semantics, and a
// 1000+-session interleaved soak pinning the accounting invariant
//   submitted == ok + rejected + shed + deadline + stopped + failed.
//
// Executors here are synthetic (the bench's sleeper pattern): they poll the
// same cooperative-cancellation hooks as the real DSE loop, so the tests
// exercise ServerCore's control plane without touching the simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.hpp"
#include "core/io.hpp"
#include "explore/explorer.hpp"
#include "explore/guarded.hpp"
#include "serve/coalesce.hpp"
#include "serve/replica.hpp"
#include "serve/server.hpp"

namespace ex = metadse::explore;
namespace serve = metadse::serve;

namespace {

using Clock = std::chrono::steady_clock;

void sleep_ms(size_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// A latch the test controls: gated sessions spin inside the executor —
/// polling the same stop/budget hooks as the real DSE loop — until opened.
struct Gate {
  std::atomic<bool> open{false};
  std::atomic<size_t> entered{0};

  /// Blocks until @p n sessions are spinning inside the executor.
  void await_entered(size_t n) const {
    while (entered.load() < n) sleep_ms(1);
  }
};

/// Executor that waits on @p gate. Checks stop_requested before the budget,
/// mirroring the explorer (stop_check at the generation boundary runs before
/// the evaluator's budget check).
serve::SessionExecutor gated_executor(Gate& gate) {
  return [&gate](const serve::SessionRequest&,
                 const serve::ExecContext& ctx) -> serve::ExecResult {
    gate.entered.fetch_add(1);
    while (!gate.open.load()) {
      if (ctx.stop_requested && ctx.stop_requested()) {
        throw ex::StopRequested("gated session stopped");
      }
      if (ctx.budget->cancelled() || ctx.budget->exhausted()) {
        throw ex::ExplorationAborted("gated session: budget gone");
      }
      sleep_ms(1);
    }
    return {};
  };
}

/// A request with only the id (and seed) set — what every test needs.
serve::SessionRequest req(uint64_t id) {
  serve::SessionRequest r;
  r.id = id;
  r.seed = id;
  return r;
}

bool ready(const std::future<serve::SessionResult>& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Options tuned for tests: one worker/replica, tiny queue, no watchdog.
serve::ServeOptions small_options() {
  serve::ServeOptions o;
  o.replicas = 1;
  o.workers = 1;
  o.queue_capacity = 1;
  o.degrade_at = 2.0;  // load-aware degradation off unless a test wants it
  o.watchdog_period_ms = 0;
  return o;
}

void expect_invariant(const serve::ServerStats& s) {
  EXPECT_EQ(s.submitted,
            s.ok + s.rejected + s.shed + s.deadline + s.stopped + s.failed);
  // Every condemned replica resolves into exactly one bucket (pending
  // covers condemned leases still held).
  EXPECT_EQ(s.replicas_condemned,
            s.replicas_rebuilt + s.replicas_quarantined +
                s.replicas_pending_rebuild);
}

}  // namespace

// -- ReplicaPool --------------------------------------------------------------

TEST(ServeReplicaPool, LeasesAreExclusiveAndAbortable) {
  serve::ReplicaPool pool(3);
  std::vector<serve::ReplicaPool::Lease> held;
  std::set<size_t> ids;
  for (size_t i = 0; i < 3; ++i) {
    auto lease = pool.acquire();
    ASSERT_TRUE(lease.has_value());
    ids.insert(lease->id());
    held.push_back(std::move(*lease));
  }
  EXPECT_EQ(ids.size(), 3U) << "three leases must cover three distinct slots";
  // Every slot is busy: an acquire with an abort hook must give up, not hang.
  EXPECT_FALSE(pool.acquire([] { return true; }).has_value());
  held.clear();  // releases wake the pool
  EXPECT_TRUE(pool.acquire().has_value());
}

TEST(ServeReplicaPool, CondemnedSlotRejoinsDispatchOnRelease) {
  serve::ReplicaPool pool(2);
  auto wedged = pool.acquire();
  ASSERT_TRUE(wedged.has_value());
  const size_t bad = wedged->id();

  EXPECT_TRUE(pool.condemn(bad, wedged->seq()));
  EXPECT_FALSE(pool.condemn(bad, wedged->seq()))
      << "second condemn is not a transition";
  EXPECT_EQ(pool.state(bad), serve::ReplicaPool::SlotState::kCondemned);
  EXPECT_EQ(pool.counters().pending, 1U);

  // The sweep must land on the other slot, and then find nothing at all.
  auto other = pool.acquire();
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(other->id(), bad);
  EXPECT_FALSE(pool.acquire([] { return true; }).has_value());

  // Releasing the condemned lease readmits the slot inline: no limit is
  // set, so the breaker never quarantines.
  wedged.reset();
  EXPECT_EQ(pool.state(bad), serve::ReplicaPool::SlotState::kIdle);
  const auto c = pool.counters();
  EXPECT_EQ(c.condemned, 1U);
  EXPECT_EQ(c.readmitted, 1U);
  EXPECT_EQ(c.quarantined, 0U);
  EXPECT_EQ(c.pending, 0U);
  auto back = pool.acquire();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id(), bad);
  // A lease that has ended is no longer wedged: nothing to condemn.
  const uint64_t ended = back->seq();
  back.reset();
  EXPECT_FALSE(pool.condemn(bad, ended));
}

TEST(ServeReplicaPool, CondemnWithAStaleSnapshotLeavesTheNewLeaseAlone) {
  // The watchdog's race, made deterministic: it measures a lease, the
  // session ends, and a new session leases the same slot before the
  // watchdog condemns. The snapshot names the old lease, so condemn fails.
  serve::ReplicaPool pool(1);
  auto first = pool.acquire();
  ASSERT_TRUE(first.has_value());
  const auto snapshot = pool.busy_slots();
  ASSERT_EQ(snapshot.size(), 1U);
  EXPECT_EQ(snapshot[0].seq, first->seq());
  first.reset();

  auto second = pool.acquire();
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->id(), snapshot[0].replica);
  EXPECT_NE(second->seq(), snapshot[0].seq);
  EXPECT_FALSE(pool.condemn(snapshot[0].replica, snapshot[0].seq));
  EXPECT_EQ(pool.state(second->id()), serve::ReplicaPool::SlotState::kBusy);
  EXPECT_EQ(pool.counters().condemned, 0U);
}

TEST(ServeReplicaPool, AcquireFailsFastWhenEverySlotIsQuarantined) {
  serve::ReplicaPool pool(1, /*rebuild_limit=*/1,
                          /*rebuild_window_ms=*/60'000);
  const auto condemn_and_release = [&pool] {
    auto lease = pool.acquire();
    ASSERT_TRUE(lease.has_value());
    ASSERT_TRUE(pool.condemn(lease->id(), lease->seq()));
  };
  condemn_and_release();  // first readmission fits the window
  EXPECT_EQ(pool.state(0), serve::ReplicaPool::SlotState::kIdle);
  condemn_and_release();  // the second opens the breaker
  EXPECT_EQ(pool.state(0), serve::ReplicaPool::SlotState::kQuarantined);
  EXPECT_TRUE(pool.all_quarantined());
  const auto c = pool.counters();
  EXPECT_EQ(c.condemned, 2U);
  EXPECT_EQ(c.readmitted, 1U);
  EXPECT_EQ(c.quarantined, 1U);
  EXPECT_EQ(c.pending, 0U);
  // No abort hook: without the fail-fast this would block forever.
  EXPECT_FALSE(pool.acquire().has_value());
  // A quarantined slot cannot be condemned again.
  EXPECT_FALSE(pool.condemn(0, 2));
}

// -- admission ----------------------------------------------------------------

TEST(ServeAdmission, ValidatesOptions) {
  auto noop = [](const serve::SessionRequest&, const serve::ExecContext&) {
    return serve::ExecResult{};
  };
  EXPECT_THROW(serve::ServerCore(small_options(), nullptr),
               std::invalid_argument);
  auto bad_workers = small_options();
  bad_workers.workers = 0;
  EXPECT_THROW(serve::ServerCore(bad_workers, noop), std::invalid_argument);
  auto bad_queue = small_options();
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(serve::ServerCore(bad_queue, noop), std::invalid_argument);
}

TEST(ServeAdmission, RejectSettlesImmediatelyWithRetryAfter) {
  Gate gate;
  auto options = small_options();
  options.admission = serve::AdmissionPolicy::kReject;
  options.retry_after_ms = 77;
  serve::ServerCore server(options, gated_executor(gate));

  auto running = server.submit(req(0));
  gate.await_entered(1);            // session 0 holds the only worker
  auto queued = server.submit(req(1));  // fills the queue (capacity 1)
  auto refused = server.submit(req(2));

  ASSERT_TRUE(ready(refused)) << "kReject must settle without waiting";
  const auto r = refused.get();
  EXPECT_EQ(r.status, serve::SessionStatus::kRejected);
  EXPECT_EQ(r.id, 2U);
  EXPECT_EQ(r.retry_after_ms, 77U);

  gate.open.store(true);
  EXPECT_EQ(running.get().status, serve::SessionStatus::kOk);
  EXPECT_EQ(queued.get().status, serve::SessionStatus::kOk);
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 2U);
  EXPECT_EQ(s.rejected, 1U);
  EXPECT_EQ(s.queue_high_water, 1U);
  expect_invariant(s);
}

TEST(ServeAdmission, ShedOldestEvictsTheQueuedSession) {
  Gate gate;
  auto options = small_options();
  options.admission = serve::AdmissionPolicy::kShedOldest;
  serve::ServerCore server(options, gated_executor(gate));

  auto running = server.submit(req(0));
  gate.await_entered(1);
  auto victim = server.submit(req(1));    // queued
  auto newcomer = server.submit(req(2));  // evicts session 1

  ASSERT_TRUE(ready(victim)) << "the shed victim must settle immediately";
  const auto v = victim.get();
  EXPECT_EQ(v.status, serve::SessionStatus::kShed);
  EXPECT_EQ(v.id, 1U);

  gate.open.store(true);
  EXPECT_EQ(running.get().status, serve::SessionStatus::kOk);
  EXPECT_EQ(newcomer.get().status, serve::SessionStatus::kOk);
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 2U);
  EXPECT_EQ(s.shed, 1U);
  expect_invariant(s);
}

TEST(ServeAdmission, BlockWaitsForSpaceInsteadOfFailing) {
  Gate gate;
  auto options = small_options();
  options.admission = serve::AdmissionPolicy::kBlock;
  serve::ServerCore server(options, gated_executor(gate));

  auto running = server.submit(req(0));
  gate.await_entered(1);
  auto queued = server.submit(req(1));

  std::atomic<bool> admitted{false};
  std::future<serve::SessionResult> blocked;
  std::thread submitter([&] {
    blocked = server.submit(req(2));  // queue full: must wait, not fail
    admitted.store(true);
  });
  sleep_ms(30);
  EXPECT_FALSE(admitted.load()) << "kBlock must hold the submitter";

  gate.open.store(true);  // worker drains; space frees; submitter resumes
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(running.get().status, serve::SessionStatus::kOk);
  EXPECT_EQ(queued.get().status, serve::SessionStatus::kOk);
  EXPECT_EQ(blocked.get().status, serve::SessionStatus::kOk);
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 3U);
  EXPECT_EQ(s.rejected + s.shed, 0U);
  expect_invariant(s);
}

// -- deadline budgets ---------------------------------------------------------

TEST(ServeDeadline, ExpiresInQueueWithoutDispatching) {
  Gate gate;
  auto options = small_options();
  options.queue_capacity = 4;
  options.session_deadline_ms = 40;
  serve::ServerCore server(options, gated_executor(gate));

  auto running = server.submit(req(0));
  gate.await_entered(1);
  auto starved = server.submit(req(1));
  sleep_ms(120);  // well past session 1's whole allowance
  gate.open.store(true);

  EXPECT_EQ(running.get().status, serve::SessionStatus::kOk);
  const auto r = starved.get();
  EXPECT_EQ(r.status, serve::SessionStatus::kDeadline);
  EXPECT_GE(r.queued_ms, 40U);
  EXPECT_EQ(r.service_ms, 0U) << "an expired session must never dispatch";
  const auto s = server.stats();
  EXPECT_EQ(s.deadline, 1U);
  expect_invariant(s);
}

TEST(ServeDeadline, BudgetReachesTheExecutorPreChargedWithQueueWait) {
  std::atomic<size_t> seen_total{0};
  std::atomic<size_t> seen_consumed{SIZE_MAX};
  auto options = small_options();
  options.session_deadline_ms = 5000;
  serve::ServerCore server(
      options, [&](const serve::SessionRequest&,
                   const serve::ExecContext& ctx) -> serve::ExecResult {
        seen_total.store(ctx.budget->total_ms());
        seen_consumed.store(ctx.budget->consumed_ms());
        ctx.budget->charge(100);
        return {};
      });
  EXPECT_EQ(server.submit(req(7)).get().status, serve::SessionStatus::kOk);
  EXPECT_EQ(seen_total.load(), 5000U);
  EXPECT_LT(seen_consumed.load(), 5000U)
      << "queue wait is charged before dispatch, not the whole allowance";
}

TEST(ServeDeadline, ExecutorAbortOnExhaustedBudgetIsDeadline) {
  auto options = small_options();
  options.session_deadline_ms = 10;
  serve::ServerCore server(
      options, [](const serve::SessionRequest&,
                  const serve::ExecContext& ctx) -> serve::ExecResult {
        ctx.budget->charge(10'000);  // the run overruns its allowance
        throw ex::ExplorationAborted("budget exhausted mid-run");
      });
  const auto r = server.submit(req(3)).get();
  EXPECT_EQ(r.status, serve::SessionStatus::kDeadline);
  const auto s = server.stats();
  EXPECT_EQ(s.deadline, 1U);
  EXPECT_EQ(s.failed, 0U);
  expect_invariant(s);
}

TEST(ServeDeadline, ExecutorAbortWithHealthyBudgetIsFailure) {
  serve::ServerCore server(
      small_options(), [](const serve::SessionRequest&,
                          const serve::ExecContext&) -> serve::ExecResult {
        throw ex::ExplorationAborted("breaker opened under kFailFast");
      });
  EXPECT_EQ(server.submit(req(4)).get().status,
            serve::SessionStatus::kFailed);
  EXPECT_EQ(server.stats().failed, 1U);
}

// -- load-aware degradation ---------------------------------------------------

TEST(ServeDegrade, BacklogForcesTheBaselineRung) {
  std::atomic<int> baseline_starts{0};
  auto run = [&](double degrade_at) {
    auto options = small_options();
    options.degrade_at = degrade_at;
    baseline_starts.store(0);
    serve::ServerCore server(
        options, [&](const serve::SessionRequest&,
                     const serve::ExecContext& ctx) -> serve::ExecResult {
          if (ctx.start_level == ex::DegradeLevel::kBaseline) {
            baseline_starts.fetch_add(1);
            return {.degraded = true, .detail = "served on the cheap rung"};
          }
          return {};
        });
    const auto r = server.submit(req(0)).get();
    EXPECT_EQ(r.status, serve::SessionStatus::kOk);
    server.stop(serve::ServerCore::StopMode::kDrain);
    return server.stats();
  };

  // Threshold 0: any load at all (even an empty queue behind the dispatch)
  // counts as overload, so the session is forced down and marked degraded.
  const auto hot = run(/*degrade_at=*/0.0);
  EXPECT_EQ(baseline_starts.load(), 1);
  EXPECT_EQ(hot.degraded, 1U);

  // Threshold above 1.0 disables the mechanism entirely.
  const auto cold = run(/*degrade_at=*/2.0);
  EXPECT_EQ(baseline_starts.load(), 0);
  EXPECT_EQ(cold.degraded, 0U);
}

// -- watchdog -----------------------------------------------------------------

TEST(ServeWatchdog, WedgedReplicaIsCancelledAndRecovers) {
  Gate gate;  // never opened for the wedged session: only the watchdog's
              // budget-cancel lets it out
  auto options = small_options();
  options.watchdog_period_ms = 5;
  options.wedged_after_ms = 20;
  serve::ServerCore server(options, gated_executor(gate));

  const auto wedged = server.submit(req(0)).get();
  EXPECT_EQ(wedged.status, serve::SessionStatus::kDeadline)
      << "a cancelled budget maps to kDeadline, detail: " << wedged.detail;
  // The condemned slot was readmitted as its lease ended, before the
  // session's future resolved.
  const auto tripped = server.stats();
  EXPECT_EQ(tripped.watchdog_trips, 1U);
  EXPECT_EQ(tripped.replicas_condemned, 1U);
  EXPECT_EQ(tripped.replicas_rebuilt, 1U);
  EXPECT_EQ(tripped.replicas_pending_rebuild, 0U);

  gate.open.store(true);
  EXPECT_EQ(server.submit(req(1)).get().status, serve::SessionStatus::kOk);
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 1U);
  EXPECT_EQ(s.deadline, 1U);
  EXPECT_EQ(s.replicas_condemned, 1U);
  EXPECT_EQ(s.replicas_rebuilt, 1U);
  EXPECT_EQ(s.replicas_quarantined, 0U);
  expect_invariant(s);
}

TEST(ServeWatchdog, DrainAfterATripLeavesNothingPending) {
  Gate gate;
  auto options = small_options();
  options.replicas = 2;
  options.workers = 2;
  options.queue_capacity = 4;
  options.watchdog_period_ms = 5;
  options.wedged_after_ms = 20;
  serve::ServerCore server(options, gated_executor(gate));

  // Both sessions wedge and are cancelled by the watchdog; the drain runs
  // while their condemned leases may still be held.
  auto a = server.submit(req(0));
  auto b = server.submit(req(1));
  server.stop(serve::ServerCore::StopMode::kDrain);
  EXPECT_EQ(a.get().status, serve::SessionStatus::kDeadline);
  EXPECT_EQ(b.get().status, serve::SessionStatus::kDeadline);
  const auto s = server.stats();
  EXPECT_EQ(s.watchdog_trips, 2U);
  EXPECT_EQ(s.replicas_condemned, 2U);
  EXPECT_EQ(s.replicas_pending_rebuild, 0U);
  expect_invariant(s);
}

// -- shutdown -----------------------------------------------------------------

TEST(ServeStop, DrainFinishesEveryQueuedSession) {
  Gate gate;
  gate.open.store(true);  // sessions complete instantly
  auto options = small_options();
  options.queue_capacity = 8;
  serve::ServerCore server(options, gated_executor(gate));

  std::vector<std::future<serve::SessionResult>> futures;
  for (uint64_t id = 0; id < 5; ++id) futures.push_back(server.submit(req(id)));
  server.stop(serve::ServerCore::StopMode::kDrain);
  for (auto& fut : futures) {
    EXPECT_EQ(fut.get().status, serve::SessionStatus::kOk);
  }
  EXPECT_EQ(server.stats().ok, 5U);
}

TEST(ServeStop, NowFlushesQueueAndInterruptsTheRunningSession) {
  Gate gate;
  auto options = small_options();
  options.queue_capacity = 8;
  serve::ServerCore server(options, gated_executor(gate));

  auto running = server.submit(req(0));
  gate.await_entered(1);
  auto q1 = server.submit(req(1));
  auto q2 = server.submit(req(2));

  server.stop(serve::ServerCore::StopMode::kNow);

  // The running session saw stop_requested and threw StopRequested; the
  // queued two were flushed without ever dispatching.
  EXPECT_EQ(running.get().status, serve::SessionStatus::kStopped);
  EXPECT_EQ(q1.get().status, serve::SessionStatus::kStopped);
  EXPECT_EQ(q2.get().status, serve::SessionStatus::kStopped);
  const auto s = server.stats();
  EXPECT_EQ(s.stopped, 3U);
  EXPECT_EQ(s.ok, 0U);
  expect_invariant(s);
}

TEST(ServeStop, SubmissionAfterStopIsRejected) {
  Gate gate;
  gate.open.store(true);
  serve::ServerCore server(small_options(), gated_executor(gate));
  server.stop(serve::ServerCore::StopMode::kDrain);

  const auto r = server.submit(req(9)).get();
  EXPECT_EQ(r.status, serve::SessionStatus::kRejected);
  EXPECT_NE(r.detail.find("stopping"), std::string::npos) << r.detail;
  expect_invariant(server.stats());
}

TEST(ServeStop, StopIsIdempotent) {
  Gate gate;
  gate.open.store(true);
  serve::ServerCore server(small_options(), gated_executor(gate));
  server.stop(serve::ServerCore::StopMode::kDrain);
  server.stop(serve::ServerCore::StopMode::kNow);  // second stop: no-op
  server.stop(serve::ServerCore::StopMode::kDrain);
}

// -- interleaved soak ---------------------------------------------------------

TEST(ServeSoak, ThousandPlusInterleavedSessionsKeepTheInvariant) {
  // Open-loop overload: 1200 sessions thrown at 4 workers with a 32-deep
  // shed-oldest queue, tight deadlines, and load-aware degradation. The
  // acceptance bar: every future settles, every session lands in exactly one
  // terminal bucket, and the queue never exceeds its bound.
  serve::ServeOptions options;
  options.replicas = 4;
  options.workers = 4;
  options.queue_capacity = 32;
  options.admission = serve::AdmissionPolicy::kShedOldest;
  options.degrade_at = 0.5;
  options.session_deadline_ms = 200;
  options.watchdog_period_ms = 10;
  serve::ServerCore server(
      options, [](const serve::SessionRequest& req,
                  const serve::ExecContext& ctx) -> serve::ExecResult {
        if (ctx.budget->cancelled() || ctx.budget->exhausted()) {
          throw ex::ExplorationAborted("soak session: budget gone");
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(100 + (req.id % 7) * 50));
        ctx.budget->charge(1);
        return {.degraded = ctx.start_level == ex::DegradeLevel::kBaseline,
                .detail = ""};
      });

  constexpr size_t kSessions = 1200;
  std::vector<std::future<serve::SessionResult>> futures;
  futures.reserve(kSessions);
  for (uint64_t id = 0; id < kSessions; ++id) {
    futures.push_back(server.submit(req(id)));
  }
  server.stop(serve::ServerCore::StopMode::kDrain);

  serve::ServerStats from_futures;
  for (auto& fut : futures) {
    ASSERT_TRUE(ready(fut)) << "every future must settle after drain";
    switch (fut.get().status) {
      case serve::SessionStatus::kOk: ++from_futures.ok; break;
      case serve::SessionStatus::kRejected: ++from_futures.rejected; break;
      case serve::SessionStatus::kShed: ++from_futures.shed; break;
      case serve::SessionStatus::kDeadline: ++from_futures.deadline; break;
      case serve::SessionStatus::kStopped: ++from_futures.stopped; break;
      case serve::SessionStatus::kFailed: ++from_futures.failed; break;
    }
  }

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, kSessions);
  expect_invariant(s);
  // The server's buckets and the futures' statuses are the same accounting.
  EXPECT_EQ(s.ok, from_futures.ok);
  EXPECT_EQ(s.rejected, from_futures.rejected);
  EXPECT_EQ(s.shed, from_futures.shed);
  EXPECT_EQ(s.deadline, from_futures.deadline);
  EXPECT_EQ(s.stopped, from_futures.stopped);
  EXPECT_EQ(s.failed, from_futures.failed);
  EXPECT_LE(s.queue_high_water, options.queue_capacity);
  EXPECT_EQ(s.failed, 0U);
  EXPECT_GT(s.ok, 0U);
}

// -- cancelled-points accounting (regression) ---------------------------------

TEST(ServeStats, CancelledPointsFoldIntoDegradedAccounting) {
  // Regression: GuardedEvaluator counts blown-deadline batch diversions in
  // report.cancelled, and the session engine forwards them through
  // ExecResult::cancelled_points — but the serve layer used to drop them on
  // the floor. They must surface in ServerStats::cancelled_points AND flip
  // the session to degraded (a cancelled batch was served off the cheap
  // rung), keeping the self-check cancelled_points > 0 => degraded > 0.
  auto options = small_options();
  serve::ServerCore server(
      options, [](const serve::SessionRequest&,
                  const serve::ExecContext&) -> serve::ExecResult {
        return {.degraded = false, .detail = "3 points diverted",
                .cancelled_points = 3};
      });
  const auto r = server.submit(req(0)).get();
  EXPECT_EQ(r.status, serve::SessionStatus::kOk);
  EXPECT_TRUE(r.degraded)
      << "a session with cancelled points was not served at full quality";
  const auto s = server.stats();
  EXPECT_EQ(s.cancelled_points, 3U);
  EXPECT_EQ(s.degraded, 1U);
  EXPECT_EQ(s.ok, 1U);
  expect_invariant(s);
}

// -- coalescing soak ----------------------------------------------------------

TEST(ServeSoak, CoalescedInterleavedSessionsMatchUncoalescedBitwise) {
  // The 1200-session interleaved soak with cross-session coalescing: every
  // session computes a synthetic "front" (one float per predict row) through
  // one shared BatchCoalescer. Fused batch composition depends on thread
  // timing; the acceptance bar is that every kOk session's front is
  // bitwise-identical to the uncoalesced (direct per-row) computation, no
  // deadline charge is lost while waiting in the coalescer, and both the
  // server and coalescer accounting invariants hold.
  constexpr size_t kSessions = 1200;
  constexpr size_t kRounds = 4;
  constexpr size_t kRowsPerCall = 3;

  const auto row_of = [](uint64_t id, size_t round, size_t k) {
    return std::vector<float>{static_cast<float>(id),
                              static_cast<float>(round),
                              static_cast<float>(k)};
  };
  const auto value_of = [](const std::vector<float>& row) {
    return row[0] * 0.5F + row[1] * 0.25F + row[2] * 2.0F;
  };

  serve::BatchCoalescer coalescer(
      {.max_batch = 64, .wait_ticks = 2, .tick_ms = 1},
      [&](const serve::BatchCoalescer::Rows& rows) {
        std::vector<float> out;
        out.reserve(rows.size());
        for (const auto& r : rows) out.push_back(value_of(r));
        return out;
      });

  std::mutex fronts_m;
  std::map<uint64_t, std::vector<float>> fronts;
  std::map<uint64_t, std::pair<size_t, size_t>> charges;  // waited, consumed

  serve::ServeOptions options;
  options.replicas = 4;
  options.workers = 4;
  options.queue_capacity = 32;
  options.admission = serve::AdmissionPolicy::kShedOldest;
  options.degrade_at = 2.0;  // full quality: fronts must be comparable
  options.session_deadline_ms = 400;
  options.watchdog_period_ms = 10;
  serve::ServerCore server(
      options, [&](const serve::SessionRequest& req,
                   const serve::ExecContext& ctx) -> serve::ExecResult {
        std::vector<float> front;
        size_t waited_ms = 0;
        for (size_t round = 0; round < kRounds; ++round) {
          serve::BatchCoalescer::Rows rows;
          for (size_t k = 0; k < kRowsPerCall; ++k) {
            rows.push_back(row_of(req.id, round, k));
          }
          const auto t0 = Clock::now();
          std::vector<float> vals;
          try {
            vals = coalescer.predict(req.id, std::move(rows), [&] {
              return ctx.budget->cancelled() || ctx.budget->exhausted();
            });
          } catch (const serve::CoalesceCancelled&) {
            throw ex::ExplorationAborted(
                "soak session cancelled while waiting in the coalescer");
          }
          // Wait-in-coalescer is charged to the session budget, exactly as
          // the guard's ChargeOnExit bills a real attempt's wall-clock.
          const size_t ms = static_cast<size_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - t0)
                  .count());
          ctx.budget->charge(ms);
          waited_ms += ms;
          front.insert(front.end(), vals.begin(), vals.end());
        }
        std::lock_guard<std::mutex> lk(fronts_m);
        fronts[req.id] = std::move(front);
        charges[req.id] = {waited_ms, ctx.budget->consumed_ms()};
        return {};
      });

  std::vector<std::future<serve::SessionResult>> futures;
  futures.reserve(kSessions);
  for (uint64_t id = 0; id < kSessions; ++id) {
    futures.push_back(server.submit(req(id)));
  }
  server.stop(serve::ServerCore::StopMode::kDrain);
  coalescer.flush();  // drain the last assembling batch for the invariant

  size_t ok = 0;
  for (auto& fut : futures) {
    ASSERT_TRUE(ready(fut));
    const auto res = fut.get();
    if (res.status != serve::SessionStatus::kOk) continue;
    ++ok;
    // Bitwise front equivalence vs the direct, uncoalesced computation.
    std::lock_guard<std::mutex> lk(fronts_m);
    const auto& got = fronts.at(res.id);
    ASSERT_EQ(got.size(), kRounds * kRowsPerCall) << "session " << res.id;
    size_t i = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t k = 0; k < kRowsPerCall; ++k, ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                  std::bit_cast<uint32_t>(value_of(row_of(res.id, round, k))))
            << "session " << res.id << " row " << i;
      }
    }
    // No deadline charge lost: everything measured while waiting in the
    // coalescer landed in the budget (plus the queue wait charged earlier).
    const auto [waited, consumed] = charges.at(res.id);
    EXPECT_GE(consumed, waited) << "session " << res.id;
  }
  EXPECT_GT(ok, 0U);

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, kSessions);
  expect_invariant(s);
  EXPECT_EQ(s.failed, 0U);
  EXPECT_LE(s.queue_high_water, options.queue_capacity);

  // Coalesce accounting is self-consistent.
  const auto c = coalescer.stats();
  EXPECT_GT(c.coalesced_batches, 0U);
  EXPECT_EQ(c.submitted_points,
            c.coalesced_points + c.cancelled_points + c.failed_points);
  EXPECT_EQ(c.failed_points, 0U);
}

// -- replica fault domain -----------------------------------------------------
//
// The pool resolves a condemned slot as its lease ends, and the lease ends
// before the session's future resolves, so every check below runs right
// after submit(...).get().

TEST(ServeSupervisor, ReplicaFaultReadmitsTheSlotBeforeTheFutureResolves) {
  auto options = small_options();
  serve::ServerCore server(
      options, [](const serve::SessionRequest& request,
                  const serve::ExecContext& ctx) -> serve::ExecResult {
        if (request.id == 0) {
          throw serve::ReplicaFault("injected replica fault on replica " +
                                    std::to_string(ctx.replica));
        }
        return {};
      });

  EXPECT_EQ(server.submit(req(0)).get().status, serve::SessionStatus::kFailed);
  const auto faulted = server.stats();
  EXPECT_EQ(faulted.replicas_condemned, 1U);
  EXPECT_EQ(faulted.replicas_rebuilt, 1U);
  EXPECT_EQ(faulted.replicas_pending_rebuild, 0U);

  // The readmitted replica serves again.
  EXPECT_EQ(server.submit(req(1)).get().status, serve::SessionStatus::kOk);
  server.stop(serve::ServerCore::StopMode::kDrain);
  const auto s = server.stats();
  EXPECT_EQ(s.replicas_condemned, 1U);
  EXPECT_EQ(s.replicas_rebuilt, 1U);
  EXPECT_EQ(s.replicas_quarantined, 0U);
  expect_invariant(s);
}

TEST(ServeSupervisor, RebuildLimitOpensTheCircuitBreaker) {
  auto options = small_options();
  options.replica_rebuild_limit = 1;       // one readmission per window,
  options.replica_rebuild_window_ms = 60'000;  // then quarantine
  serve::ServerCore server(
      options, [](const serve::SessionRequest& request,
                  const serve::ExecContext&) -> serve::ExecResult {
        if (request.id < 2) throw serve::ReplicaFault("injected fault");
        return {};
      });

  // First fault: readmitted (the window has budget).
  EXPECT_EQ(server.submit(req(0)).get().status, serve::SessionStatus::kFailed);
  auto s = server.stats();
  EXPECT_EQ(s.replicas_rebuilt, 1U);
  EXPECT_EQ(s.replicas_quarantined, 0U);
  expect_invariant(s);

  // Second fault inside the window: the breaker opens instead of
  // readmitting a replica that keeps dying.
  EXPECT_EQ(server.submit(req(1)).get().status, serve::SessionStatus::kFailed);
  s = server.stats();
  EXPECT_EQ(s.replicas_rebuilt, 1U);
  EXPECT_EQ(s.replicas_quarantined, 1U);
  expect_invariant(s);

  // The single replica is quarantined: the pool cannot serve, and says so.
  const auto r = server.submit(req(2)).get();
  EXPECT_EQ(r.status, serve::SessionStatus::kFailed);
  EXPECT_NE(r.detail.find("quarantined"), std::string::npos) << r.detail;
  server.stop(serve::ServerCore::StopMode::kDrain);
  s = server.stats();
  EXPECT_EQ(s.replicas_condemned, 2U);
  EXPECT_EQ(s.replicas_rebuilt, 1U);
  EXPECT_EQ(s.replicas_quarantined, 1U);
  EXPECT_EQ(s.replicas_pending_rebuild, 0U);
  expect_invariant(s);
}

// -- chaos soak ---------------------------------------------------------------

namespace {

namespace chaos = metadse::core::chaos;
namespace mio = metadse::core::io;
namespace fs = std::filesystem;

std::string slurp_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// One pass of the chaos soak: every session computes a deterministic
/// "front" from its id and publishes it atomically into @p dir under its
/// chaos scope — the same probe layout as the real session engine
/// (replica.fail, replica.wedge, front.publish).
struct SoakPass {
  serve::ServerStats stats;
  std::map<uint64_t, serve::SessionStatus> statuses;
};

SoakPass run_soak_pass(const std::string& dir, size_t sessions) {
  fs::remove_all(dir);
  fs::create_directories(dir);

  serve::ServeOptions options;
  options.replicas = 4;
  options.workers = 4;
  options.queue_capacity = 64;
  options.admission = serve::AdmissionPolicy::kBlock;
  options.degrade_at = 2.0;
  options.session_deadline_ms = 20'000;
  options.watchdog_period_ms = 5;
  options.wedged_after_ms = 40;

  serve::ServerCore server(
      options, [&dir](const serve::SessionRequest& request,
                      const serve::ExecContext& ctx) -> serve::ExecResult {
        const chaos::ChaosScope scope(request.id);
        if (chaos::fire("replica.fail")) {
          throw serve::ReplicaFault("chaos kill of replica " +
                                    std::to_string(ctx.replica));
        }
        if (chaos::fire("replica.wedge")) {
          // Stall like a hung simulator until the watchdog cancels us.
          while (!ctx.budget->cancelled() && !ctx.budget->exhausted() &&
                 !(ctx.stop_requested && ctx.stop_requested())) {
            sleep_ms(1);
          }
          throw ex::ExplorationAborted("wedged session cancelled");
        }
        std::ostringstream front;
        front << "front " << request.id << " " << request.id * 31 + 7 << "\n";
        try {
          mio::atomic_write_file(
              dir + "/front_" + std::to_string(request.id) + ".txt",
              front.str(), "front.publish");
        } catch (const mio::IoError& e) {
          return {.degraded = true,
                  .detail = "front publication failed: " + std::string(e.what())};
        }
        return {};
      });
  std::vector<std::future<serve::SessionResult>> futures;
  futures.reserve(sessions);
  for (uint64_t id = 0; id < sessions; ++id) {
    futures.push_back(server.submit(req(id)));
  }
  server.stop(serve::ServerCore::StopMode::kDrain);

  SoakPass pass;
  for (auto& fut : futures) {
    EXPECT_TRUE(ready(fut)) << "every session must reach a terminal state";
    const auto res = fut.get();
    pass.statuses[res.id] = res.status;
  }
  pass.stats = server.stats();
  return pass;
}

}  // namespace

TEST(ServeChaosSoak, ScopedPlanLeavesOutOfScopeSessionsBitwiseUntouched) {
  // The tentpole acceptance soak: 1200 sessions through 4 replicas under an
  // armed chaos plan that kills replicas, wedges a session, and fails front
  // publications — all scoped to sessions with id % 7 in {3, 5, 6}. The
  // bar: every session reaches an accounted terminal state, the replica
  // partition invariant holds, every armed fault point actually fired, and
  // every chaos-untouched session's published front is bitwise identical to
  // the chaos-free control run.
  constexpr size_t kSessions = 1200;
  const std::string dir_control =
      (fs::temp_directory_path() / "mdse_soak_control").string();
  const std::string dir_chaos =
      (fs::temp_directory_path() / "mdse_soak_chaos").string();

  chaos::ChaosEngine::instance().reset();
  const SoakPass control = run_soak_pass(dir_control, kSessions);
  EXPECT_EQ(control.stats.ok, kSessions);
  EXPECT_EQ(control.stats.failed, 0U);
  expect_invariant(control.stats);

  auto& eng = chaos::ChaosEngine::instance();
  {
    chaos::FaultRule kill;
    kill.schedule = chaos::FaultRule::Schedule::kEveryNth;
    kill.n = 4;
    kill.max_fires = 20;
    kill.scope_mod = 7;
    kill.scope_match = 3;
    eng.arm("replica.fail", kill);

    chaos::FaultRule wedge;
    wedge.schedule = chaos::FaultRule::Schedule::kNthHit;
    wedge.n = 3;
    wedge.scope_mod = 7;
    wedge.scope_match = 6;
    eng.arm("replica.wedge", wedge);

    chaos::FaultRule enospc;
    enospc.fault = {mio::kEnospc, 0};
    enospc.schedule = chaos::FaultRule::Schedule::kEveryNth;
    enospc.n = 6;
    enospc.max_fires = 20;
    enospc.scope_mod = 7;
    enospc.scope_match = 5;
    eng.arm("front.publish", enospc);
  }

  const SoakPass chaotic = run_soak_pass(dir_chaos, kSessions);
  EXPECT_TRUE(eng.all_armed_fired()) << eng.summary();
  const auto report = eng.report();
  eng.reset();

  const auto& s = chaotic.stats;
  EXPECT_EQ(s.submitted, kSessions);
  expect_invariant(s);
  // Every chaos kill is a kFailed session (nothing else fails: no
  // quarantine limit is set, so every condemned slot is readmitted).
  EXPECT_EQ(s.failed, report.at("replica.fail").fired);
  EXPECT_EQ(report.at("replica.fail").fired, 20U);
  // The wedged session was detected, cancelled, and billed as kDeadline.
  EXPECT_EQ(report.at("replica.wedge").fired, 1U);
  EXPECT_GE(s.deadline, 1U);
  EXPECT_GE(s.watchdog_trips, 1U);
  // Failed publications degrade their session but never fail it.
  EXPECT_EQ(report.at("front.publish").fired, 20U);
  EXPECT_GE(s.degraded, report.at("front.publish").fired);
  // Every condemned replica was readmitted (none pending, none
  // quarantined).
  EXPECT_EQ(s.replicas_condemned, s.replicas_rebuilt);
  EXPECT_EQ(s.replicas_quarantined, 0U);
  EXPECT_EQ(s.replicas_pending_rebuild, 0U);
  EXPECT_GE(s.replicas_condemned, 1U);

  // Chaos-untouched sessions (id % 7 not in {3, 5, 6}) end kOk with a front
  // bitwise identical to the control run's.
  size_t compared = 0;
  for (uint64_t id = 0; id < kSessions; ++id) {
    const uint64_t lane = id % 7;
    if (lane == 3 || lane == 5 || lane == 6) continue;
    ASSERT_EQ(chaotic.statuses.at(id), serve::SessionStatus::kOk)
        << "chaos leaked into out-of-scope session " << id;
    const std::string a =
        slurp_file(dir_control + "/front_" + std::to_string(id) + ".txt");
    const std::string b =
        slurp_file(dir_chaos + "/front_" + std::to_string(id) + ".txt");
    ASSERT_FALSE(a.empty()) << "control front missing for session " << id;
    ASSERT_EQ(a, b) << "front diverged for untouched session " << id;
    ++compared;
  }
  EXPECT_GE(compared, kSessions / 2);

  fs::remove_all(dir_control);
  fs::remove_all(dir_chaos);
}
