// Cross-session batch coalescing: flush-policy edge cases (max-batch hit
// exactly, wait-tick flush with a straggler, session barrier, empty flush,
// the occupancy trigger over joined sessions),
// cancellation semantics (mid-assembly drop leaves survivors' values
// bitwise-untouched; in-flight cancel discards the result), the stats
// invariant submitted == coalesced + cancelled + failed, a randomized
// schedule fuzz against a single-threaded reference model (scatter-back is a
// permutation-correct bijection request -> result), and the acceptance bar:
// per-session fronts AND journals through the real serving engine with
// coalescing enabled are bitwise-identical to the uncoalesced path at
// threads 1/2/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/metadse.hpp"
#include "core/parallel.hpp"
#include "explore/guarded.hpp"
#include "nn/plan.hpp"
#include "serve/coalesce.hpp"
#include "serve/session.hpp"

namespace core = metadse::core;
namespace data = metadse::data;
namespace ex = metadse::explore;
namespace serve = metadse::serve;

namespace {

using Rows = serve::BatchCoalescer::Rows;

/// Deterministic per-row function both the executor and the checker compute:
/// any scatter or ordering bug shows up as a bitwise mismatch.
float row_value(const std::vector<float>& row) {
  float acc = 0.0F;
  for (size_t i = 0; i < row.size(); ++i) {
    acc = acc * 4096.0F + row[i];
  }
  return acc;
}

/// Executor that records every fused batch it sees and answers row_value.
struct RecordingExec {
  std::vector<Rows> batches;

  serve::BatchCoalescer::Executor fn() {
    return [this](const Rows& rows) {
      batches.push_back(rows);
      std::vector<float> out;
      out.reserve(rows.size());
      for (const auto& r : rows) out.push_back(row_value(r));
      return out;
    };
  }
};

/// Manual-clock options: no ticker thread, tests drive tick()/flush().
serve::CoalesceOptions manual(size_t max_batch, size_t wait_ticks = 2) {
  return {.max_batch = max_batch, .wait_ticks = wait_ticks, .tick_ms = 0};
}

Rows make_rows(uint64_t tag, size_t n) {
  Rows rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<float>(tag), static_cast<float>(i)});
  }
  return rows;
}

std::vector<float> values_of(const Rows& rows) {
  std::vector<float> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(row_value(r));
  return out;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << "row " << i;
  }
}

/// Drained-coalescer accounting: every submitted point landed in exactly one
/// of the three terminal buckets, and every successful batch has a cause.
void expect_coalesce_invariant(const serve::CoalesceStats& s) {
  EXPECT_EQ(s.submitted_points,
            s.coalesced_points + s.cancelled_points + s.failed_points);
  EXPECT_EQ(s.coalesced_batches, s.flush_full + s.flush_tick + s.flush_barrier);
}

}  // namespace

// -- construction -------------------------------------------------------------

TEST(CoalesceFlush, ValidatesOptionsAndExecutor) {
  RecordingExec exec;
  EXPECT_THROW(serve::BatchCoalescer(manual(0), exec.fn()),
               std::invalid_argument);
  EXPECT_THROW(serve::BatchCoalescer(manual(4, 0), exec.fn()),
               std::invalid_argument);
  EXPECT_THROW(serve::BatchCoalescer(manual(4), nullptr),
               std::invalid_argument);
}

// -- flush policy -------------------------------------------------------------

TEST(CoalesceFlush, MaxBatchHitExactlyFlushesInline) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/4), exec.fn());
  auto a = coal.submit(1, make_rows(10, 2));
  EXPECT_TRUE(exec.batches.empty()) << "2 of 4 points: no flush yet";
  auto b = coal.submit(2, make_rows(20, 2));  // exactly max_batch: leader flush
  ASSERT_EQ(exec.batches.size(), 1U);
  EXPECT_EQ(exec.batches[0].size(), 4U);
  expect_bitwise(coal.wait(a), values_of(make_rows(10, 2)));
  expect_bitwise(coal.wait(b), values_of(make_rows(20, 2)));
  const auto s = coal.stats();
  EXPECT_EQ(s.flush_full, 1U);
  EXPECT_EQ(s.flush_tick + s.flush_barrier, 0U);
  EXPECT_EQ(s.coalesced_points, 4U);
  EXPECT_EQ(s.max_batch_points, 4U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceFlush, WaitTicksReleaseTheStraggler) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/100, /*wait_ticks=*/2),
                             exec.fn());
  auto lone = coal.submit(7, make_rows(70, 3));
  coal.tick();
  EXPECT_TRUE(exec.batches.empty()) << "one tick of age is under wait_ticks";
  coal.tick();
  ASSERT_EQ(exec.batches.size(), 1U) << "two ticks of age must flush";
  expect_bitwise(coal.wait(lone), values_of(make_rows(70, 3)));

  // The age window restarts for the next batch: a fresh straggler is not
  // flushed by the first tick after it lands.
  auto late = coal.submit(7, make_rows(71, 1));
  coal.tick();
  EXPECT_EQ(exec.batches.size(), 1U);
  coal.tick();
  ASSERT_EQ(exec.batches.size(), 2U);
  EXPECT_EQ(exec.batches[1].size(), 1U);
  expect_bitwise(coal.wait(late), values_of(make_rows(71, 1)));
  const auto s = coal.stats();
  EXPECT_EQ(s.flush_tick, 2U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceFlush, BarrierFlushesWhateverIsAssembled) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(100), exec.fn());
  auto t = coal.submit(3, make_rows(30, 2));
  coal.flush();
  ASSERT_EQ(exec.batches.size(), 1U);
  expect_bitwise(coal.wait(t), values_of(make_rows(30, 2)));
  EXPECT_EQ(coal.stats().flush_barrier, 1U);
}

TEST(CoalesceFlush, EmptyFlushAndTicksAreNoOps) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(4), exec.fn());
  coal.flush();
  for (int i = 0; i < 5; ++i) coal.tick();
  EXPECT_TRUE(exec.batches.empty());
  const auto s = coal.stats();
  EXPECT_EQ(s.coalesced_batches, 0U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceFlush, EmptyRowsResolveImmediately) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(4), exec.fn());
  auto t = coal.submit(5, {});
  EXPECT_TRUE(coal.wait(t).empty());
  EXPECT_TRUE(exec.batches.empty());
}

TEST(CoalesceFlush, AssemblyIsOrderedBySessionThenSeq) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(100), exec.fn());
  // Submit out of session order, with two requests from session 7.
  auto s7a = coal.submit(7, make_rows(700, 1));
  auto s3 = coal.submit(3, make_rows(300, 1));
  auto s7b = coal.submit(7, make_rows(701, 1));
  auto s1 = coal.submit(1, make_rows(100, 1));
  coal.flush();
  ASSERT_EQ(exec.batches.size(), 1U);
  // Fused order: session 1, session 3, session 7 seq 0, session 7 seq 1.
  Rows want;
  for (uint64_t tag : {100, 300, 700, 701}) {
    want.push_back({static_cast<float>(tag), 0.0F});
  }
  ASSERT_EQ(exec.batches[0].size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(exec.batches[0][i], want[i]) << "fused slot " << i;
  }
  // Scatter-back still routes by request, not by submit order.
  expect_bitwise(coal.wait(s7a), values_of(make_rows(700, 1)));
  expect_bitwise(coal.wait(s3), values_of(make_rows(300, 1)));
  expect_bitwise(coal.wait(s7b), values_of(make_rows(701, 1)));
  expect_bitwise(coal.wait(s1), values_of(make_rows(100, 1)));
}

// -- occupancy ----------------------------------------------------------------

TEST(CoalesceFlush, OccupancyFlushesOnceEveryJoinedSessionWaits) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/100), exec.fn());
  const auto j1 = coal.join(1);
  const auto j2 = coal.join(2);
  auto a = coal.submit(1, make_rows(10, 2));
  EXPECT_TRUE(exec.batches.empty()) << "session 2 may still bring rows";
  auto b = coal.submit(2, make_rows(20, 1));
  ASSERT_EQ(exec.batches.size(), 1U)
      << "every joined session waits: the batch cannot grow, flush inline";
  EXPECT_EQ(exec.batches[0].size(), 3U);
  expect_bitwise(coal.wait(a), values_of(make_rows(10, 2)));
  expect_bitwise(coal.wait(b), values_of(make_rows(20, 1)));
  const auto s = coal.stats();
  EXPECT_EQ(s.flush_full, 1U);
  EXPECT_EQ(s.flush_tick + s.flush_barrier, 0U);
  expect_coalesce_invariant(s);
  EXPECT_THROW((void)coal.join(1), std::logic_error);
}

TEST(CoalesceFlush, JoinedSessionThatNeverSubmitsIsBoundedByWaitTicks) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/100, /*wait_ticks=*/2),
                             exec.fn());
  const auto waiting = coal.join(1);
  const auto busy = coal.join(2);  // e.g. fitting its forest; never submits
  auto a = coal.submit(1, make_rows(10, 2));
  coal.tick();
  EXPECT_TRUE(exec.batches.empty());
  coal.tick();
  ASSERT_EQ(exec.batches.size(), 1U) << "wait_ticks still bounds the wait";
  expect_bitwise(coal.wait(a), values_of(make_rows(10, 2)));
  const auto s = coal.stats();
  EXPECT_EQ(s.flush_tick, 1U);
  EXPECT_EQ(s.flush_full, 0U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceFlush, LeaveOfTheOnlyNonWaitingSessionFlushesTheWaiters) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/100), exec.fn());
  const auto j1 = coal.join(1);
  const auto j2 = coal.join(2);
  serve::BatchCoalescer::Ticket a;
  serve::BatchCoalescer::Ticket b;
  {
    const auto departing = coal.join(3);
    a = coal.submit(1, make_rows(10, 1));
    b = coal.submit(2, make_rows(20, 2));
    EXPECT_TRUE(exec.batches.empty()) << "session 3 has not submitted";
  }  // session 3 ends without submitting: the leaving thread flushes
  ASSERT_EQ(exec.batches.size(), 1U);
  EXPECT_EQ(exec.batches[0].size(), 3U);
  expect_bitwise(coal.wait(a), values_of(make_rows(10, 1)));
  expect_bitwise(coal.wait(b), values_of(make_rows(20, 2)));
  const auto s = coal.stats();
  EXPECT_EQ(s.flush_full, 1U);
  EXPECT_EQ(s.flush_tick + s.flush_barrier, 0U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceFlush, UnjoinedSubmitterDoesNotCountTowardOccupancy) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/100), exec.fn());
  const auto j1 = coal.join(1);
  const auto j2 = coal.join(2);
  auto outsider = coal.submit(3, make_rows(30, 1));
  auto a = coal.submit(1, make_rows(10, 1));
  EXPECT_TRUE(exec.batches.empty())
      << "session 3 never joined; it cannot stand in for session 2";
  auto b = coal.submit(2, make_rows(20, 1));
  ASSERT_EQ(exec.batches.size(), 1U);
  // The outsider rides along in (session, seq) order.
  Rows want;
  for (uint64_t tag : {10, 20, 30}) {
    want.push_back({static_cast<float>(tag), 0.0F});
  }
  EXPECT_EQ(exec.batches[0], want);
  expect_bitwise(coal.wait(outsider), values_of(make_rows(30, 1)));
  expect_bitwise(coal.wait(a), values_of(make_rows(10, 1)));
  expect_bitwise(coal.wait(b), values_of(make_rows(20, 1)));
  EXPECT_EQ(coal.stats().flush_full, 1U);
}

// -- cancellation -------------------------------------------------------------

TEST(CoalesceCancel, MidAssemblyDropLeavesSurvivorsBitwiseUntouched) {
  // Reference: session 2 rides alone.
  RecordingExec solo_exec;
  serve::BatchCoalescer solo(manual(100), solo_exec.fn());
  auto solo_ticket = solo.submit(2, make_rows(20, 3));
  solo.flush();
  const auto solo_values = solo.wait(solo_ticket);

  // Same rows assembled next to a session that cancels before the flush.
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(100), exec.fn());
  auto doomed = coal.submit(1, make_rows(10, 2));
  auto survivor = coal.submit(2, make_rows(20, 3));
  coal.cancel_session(1);
  coal.flush();
  ASSERT_EQ(exec.batches.size(), 1U);
  EXPECT_EQ(exec.batches[0].size(), 3U)
      << "the cancelled session's rows must not reach the executor";
  expect_bitwise(coal.wait(survivor), solo_values);
  EXPECT_THROW(coal.wait(doomed), serve::CoalesceCancelled);

  const auto s = coal.stats();
  EXPECT_EQ(s.cancelled_points, 2U);
  EXPECT_EQ(s.coalesced_points, 3U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceCancel, WaiterPredicateDropsItsOwnRequest) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(100), exec.fn());
  auto t = coal.submit(9, make_rows(90, 2));
  EXPECT_THROW(coal.wait(t, [] { return true; }), serve::CoalesceCancelled);
  coal.flush();
  EXPECT_TRUE(exec.batches.empty());
  const auto s = coal.stats();
  EXPECT_EQ(s.cancelled_points, 2U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceCancel, InFlightCancelDiscardsTheResultAfterTheBatchLands) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  serve::BatchCoalescer coal(
      manual(100), [&](const Rows& rows) {
        entered.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        std::vector<float> out;
        for (const auto& r : rows) out.push_back(row_value(r));
        return out;
      });
  auto doomed = coal.submit(4, make_rows(40, 2));
  std::thread flusher([&] { coal.flush(); });  // blocks inside the executor
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  coal.cancel_session(4);  // too late to pull the rows: mark for discard
  release.store(true);
  flusher.join();
  EXPECT_THROW(coal.wait(doomed), serve::CoalesceCancelled);
  const auto s = coal.stats();
  // The fused batch completed (its points count as coalesced); only the
  // waiter-visible result was discarded.
  EXPECT_EQ(s.coalesced_points, 2U);
  EXPECT_EQ(s.cancelled_points, 0U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceCancel, ExecutorFailureFailsTheBatchAndTheNextOneRecovers) {
  std::atomic<bool> fail{true};
  serve::BatchCoalescer coal(manual(100), [&](const Rows& rows) {
    if (fail.load()) throw std::runtime_error("fused forward exploded");
    std::vector<float> out;
    for (const auto& r : rows) out.push_back(row_value(r));
    return out;
  });
  auto a = coal.submit(1, make_rows(10, 2));
  auto b = coal.submit(2, make_rows(20, 1));
  coal.flush();
  EXPECT_THROW(coal.wait(a), std::runtime_error);
  EXPECT_THROW(coal.wait(b), std::runtime_error);

  fail.store(false);
  auto c = coal.submit(3, make_rows(30, 2));
  coal.flush();
  expect_bitwise(coal.wait(c), values_of(make_rows(30, 2)));

  const auto s = coal.stats();
  EXPECT_EQ(s.failed_points, 3U);
  EXPECT_EQ(s.failed_batches, 1U);
  EXPECT_EQ(s.coalesced_points, 2U);
  expect_coalesce_invariant(s);
}

TEST(CoalesceCancel, ShutdownCancelsEveryAssemblingRequest) {
  RecordingExec exec;
  serve::BatchCoalescer::Ticket orphan;
  {
    serve::BatchCoalescer coal(manual(100), exec.fn());
    orphan = coal.submit(1, make_rows(10, 2));
  }
  EXPECT_TRUE(exec.batches.empty());
  EXPECT_TRUE(orphan.valid());
}

// -- accounting ---------------------------------------------------------------

TEST(CoalesceAccounting, StatsPartitionEveryPointOnceDrained) {
  RecordingExec exec;
  serve::BatchCoalescer coal(manual(/*max_batch=*/6, /*wait_ticks=*/2),
                             exec.fn());
  // A mix of every path: a full flush, a tick flush, a barrier flush, a
  // cancelled request, and an empty-rows request.
  auto a = coal.submit(1, make_rows(1, 3));
  auto b = coal.submit(2, make_rows(2, 3));  // 6 points: full flush
  auto c = coal.submit(3, make_rows(3, 2));
  coal.tick();
  coal.tick();  // tick flush (2 points)
  auto d = coal.submit(4, make_rows(4, 2));
  auto doomed = coal.submit(5, make_rows(5, 3));  // 5 points: under max_batch
  coal.cancel_session(5);
  coal.flush();  // barrier flush (2 points, session 5's 3 removed)
  auto empty = coal.submit(6, {});

  expect_bitwise(coal.wait(a), values_of(make_rows(1, 3)));
  expect_bitwise(coal.wait(b), values_of(make_rows(2, 3)));
  expect_bitwise(coal.wait(c), values_of(make_rows(3, 2)));
  expect_bitwise(coal.wait(d), values_of(make_rows(4, 2)));
  EXPECT_THROW(coal.wait(doomed), serve::CoalesceCancelled);
  EXPECT_TRUE(coal.wait(empty).empty());

  const auto s = coal.stats();
  EXPECT_EQ(s.submitted_requests, 6U);
  EXPECT_EQ(s.submitted_points, 13U);
  EXPECT_EQ(s.coalesced_points, 10U);
  EXPECT_EQ(s.cancelled_points, 3U);
  EXPECT_EQ(s.failed_points, 0U);
  EXPECT_EQ(s.coalesced_batches, 3U);
  EXPECT_EQ(s.flush_full, 1U);
  EXPECT_EQ(s.flush_tick, 1U);
  EXPECT_EQ(s.flush_barrier, 1U);
  EXPECT_EQ(s.max_batch_points, 6U);
  EXPECT_DOUBLE_EQ(s.mean_batch_points(), 10.0 / 3.0);
  expect_coalesce_invariant(s);
}

// -- randomized schedules vs a reference model --------------------------------

namespace {

/// Single-threaded mirror of the flush policy: same triggers (occupancy
/// over the joined sessions included), same (session_id, seq) batch
/// ordering and seq-counter lifetime, tracked symbolically.
struct ModelRequest {
  uint64_t session = 0;
  uint64_t seq = 0;
  size_t n_rows = 0;
  enum class State { kPending, kExecuted, kCancelled } state = State::kPending;
};

struct ReferenceModel {
  size_t max_batch = 0;
  size_t wait_ticks = 0;
  uint64_t tick = 0;
  uint64_t open_tick = 0;
  std::vector<ModelRequest> requests;
  std::vector<size_t> assembling;  ///< indices into requests
  size_t assembled_points = 0;
  std::vector<std::vector<size_t>> batches;  ///< executed, in flush order
  std::map<uint64_t, uint64_t> next_seq;
  std::set<uint64_t> joined;
  size_t full_flushes = 0;

  bool waiting(uint64_t session) const {
    return std::any_of(assembling.begin(), assembling.end(),
                       [&](size_t idx) {
                         return requests[idx].session == session;
                       });
  }

  void flush_if_full() {
    if (assembling.empty()) return;
    const bool all_waiting =
        !joined.empty() &&
        std::all_of(joined.begin(), joined.end(),
                    [&](uint64_t s) { return waiting(s); });
    if (all_waiting || assembled_points >= max_batch) {
      flush();
      ++full_flushes;
    }
  }

  void join(uint64_t session) {
    joined.insert(session);
    flush_if_full();
  }

  void leave(uint64_t session) {
    joined.erase(session);
    if (!waiting(session)) next_seq.erase(session);
    flush_if_full();
  }

  size_t submit(uint64_t session, size_t n_rows) {
    ModelRequest r;
    r.session = session;
    r.seq = next_seq[session]++;
    r.n_rows = n_rows;
    requests.push_back(r);
    const size_t idx = requests.size() - 1;
    if (n_rows == 0) {
      requests[idx].state = ModelRequest::State::kExecuted;
      return idx;
    }
    if (assembling.empty()) open_tick = tick;
    assembling.push_back(idx);
    assembled_points += n_rows;
    flush_if_full();
    return idx;
  }

  void tick_once() {
    ++tick;
    if (!assembling.empty() && tick - open_tick >= wait_ticks) flush();
  }

  void flush() {
    if (assembling.empty()) return;
    std::sort(assembling.begin(), assembling.end(),
              [&](size_t a, size_t b) {
                return requests[a].session != requests[b].session
                           ? requests[a].session < requests[b].session
                           : requests[a].seq < requests[b].seq;
              });
    for (size_t idx : assembling) {
      requests[idx].state = ModelRequest::State::kExecuted;
    }
    batches.push_back(assembling);
    assembling.clear();
    assembled_points = 0;
  }

  void cancel_session(uint64_t session) {
    std::vector<size_t> keep;
    for (size_t idx : assembling) {
      if (requests[idx].session == session) {
        requests[idx].state = ModelRequest::State::kCancelled;
        assembled_points -= requests[idx].n_rows;
      } else {
        keep.push_back(idx);
      }
    }
    assembling = std::move(keep);
  }
};

}  // namespace

TEST(CoalesceFuzz, RandomSchedulesMatchTheReferenceModelExactly) {
  // Every row is tagged with its (request, row) identity, so a correct run
  // proves scatter-back is a bijection: each submitted row reaches the
  // executor exactly once (unless its request was cancelled first) and its
  // value comes back to exactly the ticket that submitted it.
  for (uint64_t schedule = 0; schedule < 60; ++schedule) {
    std::mt19937_64 rng(0xC0A1E5CE + schedule);
    const size_t max_batch = 2 + static_cast<size_t>(rng() % 7);
    const size_t wait_ticks = 1 + static_cast<size_t>(rng() % 3);

    RecordingExec exec;
    serve::BatchCoalescer coal(manual(max_batch, wait_ticks), exec.fn());
    ReferenceModel model;
    model.max_batch = max_batch;
    model.wait_ticks = wait_ticks;
    std::vector<serve::BatchCoalescer::Ticket> tickets;
    std::vector<Rows> submitted_rows;
    // Declared after coal: every membership leaves before coal is destroyed.
    std::array<std::optional<serve::BatchCoalescer::Participation>, 4>
        members;

    const size_t ops = 20 + static_cast<size_t>(rng() % 30);
    for (size_t op = 0; op < ops; ++op) {
      const uint64_t kind = rng() % 12;
      if (kind < 6) {  // submit
        const uint64_t session = rng() % 4;
        const size_t n_rows = rng() % 4;  // 0 exercises the immediate path
        const Rows rows =
            make_rows(schedule * 1000 + tickets.size(), n_rows);
        tickets.push_back(coal.submit(session, rows));
        submitted_rows.push_back(rows);
        model.submit(session, n_rows);
      } else if (kind < 8) {
        coal.tick();
        model.tick_once();
      } else if (kind == 8) {
        coal.flush();
        model.flush();
      } else if (kind == 9) {
        const uint64_t session = rng() % 4;
        coal.cancel_session(session);
        model.cancel_session(session);
      } else {  // toggle membership: join, or leave through the handle
        const uint64_t session = rng() % 4;
        if (members[session]) {
          members[session].reset();
          model.leave(session);
        } else {
          members[session].emplace(coal.join(session));
          model.join(session);
        }
      }
    }
    coal.flush();
    model.flush();

    // Same batches, same fused row order.
    ASSERT_EQ(exec.batches.size(), model.batches.size())
        << "schedule " << schedule;
    for (size_t b = 0; b < model.batches.size(); ++b) {
      Rows want;
      for (size_t idx : model.batches[b]) {
        for (const auto& row : submitted_rows[idx]) want.push_back(row);
      }
      ASSERT_EQ(exec.batches[b], want)
          << "schedule " << schedule << " batch " << b;
    }

    EXPECT_EQ(coal.stats().flush_full, model.full_flushes)
        << "schedule " << schedule;

    // Same terminal state and bit-exact scatter-back per request.
    for (size_t i = 0; i < tickets.size(); ++i) {
      if (model.requests[i].state == ModelRequest::State::kCancelled) {
        EXPECT_THROW(coal.wait(tickets[i]), serve::CoalesceCancelled)
            << "schedule " << schedule << " request " << i;
      } else {
        expect_bitwise(coal.wait(tickets[i]), values_of(submitted_rows[i]));
      }
    }
    expect_coalesce_invariant(coal.stats());
  }
}

// -- concurrent equivalence (TSan target) -------------------------------------

TEST(CoalesceEquivalence, ConcurrentSubmittersGetBitwiseIdenticalValues) {
  // 8 threads hammer one coalescer through the live ticker; every thread
  // checks its own results bit-for-bit against the per-row function. Fused
  // batch composition is timing-dependent; values must not be.
  serve::CoalesceOptions options{.max_batch = 32, .wait_ticks = 2,
                                 .tick_ms = 1};
  std::atomic<size_t> fused_calls{0};
  serve::BatchCoalescer coal(options, [&](const Rows& rows) {
    fused_calls.fetch_add(1);
    std::vector<float> out;
    out.reserve(rows.size());
    for (const auto& r : rows) out.push_back(row_value(r));
    return out;
  });

  constexpr size_t kThreads = 8;
  constexpr size_t kCalls = 120;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kCalls; ++i) {
        const Rows rows = make_rows(t * 100000 + i, 1 + (t + i) % 4);
        const auto got = coal.predict(t, rows);
        const auto want = values_of(rows);
        if (got.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t k = 0; k < got.size(); ++k) {
          if (std::bit_cast<uint32_t>(got[k]) !=
              std::bit_cast<uint32_t>(want[k])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0U);

  const auto s = coal.stats();
  EXPECT_EQ(s.submitted_requests, kThreads * kCalls);
  EXPECT_GT(s.coalesced_batches, 0U);
  EXPECT_EQ(s.coalesced_batches, fused_calls.load());
  EXPECT_LT(s.coalesced_batches, s.submitted_requests)
      << "concurrent submitters must actually fuse";
  expect_coalesce_invariant(s);
}

// -- the acceptance bar: real pipeline, coalesced == uncoalesced --------------

namespace {

core::FrameworkOptions tiny_options() {
  core::FrameworkOptions o;
  o.samples_per_workload = 200;
  o.maml.epochs = 2;
  o.maml.tasks_per_workload = 6;
  o.maml.val_tasks_per_workload = 2;
  o.maml.seed = 3;
  o.seed = 17;
  return o;
}

core::MetaDseFramework& shared_framework() {
  static core::MetaDseFramework* fw = [] {
    auto* f = new core::MetaDseFramework(tiny_options());
    f->pretrain();
    return f;
  }();
  return *fw;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

constexpr size_t kSessions = 4;
constexpr const char* kWorkload = "605.mcf_s";

/// Runs kSessions DSE sessions through the engine's executor on
/// @p session_threads concurrent threads (each under a SerialRegionGuard,
/// exactly like ServerCore workers) and returns the concatenated bytes of
/// every published front and journal.
std::string run_engine_sessions(core::MetaDseFramework& fw,
                                const data::Dataset& support,
                                bool coalesce, size_t session_threads,
                                const std::string& dir) {
  std::filesystem::create_directories(dir);
  serve::MetaDseSessionEngine::Options opts;
  opts.dse.explorer = {.initial_samples = 8, .iterations = 16,
                       .mutations_per_step = 2, .seed = 13, .eval_batch = 4};
  opts.dse.guard.ipc_min = -128.0;  // a tiny surrogate may dip below zero
  opts.front_dir = dir;
  if (coalesce) {
    opts.coalesce = serve::CoalesceOptions{.max_batch = 16, .wait_ticks = 2,
                                           .tick_ms = 1};
  }
  serve::MetaDseSessionEngine engine(fw, kSessions, opts);
  engine.add_workload(kWorkload, support);
  auto executor = engine.executor();

  // Every session (and the coalescer) predicts on the workload's one
  // adapted model; concurrent use must never push a forward off the plan.
  auto& plans = metadse::nn::plan::PlanRegistry::instance();
  const uint64_t fallbacks_before = plans.stats().fallbacks;
  std::atomic<size_t> next{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < session_threads; ++t) {
    threads.emplace_back([&] {
      metadse::core::SerialRegionGuard serial;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= kSessions) return;
        serve::SessionRequest request;
        request.id = i;
        request.workload = kWorkload;
        request.seed = 100 + i;
        request.journal_path = dir + "/s" + std::to_string(i) + ".journal";
        serve::ExecContext ctx;
        ctx.replica = i;
        ctx.budget = std::make_shared<ex::DeadlineBudget>(0);  // unlimited
        try {
          executor(request, ctx);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0U);
  EXPECT_EQ(plans.stats().fallbacks, fallbacks_before)
      << "a session on the shared model fell back to eager (coalesce="
      << coalesce << ", threads=" << session_threads << ")";

  if (coalesce) {
    const auto s = engine.coalesce_stats();
    EXPECT_GT(s.coalesced_batches, 0U);
    expect_coalesce_invariant(s);
    if (session_threads == 1) {
      // A lone joined session completes the occupancy with every submit,
      // which flushes under the same lock: the ticker never sees a batch.
      EXPECT_EQ(s.flush_tick, 0U);
      EXPECT_EQ(s.flush_full, s.coalesced_batches);
    }
  }

  std::string bytes;
  for (size_t i = 0; i < kSessions; ++i) {
    bytes += slurp(dir + "/front_" + std::to_string(i) + ".txt");
    bytes += slurp(dir + "/s" + std::to_string(i) + ".journal");
  }
  return bytes;
}

}  // namespace

TEST(CoalesceEquivalence, ServedFrontsAndJournalsMatchUncoalescedAtThreads128) {
  auto& fw = shared_framework();
  const auto& ds = fw.dataset(kWorkload);
  data::Dataset support;
  support.workload = kWorkload;
  for (size_t i = 0; i < 8; ++i) support.samples.push_back(ds.samples[i]);

  const std::string base = ::testing::TempDir() + "coalesce_eq";
  std::filesystem::remove_all(base);

  // Anchor: single-threaded, uncoalesced — the PR 6 serving path.
  const std::string reference = run_engine_sessions(
      fw, support, /*coalesce=*/false, /*session_threads=*/1, base + "/ref");
  ASSERT_FALSE(reference.empty());

  const size_t saved_threads = metadse::core::threads();
  for (size_t t : {1U, 2U, 8U}) {
    metadse::core::set_threads(t);
    const std::string unc = run_engine_sessions(
        fw, support, false, t, base + "/unc_t" + std::to_string(t));
    const std::string coal = run_engine_sessions(
        fw, support, true, t, base + "/coal_t" + std::to_string(t));
    EXPECT_EQ(unc, reference)
        << "uncoalesced fronts/journals must be thread-count invariant (t="
        << t << ")";
    EXPECT_EQ(coal, reference)
        << "coalesced fronts/journals must match the uncoalesced path "
           "bitwise (t=" << t << ")";
  }
  metadse::core::set_threads(saved_threads);
  std::filesystem::remove_all(base);
}

TEST(CoalesceEquivalence, CancelledSessionAbortsWithoutPerturbingSurvivors) {
  // One session's budget is cancelled while it waits in the coalescer: it
  // must abort as ExplorationAborted (the serve layer maps that to
  // kDeadline) and the surviving sessions' fronts must still match the
  // uncoalesced reference bitwise.
  auto& fw = shared_framework();
  const auto& ds = fw.dataset(kWorkload);
  data::Dataset support;
  support.workload = kWorkload;
  for (size_t i = 0; i < 8; ++i) support.samples.push_back(ds.samples[i]);

  const std::string base = ::testing::TempDir() + "coalesce_cancel";
  std::filesystem::remove_all(base);
  const std::string ref = run_engine_sessions(fw, support, false, 1,
                                              base + "/ref");

  serve::MetaDseSessionEngine::Options opts;
  opts.dse.explorer = {.initial_samples = 8, .iterations = 16,
                       .mutations_per_step = 2, .seed = 13, .eval_batch = 4};
  opts.dse.guard.ipc_min = -128.0;
  opts.front_dir = base + "/live";
  opts.coalesce = serve::CoalesceOptions{.max_batch = 16, .wait_ticks = 2,
                                         .tick_ms = 1};
  std::filesystem::create_directories(opts.front_dir);
  serve::MetaDseSessionEngine engine(fw, kSessions, opts);
  engine.add_workload(kWorkload, support);
  auto executor = engine.executor();

  auto doomed_budget = std::make_shared<ex::DeadlineBudget>(0);
  doomed_budget->cancel();  // dead on arrival: every coalescer wait aborts
  std::atomic<size_t> aborted{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      metadse::core::SerialRegionGuard serial;
      serve::SessionRequest request;
      request.id = i;
      request.workload = kWorkload;
      request.seed = 100 + i;
      request.journal_path =
          opts.front_dir + "/s" + std::to_string(i) + ".journal";
      serve::ExecContext ctx;
      ctx.replica = i;
      ctx.budget = i == 0 ? doomed_budget
                          : std::make_shared<ex::DeadlineBudget>(0);
      try {
        executor(request, ctx);
      } catch (const ex::ExplorationAborted&) {
        aborted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(aborted.load(), 1U)
      << "exactly the cancelled session must abort";
  EXPECT_FALSE(
      std::filesystem::exists(opts.front_dir + "/front_0.txt"))
      << "an aborted session publishes no front";

  // Survivors (sessions 1..3) against the same slice of the reference.
  std::string live, want;
  for (size_t i = 1; i < kSessions; ++i) {
    live += slurp(opts.front_dir + "/front_" + std::to_string(i) + ".txt");
    live += slurp(opts.front_dir + "/s" + std::to_string(i) + ".journal");
    want += slurp(base + "/ref/front_" + std::to_string(i) + ".txt");
    want += slurp(base + "/ref/s" + std::to_string(i) + ".journal");
  }
  EXPECT_EQ(live, want);
  std::filesystem::remove_all(base);
}
