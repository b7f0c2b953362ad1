// Replica pool: N session slots, each leased to at most one session at a
// time. Dispatch is round-robin with a try-acquire sweep (the
// cuBERT BertM pattern): start at the slot after the last one handed out,
// take the first free idle slot, and only block when every dispatchable
// slot is busy.
//
// Fault domain (DESIGN.md §14): every slot reads the workload's one shared
// adapted model, so a slot owns no state and has nothing to rebuild. A lease
// that misbehaves — wedged past the watchdog threshold, or killed by an
// executor fault — is *condemned* (kCondemned). When that lease ends the
// slot is resolved inline, under the pool mutex: it is readmitted (kIdle),
// or — once it was readmitted replica_rebuild_limit times within
// replica_rebuild_window_ms — quarantined permanently (kQuarantined).
// acquire() fails fast, instead of blocking forever, once every slot is
// quarantined.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace metadse::serve {

class ReplicaPool {
 public:
  /// Lifecycle of one replica slot.
  enum class SlotState {
    kIdle,         ///< dispatchable
    kBusy,         ///< leased to a session
    kCondemned,    ///< condemned while leased; resolved when the lease ends
    kQuarantined,  ///< permanently out of rotation
  };

  /// @p rebuild_limit / @p rebuild_window_ms are the quarantine circuit
  /// breaker (ServeOptions::replica_rebuild_limit/_window_ms): a slot
  /// readmitted that many times within the window is quarantined at its
  /// next condemned release. A limit of 0 never quarantines.
  explicit ReplicaPool(size_t n, size_t rebuild_limit = 0,
                       size_t rebuild_window_ms = 60000);

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Exclusive hold on one replica slot; releasing wakes one waiter (or
  /// resolves a condemned slot).
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), id_(other.id_), seq_(other.seq_) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->release(id_);
    }
    size_t id() const { return id_; }
    /// Per-slot lease sequence number: tells this lease apart from later
    /// leases of the same slot.
    uint64_t seq() const { return seq_; }

   private:
    friend class ReplicaPool;
    Lease(ReplicaPool* pool, size_t id, uint64_t seq)
        : pool_(pool), id_(id), seq_(seq) {}
    ReplicaPool* pool_;
    size_t id_;
    uint64_t seq_;
  };

  /// Leases a free idle slot, blocking while none is available. Polls
  /// @p abort (when set) while waiting and returns nullopt once it reports
  /// true — the shutdown path out of a fully-wedged pool. Also returns
  /// nullopt immediately when every slot is quarantined (the pool can never
  /// serve again; distinguish via all_quarantined()).
  std::optional<Lease> acquire(const std::function<bool()>& abort = {});

  /// Condemns lease @p seq of slot @p id: kBusy -> kCondemned, resolved when
  /// that lease ends. Only the matching, still-held lease can be condemned —
  /// a slot whose lease has ended is no longer wedged, and a later lease of
  /// the same slot is a different session. Returns true when this call made
  /// the transition, so condemnations are counted exactly once.
  bool condemn(size_t id, uint64_t seq);

  SlotState state(size_t id) const;
  bool all_quarantined() const;

  /// Fault-domain accounting, read in one locked snapshot so that
  ///   condemned == readmitted + quarantined + pending
  /// holds in every snapshot (pending = slots in kCondemned).
  struct Counters {
    size_t condemned = 0;
    size_t readmitted = 0;
    size_t quarantined = 0;
    size_t pending = 0;
  };
  Counters counters() const;

  /// How long each currently-busy lease has been held — the watchdog's
  /// wedge probe. Already-condemned leases are excluded (their wedge was
  /// handled; counting them again would double-trip).
  struct BusyInfo {
    size_t replica;
    uint64_t seq;  ///< the lease measured; pass it back to condemn()
    size_t busy_ms;
  };
  std::vector<BusyInfo> busy_slots() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    SlotState state = SlotState::kIdle;
    uint64_t seq = 0;  ///< sequence number of the current/last lease
    Clock::time_point busy_since{};
    /// Readmissions inside the breaker window (only kept with a limit).
    std::vector<Clock::time_point> readmits;
  };

  void release(size_t id);
  /// Quarantine circuit breaker, evaluated as a condemned lease ends: true
  /// when @p s was already readmitted rebuild_limit_ times inside the
  /// window; otherwise records this readmission.
  bool breaker_trips(Slot& s);

  const size_t rebuild_limit_;
  const Clock::duration rebuild_window_;

  mutable std::mutex m_;
  std::condition_variable free_cv_;  ///< acquire(): a slot became idle
  std::vector<Slot> slots_;
  size_t rr_ = 0;  ///< slot after the last one leased (round-robin start)
  size_t condemned_ = 0;
  size_t readmitted_ = 0;
  size_t quarantined_ = 0;
};

}  // namespace metadse::serve
