// Replica pool: N session slots, each leased to at most one session at a
// time. Dispatch is round-robin with a try-acquire sweep (the
// cuBERT BertM pattern): start at the slot after the last one handed out,
// take the first free idle slot, and only block when every dispatchable
// slot is busy.
//
// Fault domain (DESIGN.md §14): a slot that misbehaves — wedged past the
// watchdog threshold, or killed by an executor fault — is *condemned*. A
// condemned slot leaves the dispatch rotation and, once its current lease
// (if any) is released, parks in kAwaitingRebuild for the supervisor, which
// takes it (kRebuilding), rebuilds the replica, and either readmits it
// (kIdle) or quarantines it permanently (kQuarantined). acquire() fails
// fast — instead of blocking forever — once every slot is quarantined.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace metadse::serve {

class ReplicaPool {
 public:
  /// Lifecycle of one replica slot.
  enum class SlotState {
    kIdle,            ///< dispatchable
    kBusy,            ///< leased to a session
    kCondemnedBusy,   ///< condemned mid-session; parks when the lease ends
    kAwaitingRebuild, ///< condemned and free; waiting for the supervisor
    kRebuilding,      ///< the supervisor is rebuilding the replica
    kQuarantined,     ///< permanently out of rotation
  };

  explicit ReplicaPool(size_t n);

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Exclusive hold on one replica slot; releasing wakes one waiter (or
  /// hands a condemned slot to the supervisor).
  class Lease {
   public:
    Lease(Lease&& other) noexcept : pool_(other.pool_), id_(other.id_) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->release(id_);
    }
    size_t id() const { return id_; }

   private:
    friend class ReplicaPool;
    Lease(ReplicaPool* pool, size_t id) : pool_(pool), id_(id) {}
    ReplicaPool* pool_;
    size_t id_;
  };

  /// Leases a free idle slot, blocking while none is available. Polls
  /// @p abort (when set) while waiting and returns nullopt once it reports
  /// true — the shutdown path out of a fully-wedged pool. Also returns
  /// nullopt immediately when every slot is quarantined (the pool can never
  /// serve again; distinguish via all_quarantined()).
  std::optional<Lease> acquire(const std::function<bool()>& abort = {});

  /// Removes @p id from dispatch: kBusy -> kCondemnedBusy (it parks for the
  /// supervisor when its lease ends), kIdle -> kAwaitingRebuild (parked
  /// right away). Returns true when this call made the transition, so the
  /// caller can count condemnations exactly once; slots already condemned,
  /// rebuilding, or quarantined return false.
  bool condemn(size_t id);

  /// Supervisor intake: blocks until a slot reaches kAwaitingRebuild, moves
  /// it to kRebuilding and returns its id. Polls @p abort (when set) and
  /// returns nullopt once it reports true (shutdown).
  std::optional<size_t> take_for_rebuild(const std::function<bool()>& abort);

  /// kRebuilding -> kIdle: the rebuilt replica rejoins the rotation.
  void readmit(size_t id);

  /// kRebuilding -> kQuarantined: permanently out of rotation.
  void quarantine(size_t id);

  SlotState state(size_t id) const;
  /// Dispatchable-or-serving (kIdle or kBusy) — the pre-fault notion of a
  /// healthy slot.
  bool healthy(size_t id) const;
  bool all_quarantined() const;
  size_t quarantined_count() const;
  /// Slots condemned but not yet readmitted or quarantined (kCondemnedBusy,
  /// kAwaitingRebuild, or kRebuilding) — the in-flight part of the
  /// condemned == rebuilt + quarantined + pending accounting.
  size_t pending_rebuilds() const;
  size_t size() const { return slots_.size(); }

  /// How long each currently-busy slot has held its lease — the watchdog's
  /// wedge probe. Already-condemned busy slots are excluded (their wedge
  /// was handled; counting them again would double-trip).
  struct BusyInfo {
    size_t replica;
    size_t busy_ms;
  };
  std::vector<BusyInfo> busy_slots() const;

 private:
  struct Slot {
    SlotState state = SlotState::kIdle;
    std::chrono::steady_clock::time_point busy_since{};
  };

  void release(size_t id);

  mutable std::mutex m_;
  std::condition_variable free_cv_;     ///< acquire(): a slot became idle
  std::condition_variable rebuild_cv_;  ///< supervisor: a slot parked
  std::vector<Slot> slots_;
  size_t rr_ = 0;  ///< slot after the last one leased (round-robin start)
};

}  // namespace metadse::serve
