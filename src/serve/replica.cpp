#include "serve/replica.hpp"

#include <stdexcept>

namespace metadse::serve {

ReplicaPool::ReplicaPool(size_t n, size_t rebuild_limit,
                         size_t rebuild_window_ms)
    : rebuild_limit_(rebuild_limit),
      rebuild_window_(std::chrono::milliseconds(rebuild_window_ms)),
      slots_(n) {
  if (n == 0) {
    throw std::invalid_argument("ReplicaPool: need at least one replica");
  }
}

std::optional<ReplicaPool::Lease> ReplicaPool::acquire(
    const std::function<bool()>& abort) {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    // Round-robin sweep: first idle slot at or after the cursor.
    for (size_t k = 0; k < slots_.size(); ++k) {
      const size_t i = (rr_ + k) % slots_.size();
      Slot& s = slots_[i];
      if (s.state == SlotState::kIdle) {
        s.state = SlotState::kBusy;
        s.busy_since = Clock::now();
        rr_ = (i + 1) % slots_.size();
        return Lease(this, i, ++s.seq);
      }
    }
    // No point waiting on a pool that can never serve again.
    if (quarantined_ == slots_.size()) return std::nullopt;
    if (abort && abort()) return std::nullopt;
    // Timed wait so the abort probe is polled even if no release ever
    // arrives (e.g. the whole pool is wedged during shutdown).
    free_cv_.wait_for(lk, std::chrono::milliseconds(10));
  }
}

bool ReplicaPool::breaker_trips(Slot& s) {
  if (rebuild_limit_ == 0) return false;
  const auto now = Clock::now();
  std::erase_if(s.readmits, [&](auto t) { return now - t > rebuild_window_; });
  if (s.readmits.size() >= rebuild_limit_) return true;
  s.readmits.push_back(now);
  return false;
}

void ReplicaPool::release(size_t id) {
  bool quarantined = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    Slot& s = slots_[id];
    const bool condemned = s.state == SlotState::kCondemned;
    s.state = SlotState::kIdle;
    if (condemned) {
      // A slot that keeps dying faster than the window allows is not worth
      // readmitting forever.
      quarantined = breaker_trips(s);
      if (quarantined) {
        s.state = SlotState::kQuarantined;
        ++quarantined_;
      } else {
        ++readmitted_;
      }
    }
  }
  if (quarantined) {
    // Waiters must re-check: if this was the last live slot, acquire() now
    // fails fast instead of blocking forever.
    free_cv_.notify_all();
  } else {
    free_cv_.notify_one();
  }
}

bool ReplicaPool::condemn(size_t id, uint64_t seq) {
  std::lock_guard<std::mutex> lk(m_);
  if (id >= slots_.size()) return false;
  Slot& s = slots_[id];
  if (s.state != SlotState::kBusy || s.seq != seq) return false;
  s.state = SlotState::kCondemned;
  ++condemned_;
  return true;
}

ReplicaPool::SlotState ReplicaPool::state(size_t id) const {
  std::lock_guard<std::mutex> lk(m_);
  return slots_.at(id).state;
}

bool ReplicaPool::all_quarantined() const {
  std::lock_guard<std::mutex> lk(m_);
  return quarantined_ == slots_.size();
}

ReplicaPool::Counters ReplicaPool::counters() const {
  std::lock_guard<std::mutex> lk(m_);
  Counters c;
  c.condemned = condemned_;
  c.readmitted = readmitted_;
  c.quarantined = quarantined_;
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kCondemned) ++c.pending;
  }
  return c;
}

std::vector<ReplicaPool::BusyInfo> ReplicaPool::busy_slots() const {
  std::lock_guard<std::mutex> lk(m_);
  const auto now = Clock::now();
  std::vector<BusyInfo> out;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.state != SlotState::kBusy) continue;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - s.busy_since)
                        .count();
    out.push_back({i, s.seq, static_cast<size_t>(ms)});
  }
  return out;
}

}  // namespace metadse::serve
