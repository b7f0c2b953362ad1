// In-memory span recorder for bench_e2e's traced runs. Every thread appends
// to its own buffer (no lock on the hot path after the first event), and
// the buffers are read only after the recording threads have been joined
// or have gone quiet. The spans are written at exit as Chrome trace-event
// JSON, which Perfetto and chrome://tracing open directly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench_e2e {

/// Nanoseconds on the steady clock since the process-wide epoch (the first
/// call of either function below).
int64_t now_ns();
/// The steady-clock instant @p ns after the epoch (for sleep_until).
std::chrono::steady_clock::time_point steady_at(int64_t ns);

struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;     ///< == start_ns for an instant
  uint64_t session = 0;   ///< session the span belongs to
  uint64_t id = 0;        ///< unique per process
  uint64_t parent = 0;    ///< id of the enclosing span, 0 = none
  uint32_t thread = 0;    ///< recording thread's buffer index
};

class Tracer {
 public:
  /// A disabled tracer records nothing.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (also usable as a parent before the span is recorded).
  uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a span to the calling thread's buffer when enabled, under
  /// @p id when nonzero (an id taken earlier with next_id()), else a fresh
  /// one.
  void record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t session, uint64_t parent, uint64_t id = 0);

  /// Every recorded span, in buffer order. Call only while no thread is
  /// recording.
  std::vector<Span> collect() const;

  /// Writes @p spans as Chrome trace-event JSON; throws on I/O failure.
  static void write_chrome(const std::string& path,
                           const std::vector<Span>& spans);

 private:
  struct Buffer {
    std::vector<Span> spans;
    uint32_t index = 0;
  };
  Buffer& local();

  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex m_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by m_
};

}  // namespace bench_e2e
