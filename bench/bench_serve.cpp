// Synthetic traffic harness for the serving core: thousands of interleaved
// sessions with open-loop arrival (the driver never waits for completions,
// so overload actually builds a backlog instead of self-throttling). The
// session executor is a deterministic sleeper — service cost is a pure hash
// of the session id — so the harness measures queueing, admission,
// degradation, and shutdown behaviour, not simulator throughput, and runs
// in seconds on a single-core CI box.
//
//   bench_serve [--sessions N] [--out BENCH_serve.json]
//
// Arrivals are paced from absolute due times (session i is due at
// start + i * arrival_us), so a slow submit or a late wake-up never lowers
// the offered rate. Each scenario records the achieved offered rate and the
// generator lag (how late each submit was against its due time), and the
// JSON carries the host it ran on.
//
// Three sleeper scenarios share one traffic shape:
//   nominal      arrival ~0.6x service capacity; nothing sheds or degrades
//   overload_2x  arrival ~2x capacity with shed-oldest admission, load-aware
//                degradation, and per-session deadlines; the queue stays
//                bounded and the server sheds/degrades instead of growing
//   overload_4x  arrival past what degradation can absorb; the shed-oldest
//                and deadline-at-dequeue paths carry the excess
//
// Exit is nonzero when any scenario violates the accounting invariant
// (submitted == every terminal bucket summed) or overflows its queue bound.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/parallel.hpp"
#include "explore/guarded.hpp"
#include "serve/server.hpp"

using namespace metadse;

namespace {

/// Deterministic per-session service cost: 2..9 ms, hash of the id.
size_t service_cost_ms(uint64_t id) {
  uint64_t h = id * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 33;
  return 2 + static_cast<size_t>(h % 8);
}

/// The synthetic session: sleeps its service cost in 500us slices, honouring
/// the same cooperative-cancellation contract as the real DSE loop (budget
/// cancel/exhaustion -> ExplorationAborted, server stop -> StopRequested).
/// A session forced onto the baseline rung costs a quarter of the surrogate
/// price — the degradation ladder's whole point.
serve::ExecResult synthetic_session(const serve::SessionRequest& request,
                                    const serve::ExecContext& ctx) {
  size_t cost_ms = service_cost_ms(request.id);
  serve::ExecResult out;
  if (ctx.start_level == explore::DegradeLevel::kBaseline) {
    cost_ms = std::max<size_t>(1, cost_ms / 4);
    out.degraded = true;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(cost_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ctx.budget->cancelled() || ctx.budget->exhausted()) {
      throw explore::ExplorationAborted(
          "synthetic session aborted: budget gone");
    }
    if (ctx.stop_requested && ctx.stop_requested()) {
      throw explore::StopRequested("synthetic session stopped");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ctx.budget->charge(cost_ms);
  return out;
}

struct ScenarioResult {
  std::string name;
  serve::ServerStats stats;
  double wall_s = 0.0;
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;          ///< (shed + rejected) / submitted
  double degraded_fraction = 0.0;  ///< degraded / ok
  double target_per_s = 0.0;       ///< stated rate, 1e6 / arrival_us
  double offered_per_s = 0.0;      ///< achieved submit rate
  double generator_lag_p95_ms = 0.0;
  size_t queue_capacity = 0;
  bool invariant_ok = false;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

/// Open-loop drive: a submitter thread issues @p sessions requests, request
/// i due at start + i * @p arrival_us regardless of completions, then the
/// server drains and every future is harvested.
ScenarioResult run_scenario(const std::string& name,
                            const serve::ServeOptions& options,
                            size_t sessions, size_t arrival_us,
                            serve::SessionExecutor executor) {
  serve::ServerCore server(options, std::move(executor));
  std::vector<std::future<serve::SessionResult>> futures;
  futures.reserve(sessions);
  std::vector<double> lag_ms;
  lag_ms.reserve(sessions);

  const auto start = std::chrono::steady_clock::now();
  auto last_submit = start;
  std::thread driver([&] {
    for (uint64_t id = 0; id < sessions; ++id) {
      const auto due = start + std::chrono::microseconds(id * arrival_us);
      std::this_thread::sleep_until(due);
      serve::SessionRequest req;
      req.id = id;
      req.workload = "synthetic";
      req.seed = id;
      last_submit = std::chrono::steady_clock::now();
      lag_ms.push_back(
          std::chrono::duration<double, std::milli>(last_submit - due)
              .count());
      futures.push_back(server.submit(std::move(req)));
    }
  });
  driver.join();
  server.stop(serve::ServerCore::StopMode::kDrain);
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();

  ScenarioResult r;
  r.name = name;
  r.wall_s = wall_s;
  r.queue_capacity = options.queue_capacity;
  r.target_per_s = arrival_us > 0 ? 1e6 / static_cast<double>(arrival_us) : 0.0;
  // sessions - 1 inter-arrival gaps span the first to the last submit.
  const double submit_span_s =
      std::chrono::duration<double>(last_submit - start).count();
  r.offered_per_s = sessions > 1 && submit_span_s > 0
                        ? static_cast<double>(sessions - 1) / submit_span_s
                        : 0.0;
  r.generator_lag_p95_ms = percentile(lag_ms, 0.95);
  std::vector<double> latencies;  // total_ms of kOk sessions
  for (auto& fut : futures) {
    const serve::SessionResult res = fut.get();
    if (res.status == serve::SessionStatus::kOk) {
      latencies.push_back(static_cast<double>(res.total_ms));
    }
  }
  r.stats = server.stats();
  const auto& s = r.stats;
  r.invariant_ok = s.submitted == s.ok + s.rejected + s.shed + s.deadline +
                                      s.stopped + s.failed &&
                   s.queue_high_water <= options.queue_capacity;
  r.throughput_per_s =
      wall_s > 0 ? static_cast<double>(s.ok) / wall_s : 0.0;
  r.p50_ms = percentile(latencies, 0.50);
  r.p99_ms = percentile(latencies, 0.99);
  r.shed_rate = s.submitted > 0 ? static_cast<double>(s.shed + s.rejected) /
                                      static_cast<double>(s.submitted)
                                : 0.0;
  r.degraded_fraction =
      s.ok > 0 ? static_cast<double>(s.degraded) / static_cast<double>(s.ok)
               : 0.0;
  return r;
}

/// Host context first, so a reader sees where the numbers came from before
/// reading them. Build type, compiler and -march come from the build.
void write_json(std::FILE* f, const std::vector<ScenarioResult>& results) {
  std::fprintf(f,
               "{\n"
               "  \"host\": {\n"
               "    \"nproc\": %ld,\n"
               "    \"threads\": %zu,\n"
               "    \"build_type\": \"%s\",\n"
               "    \"compiler\": \"%s\",\n"
               "    \"march_native\": %s\n"
               "  },\n"
               "  \"executor\": \"synthetic\",\n"
               "  \"scenarios\": {\n",
               sysconf(_SC_NPROCESSORS_ONLN), metadse::threads(),
               BENCH_BUILD_TYPE, BENCH_COMPILER,
               BENCH_MARCH_NATIVE != 0 ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& s = r.stats;
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"submitted\": %zu,\n"
                 "      \"ok\": %zu,\n"
                 "      \"rejected\": %zu,\n"
                 "      \"shed\": %zu,\n"
                 "      \"deadline\": %zu,\n"
                 "      \"stopped\": %zu,\n"
                 "      \"failed\": %zu,\n"
                 "      \"degraded\": %zu,\n"
                 "      \"queue_high_water\": %zu,\n"
                 "      \"queue_capacity\": %zu,\n"
                 "      \"watchdog_trips\": %zu,\n"
                 "      \"target_per_s\": %.1f,\n"
                 "      \"offered_per_s\": %.1f,\n"
                 "      \"generator_lag_p95_ms\": %.3f,\n"
                 "      \"wall_s\": %.3f,\n"
                 "      \"throughput_per_s\": %.1f,\n"
                 "      \"p50_ms\": %.1f,\n"
                 "      \"p99_ms\": %.1f,\n"
                 "      \"shed_rate\": %.4f,\n"
                 "      \"degraded_fraction\": %.4f,\n"
                 "      \"invariant_ok\": %s\n"
                 "    }%s\n",
                 r.name.c_str(), s.submitted, s.ok, s.rejected, s.shed,
                 s.deadline, s.stopped, s.failed, s.degraded,
                 s.queue_high_water, r.queue_capacity, s.watchdog_trips,
                 r.target_per_s, r.offered_per_s, r.generator_lag_p95_ms,
                 r.wall_s, r.throughput_per_s, r.p50_ms, r.p99_ms,
                 r.shed_rate, r.degraded_fraction,
                 r.invariant_ok ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  size_t sessions = 1200;
  std::string out = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--sessions N] [--out FILE.json]\n");
      return 2;
    }
  }

  // Mean service cost is 5.5 ms; 8 workers give ~1450 sessions/s capacity.
  std::vector<ScenarioResult> results;

  // Nominal: ~0.6x capacity, reject-on-full (nothing should reject).
  serve::ServeOptions nominal;
  nominal.replicas = 8;
  nominal.workers = 8;
  nominal.queue_capacity = 64;
  nominal.admission = serve::AdmissionPolicy::kReject;
  nominal.degrade_at = 1.0;  // disabled
  nominal.watchdog_period_ms = 50;
  results.push_back(
      run_scenario("nominal", nominal, sessions, 1100, synthetic_session));

  // Overload: ~2x capacity. The bounded queue sheds its oldest sessions,
  // dispatch above 50% fill is forced onto the cheap rung, and sessions
  // stuck past their deadline budget are dropped at dequeue — backlog is
  // shed and degraded away instead of accumulating.
  serve::ServeOptions overload;
  overload.replicas = 8;
  overload.workers = 8;
  overload.queue_capacity = 64;
  overload.admission = serve::AdmissionPolicy::kShedOldest;
  overload.degrade_at = 0.5;
  overload.session_deadline_ms = 400;
  overload.watchdog_period_ms = 50;
  results.push_back(run_scenario("overload_2x", overload, sessions, 340,
                                 synthetic_session));

  // Spike: far past what degradation alone can absorb, so the
  // shed-oldest and deadline-at-dequeue paths carry the excess.
  serve::ServeOptions spike = overload;
  spike.session_deadline_ms = 150;
  results.push_back(run_scenario("overload_4x", spike, sessions, 90,
                                 synthetic_session));

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out.c_str());
    return 1;
  }
  write_json(f, results);
  std::fclose(f);

  bool ok = true;
  for (const auto& r : results) {
    std::printf(
        "%-12s %zu sessions in %.2fs (offered %.0f/s of %.0f/s, lag p95 "
        "%.2fms): %.0f ok/s, p50 %.0fms p99 %.0fms, "
        "shed %.1f%%, degraded %.1f%%, queue high water %zu/%zu%s\n",
        r.name.c_str(), r.stats.submitted, r.wall_s, r.offered_per_s,
        r.target_per_s, r.generator_lag_p95_ms, r.throughput_per_s,
        r.p50_ms, r.p99_ms, 100.0 * r.shed_rate, 100.0 * r.degraded_fraction,
        r.stats.queue_high_water, r.queue_capacity,
        r.invariant_ok ? "" : "  INVARIANT VIOLATED");
    ok = ok && r.invariant_ok;
  }
  std::printf("wrote %s\n", out.c_str());
  return ok ? 0 : 1;
}
