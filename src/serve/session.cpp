#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/chaos.hpp"
#include "core/io.hpp"
#include "core/parallel.hpp"

namespace metadse::serve {

MetaDseSessionEngine::MetaDseSessionEngine(
    const core::MetaDseFramework& framework, size_t replicas, Options options)
    : framework_(framework),
      replicas_(replicas),
      options_(std::move(options)),
      generator_(framework_.space()) {
  if (replicas == 0) {
    throw std::invalid_argument(
        "MetaDseSessionEngine: need at least one replica");
  }
}

void MetaDseSessionEngine::add_workload(const std::string& name,
                                        const data::Dataset& support) {
  WorkloadEntry& entry = workloads_[name] =
      WorkloadEntry{&support, framework_.adapt_to(support), nullptr};
  if (options_.coalesce) {
    // The coalescer's fused batches run on the same predictor the sessions
    // read. Every row's bits are independent of what else rides in its
    // batch, so coalescing cannot change a session's values.
    entry.coalescer = std::make_unique<BatchCoalescer>(
        *options_.coalesce,
        [model = &entry.predictor](const BatchCoalescer::Rows& rows) {
          // The flushing thread may be the ticker (no serial region yet) or
          // a session worker (already serial): pin the fused forward to the
          // inline schedule either way so its kernels match the
          // uncoalesced per-session path bitwise.
          core::SerialRegionGuard serial;
          return model->predict_batch(rows);
        });
  }
}

SessionExecutor MetaDseSessionEngine::executor() {
  return [this](const SessionRequest& request, const ExecContext& ctx) {
    return run_session(request, ctx);
  };
}

std::string MetaDseSessionEngine::front_path(uint64_t session_id) const {
  if (options_.front_dir.empty()) {
    throw std::logic_error("MetaDseSessionEngine: front_dir not configured");
  }
  return options_.front_dir + "/front_" + std::to_string(session_id) + ".txt";
}

std::string MetaDseSessionEngine::format_front(
    const arch::DesignSpace& space, const explore::ParetoArchive& archive) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& e : archive.entries()) {
    os << space.encode(e.config) << ' ' << e.objective.ipc << ' '
       << e.objective.power << '\n';
  }
  return os.str();
}

ExecResult MetaDseSessionEngine::run_session(const SessionRequest& request,
                                             const ExecContext& ctx) {
  // Everything this session does — predictions, journal writes, plan
  // compiles, front publication — runs under its chaos scope, so a chaos
  // plan can target a deterministic subset of sessions (scope_mod /
  // scope_match) and leave the rest provably untouched.
  const core::chaos::ChaosScope chaos_scope(request.id);
  if (core::chaos::fire("replica.fail")) {
    throw ReplicaFault("injected replica fault (chaos kill of replica " +
                       std::to_string(ctx.replica) + ")");
  }
  const auto it = workloads_.find(request.workload);
  if (it == workloads_.end()) {
    throw std::runtime_error("serve: workload \"" + request.workload +
                             "\" is not registered with the session engine");
  }
  if (ctx.replica >= replicas_) {
    throw std::logic_error("serve: replica id " +
                           std::to_string(ctx.replica) +
                           " out of range (engine has " +
                           std::to_string(replicas_) + ")");
  }

  core::MetaDseFramework::DseOptions dse = options_.dse;
  dse.journal_path = request.journal_path;
  dse.resume = request.resume;
  dse.budget = ctx.budget;
  dse.guard.start_level = ctx.start_level;
  dse.explorer.seed = request.seed;
  dse.explorer.stop_check = ctx.stop_requested;
  // Chaos wedge: the session stalls inside an evaluation attempt exactly
  // like a hung simulator would, spinning until the watchdog (or shutdown)
  // cancels its budget. Wrapping the template's hook keeps any rehearsal
  // hook the caller installed.
  dse.pre_eval_hook = [base = options_.dse.pre_eval_hook,
                       budget = ctx.budget, stop = ctx.stop_requested] {
    if (base) base();
    if (core::chaos::fire("replica.wedge")) {
      while (!(budget && (budget->cancelled() || budget->exhausted())) &&
             !(stop && stop())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw explore::ExplorationAborted(
          "exploration aborted: injected replica wedge (budget cancelled by "
          "the watchdog; journal preserves progress)");
    }
  };
  // The coalescer's fused batches always run at fp32 (their bitwise-
  // equality contract with predict_batch is what makes cross-session
  // batching safe); a reduced-precision session therefore serves its own
  // forwards instead of riding fused batches.
  std::optional<BatchCoalescer::Participation> joined;
  if (it->second.coalescer &&
      dse.precision == tensor::quant::Precision::kFp32) {
    // Route the surrogate-IPC leg through the cross-session coalescer. The
    // wait inside predict() is part of the evaluation attempt's wall-clock,
    // so the guard's ChargeOnExit bills it to the session budget exactly
    // like compute; a cancelled/exhausted budget (watchdog, shutdown,
    // deadline) wakes the wait, drops the rows from the assembling batch
    // and aborts the run — survivors' batches are unperturbed.
    BatchCoalescer* coal = it->second.coalescer.get();
    // Every prediction of this run goes through the coalescer, so it may
    // count this session toward its occupancy trigger: once all joined
    // sessions wait, the batch flushes without waiting for the tick. The
    // handle leaves when run_dse ends, on every exit path.
    joined.emplace(coal->join(request.id));
    std::function<bool()> wake;
    if (ctx.budget) {
      wake = [budget = ctx.budget] {
        return budget->cancelled() || budget->exhausted();
      };
    }
    dse.predict_rows = [coal, id = request.id, wake = std::move(wake)](
                           const std::vector<std::vector<float>>& rows) {
      try {
        return coal->predict(id, rows, wake);
      } catch (const CoalesceCancelled&) {
        throw explore::ExplorationAborted(
            "exploration aborted: session budget cancelled or exhausted "
            "while waiting in the cross-session coalescer (journal "
            "preserves progress; resume with a fresh budget)");
      }
    };
  }

  explore::RunReport report;
  const explore::ParetoArchive archive =
      framework_.run_dse(it->second.predictor, *it->second.support,
                         request.workload, dse, generator_, report);
  joined.reset();  // publication below submits nothing: stop counting

  ExecResult out;
  out.degraded = report.degraded() || report.cancelled > 0;
  out.detail = report.summary();
  out.cancelled_points = report.cancelled;
  if (dse.precision != tensor::quant::Precision::kFp32) {
    out.quant_fallback = report.quant_contract_tripped;
    out.quantized = !report.quant_contract_tripped;
  }

  // Publication is the session's commit point: the front appears atomically
  // and only after the full run (an interrupted session leaves no front, so
  // a resume pass can find and finish it). A publication that fails leaves
  // no torn file behind; the session still ends kOk — its archive is
  // correct, only the published copy is missing — but is reported degraded
  // so the loss is visible.
  if (!options_.front_dir.empty()) {
    try {
      core::io::atomic_write_file(front_path(request.id),
                                  format_front(framework_.space(), archive),
                                  "front.publish");
    } catch (const core::io::IoError& e) {
      out.degraded = true;
      out.detail += "; front publication failed: " + std::string(e.what());
    }
  }
  return out;
}

CoalesceStats MetaDseSessionEngine::coalesce_stats() const {
  CoalesceStats total;
  for (const auto& [name, entry] : workloads_) {
    if (!entry.coalescer) continue;
    const CoalesceStats s = entry.coalescer->stats();
    total.submitted_requests += s.submitted_requests;
    total.submitted_points += s.submitted_points;
    total.coalesced_batches += s.coalesced_batches;
    total.coalesced_points += s.coalesced_points;
    total.cancelled_points += s.cancelled_points;
    total.failed_points += s.failed_points;
    total.failed_batches += s.failed_batches;
    total.max_batch_points = std::max(total.max_batch_points,
                                      s.max_batch_points);
    total.flush_full += s.flush_full;
    total.flush_tick += s.flush_tick;
    total.flush_barrier += s.flush_barrier;
  }
  return total;
}

const std::vector<float>& MetaDseSessionEngine::workload_calibration(
    const std::string& name) const {
  const auto it = workloads_.find(name);
  if (it == workloads_.end()) {
    throw std::runtime_error("workload_calibration: workload \"" + name +
                             "\" is not registered with the session engine");
  }
  return it->second.predictor.model->quant_calibration();
}

}  // namespace metadse::serve
