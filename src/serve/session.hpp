// MetaDseSessionEngine: binds ServerCore's generic SessionExecutor contract
// to the real pipeline. Each registered workload is adapted once (MAML
// fine-tuning plus the WAM mask on its K-shot support set); every replica,
// worker and the coalescer read that one immutable AdaptedPredictor, and
// every session shares the engine's one DatasetGenerator (its evaluate() is
// const and pure). Each session runs the journaled guarded DSE loop through
// the framework's re-entrant run_dse overload. A finished session publishes
// its Pareto front atomically to "<front_dir>/front_<id>.txt" (hexfloat, so
// a resumed run's bitwise-identical archive produces a byte-identical file).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/metadse.hpp"
#include "serve/coalesce.hpp"
#include "serve/serve.hpp"

namespace metadse::serve {

class MetaDseSessionEngine {
 public:
  struct Options {
    /// Template for every session's DSE run: explorer budgets, guard knobs,
    /// baseline_fallback. Per-session fields (journal_path, resume, budget,
    /// seed, start_level, stop_check) are overwritten at dispatch.
    core::MetaDseFramework::DseOptions dse;
    /// Directory for published fronts; empty disables publication.
    std::string front_dir;
    /// Cross-session batch coalescing: when set, every workload gets a
    /// BatchCoalescer backed by the workload's predictor, and sessions route
    /// their surrogate-IPC predictions through it (DseOptions::predict_rows)
    /// instead of calling the predictor themselves.
    /// Values — and therefore fronts and journals — are unchanged; only the
    /// GEMM granularity is (see DESIGN.md §12). nullopt = per-session
    /// forwards, the PR 6 behaviour.
    std::optional<CoalesceOptions> coalesce;
  };

  /// @p framework must outlive the engine and be pretrained (or loaded).
  /// @p replicas (at least 1) bounds ExecContext::replica; a replica slot
  /// owns no state, so readmitting a condemned slot needs no rebuild.
  MetaDseSessionEngine(const core::MetaDseFramework& framework,
                       size_t replicas, Options options);

  /// Adapts @p support once and registers the workload. Not thread-safe;
  /// call before serving starts.
  void add_workload(const std::string& name, const data::Dataset& support);

  /// The bound executor (captures `this`; the engine must outlive the
  /// ServerCore using it).
  SessionExecutor executor();

  /// Where a session's front is published (front_dir must be non-empty).
  std::string front_path(uint64_t session_id) const;

  /// Serializes an archive in the published-front format (one
  /// "config_id ipc power" hexfloat line per entry, insertion order).
  static std::string format_front(const arch::DesignSpace& space,
                                  const explore::ParetoArchive& archive);

  /// Coalescing accounting summed over every workload's coalescer (all
  /// zeros when coalescing is disabled). Thread-safe.
  CoalesceStats coalesce_stats() const;
  bool coalescing() const { return options_.coalesce.has_value(); }

  /// The int8 activation-calibration table captured when @p name was
  /// adapted. Empty when no calibration was captured. Not thread-safe
  /// against add_workload; throws if @p name is unregistered.
  const std::vector<float>& workload_calibration(const std::string& name)
      const;

 private:
  struct WorkloadEntry {
    const data::Dataset* support;
    /// The adapted predictor every session (and the coalescer) reads. The
    /// coalescer's callback holds its address, so an entry is never moved
    /// once it sits in workloads_.
    core::AdaptedPredictor predictor;
    std::unique_ptr<BatchCoalescer> coalescer;
  };

  ExecResult run_session(const SessionRequest& request,
                         const ExecContext& ctx);

  const core::MetaDseFramework& framework_;
  size_t replicas_;
  Options options_;
  std::map<std::string, WorkloadEntry> workloads_;
  /// Simulator for every session's power leg (evaluate() is const and
  /// pure, so concurrent sessions share it).
  data::DatasetGenerator generator_;
};

}  // namespace metadse::serve
