// Policy layer over the static-execution-plan mechanism (tensor/plan.hpp):
// decides which trace leaves are parameters vs masks vs the batch input,
// keys compiled programs so models share them, caches per-model executors,
// and replays captured training tapes for the MAML inner loop.
//
// Two planning paths exist:
//  - PredictPlanner: eval-mode (no-grad) forwards. One CompiledProgram per
//    (model shape, batch size, mask structure, precision) key, shared
//    process-wide through the PlanRegistry; each model owns ProgramExec
//    instances bound to its parameter storage. Steady-state planned predicts
//    perform zero allocations and build no graph.
//  - TapePlan: one training step (forward + backward). The first step runs
//    eagerly under a Tracer and pins the resulting autodiff graph; later
//    steps replay the recorded schedule into the same nodes (refreshing the
//    pooled backward stashes in place) and then walk the captured closures
//    in the exact order Tensor::backward() would, so weights after every
//    step are bitwise identical to the eager loop.
//
// Any shape/op the compiler cannot handle falls back to the eager path;
// planning is an optimization, never a semantic switch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nn/transformer.hpp"
#include "tensor/plan.hpp"

namespace metadse::nn::plan {

/// Thread-local master switch for planned execution; on by default. While
/// disabled, predict_* and the MAML inner loop run the eager path
/// unconditionally (the A/B axis of the PlanEquivalence suite).
class PlanMode {
 public:
  static bool enabled();
  static void set_enabled(bool on);
};

/// RAII scope for PlanMode (tests, benchmarks). Nests.
class PlanModeGuard {
 public:
  explicit PlanModeGuard(bool on) : prev_(PlanMode::enabled()) {
    PlanMode::set_enabled(on);
  }
  ~PlanModeGuard() { PlanMode::set_enabled(prev_); }
  PlanModeGuard(const PlanModeGuard&) = delete;
  PlanModeGuard& operator=(const PlanModeGuard&) = delete;

 private:
  bool prev_;
};

/// Process-wide plan counters (surfaced through ServerStats / `metadse
/// serve`). cache_hits counts executions served by an already-compiled plan
/// (predict runs and tape replays); fallbacks counts requests that had to
/// run eagerly.
struct PlanStats {
  uint64_t plans_compiled = 0;
  uint64_t cache_hits = 0;
  uint64_t fallbacks = 0;
  uint64_t static_bytes = 0;  ///< sum over registered compiled programs
};

/// Global keyed store of compiled predict programs. Keys are structural
/// (model dims, batch, mask layout, precision) and contain no parameter
/// values, so any number of model replicas with the same architecture share
/// one immutable CompiledProgram per workload shape.
class PlanRegistry {
 public:
  static PlanRegistry& instance();

  std::shared_ptr<const tensor::plan::CompiledProgram> find(
      const std::string& key) const;
  /// Registers @p prog under @p key; first writer wins on a race and the
  /// winning program is returned.
  std::shared_ptr<const tensor::plan::CompiledProgram> insert(
      const std::string& key,
      std::shared_ptr<const tensor::plan::CompiledProgram> prog);

  void note_hit();
  void note_fallback();
  /// Records a TapePlan capture (a compiled plan with no shared registry
  /// entry; contributes to plans_compiled only).
  void note_tape_compiled();

  PlanStats stats() const;
  /// Drops every registered program and zeroes the counters (tests).
  void reset();

 private:
  PlanRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Structural registry key for an eval-mode predict plan of @p model at
/// @p batch rows. Non-fp32 precisions append a ":q*" suffix so
/// per-precision program variants register separately.
std::string predict_plan_key(
    const TransformerRegressor& model, size_t batch,
    tensor::quant::Precision prec = tensor::quant::Precision::kFp32);

/// Compiles a predict plan for @p batch rows of @p in ([batch, n_tokens]
/// row-major), runs it once in absmax-capture mode, and installs the
/// resulting per-gemm activation scale table in @p model
/// (set_quant_calibration). Called at adapt time on the support batch.
/// Returns false (leaving the model uncalibrated, so int8 requests
/// downgrade to fp32) when the forward is unplannable.
bool capture_calibration(TransformerRegressor& model, const float* in,
                         size_t batch);

/// Traces one eval-mode forward of @p model at batch size @p batch and
/// compiles it (parameters and installed masks become external slots, the
/// feature matrix the input). Returns null and sets @p why when the forward
/// is unplannable (e.g. attention capture enabled).
std::shared_ptr<const tensor::plan::CompiledProgram> compile_predict(
    TransformerRegressor& model, size_t batch, std::string* why);

/// Per-model cache of bound predict-plan executors, keyed by (batch, mask
/// structure, precision). The thread-local PrecisionMode
/// selects the variant: bf16/int8 entries run reduced-precision GEMM panels
/// (tensor/quant.hpp); an int8 request on a model without a calibration
/// table downgrades to the fp32 variant, and any unplannable shape still
/// falls back to eager fp32. Negative-caches unplannable keys; revalidates
/// external storage pointers every run and rebinds after parameter
/// reallocation or mask replacement. Each key keeps a list of idle bound
/// executors: a caller takes one (or binds a new one when none is idle),
/// runs it outside the lock and returns it, so concurrent run() calls on
/// one shared model all stay planned and none waits on another's forward.
class PredictPlanner {
 public:
  explicit PredictPlanner(TransformerRegressor& model);
  ~PredictPlanner();
  PredictPlanner(const PredictPlanner&) = delete;
  PredictPlanner& operator=(const PredictPlanner&) = delete;

  /// Runs the planned no-grad forward of @p batch rows from @p in
  /// ([batch, n_tokens] row-major) into @p out ([batch, n_outputs]).
  /// Returns false when the caller must run the eager path instead.
  bool run(size_t batch, const float* in, float* out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Capture/replay of one training step: loss = mse(model(x), y) plus
/// backward. One instance per inner loop; the captured tape is valid only
/// for the exact (model, x, y) triple it was traced from.
class TapePlan {
 public:
  TapePlan();
  ~TapePlan();
  TapePlan(const TapePlan&) = delete;
  TapePlan& operator=(const TapePlan&) = delete;

  /// Performs one forward+backward step and stores the loss in @p loss.
  /// First call: runs eagerly under a tracer (capturing the tape) — always
  /// performs the step. Later calls: replays the tape. Returns false when
  /// the step was NOT performed and the caller must run it eagerly (capture
  /// failed earlier, PlanMode off, or the inputs changed).
  /// With @p skip_backward_nonfinite, a non-finite loss skips the backward
  /// pass (mirrors MamlTrainer::run_task's divergence check).
  bool step(TransformerRegressor& model, const tensor::Tensor& x,
            const tensor::Tensor& y, tensor::Rng& rng, float& loss,
            bool skip_backward_nonfinite = false);

  /// True once a capture validated and replays are active (tests).
  bool replaying() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace metadse::nn::plan
