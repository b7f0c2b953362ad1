// MetaDseFramework: the public end-to-end API of the library. It owns the
// design space, the workload suite, dataset generation, MAML pre-training,
// WAM generation, per-task adaptation, and evaluation — the full pipeline of
// paper Fig. 3. All benches and examples sit on top of this facade.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "data/dataset.hpp"
#include "explore/guarded.hpp"
#include "meta/maml.hpp"
#include "meta/wam.hpp"
#include "tensor/quant.hpp"

namespace metadse::core {

/// Everything configurable about a MetaDSE run.
struct FrameworkOptions {
  nn::TransformerConfig predictor{.n_tokens = 24,
                                  .d_model = 32,
                                  .n_heads = 4,
                                  .n_layers = 2,
                                  .d_ff = 64,
                                  .n_outputs = 1,
                                  .dropout = 0.0F};
  meta::MamlOptions maml{};
  meta::WamOptions wam{};
  meta::AdaptOptions adapt{};
  /// Labelled design points simulated per workload.
  size_t samples_per_workload = 1200;
  uint64_t seed = 2025;
  /// When non-empty, pretrain() writes the best-so-far model here after
  /// every autosave_period epochs and, when the file already holds an
  /// unfinished run with matching architecture, resumes from it instead of
  /// restarting from scratch.
  std::string autosave_path;
  size_t autosave_period = 1;
};

/// Prediction-quality metrics of one adapted task, in raw label units.
struct TaskEval {
  double rmse = 0.0;
  double mape = 0.0;
  double ev = 0.0;
};

/// Result of one quantization error-contract check (DESIGN.md §15): the
/// measured Spearman rank correlation between fp32 and reduced-precision
/// predictions over a deterministic LHS evaluation batch. DSE consumes the
/// *ordering* of predicted IPC, so rank correlation — not bitwise equality
/// — is the fidelity bar; a trip means the quantized tier must not serve.
struct QuantContract {
  double rho = 1.0;       ///< measured Spearman rank correlation
  double min_rho = 0.99;  ///< contract threshold
  size_t n_points = 0;    ///< evaluation batch size
  bool passed = true;
};

/// A predictor adapted to a target workload, ready for DSE queries.
struct AdaptedPredictor {
  std::unique_ptr<nn::TransformerRegressor> model;
  data::Scaler scaler;

  /// Predicts the target metric (raw units) for a normalized feature vector.
  float predict(const std::vector<float>& features) const;

  /// Batched prediction (raw units): one no-grad [B, n_tokens] forward.
  /// Element i is bitwise identical to predict(rows[i]).
  std::vector<float> predict_batch(
      const std::vector<std::vector<float>>& rows) const;
};

/// Evaluates the quantization error contract for @p predictor at
/// @p precision: predicts a deterministic Latin-hypercube batch of
/// @p n_points designs from @p space under fp32 and under @p precision and
/// compares rankings. fp32 trivially passes. The batch is seeded by
/// @p seed only, so every session of one workload measures the same rho.
QuantContract check_quant_contract(const AdaptedPredictor& predictor,
                                   const arch::DesignSpace& space,
                                   tensor::quant::Precision precision,
                                   size_t n_points = 128,
                                   uint64_t seed = 0xC0117AC7,
                                   double min_rho = 0.99);

/// The MetaDSE pipeline facade.
class MetaDseFramework {
 public:
  explicit MetaDseFramework(FrameworkOptions options = {});

  // -- substrate access ---------------------------------------------------------
  const arch::DesignSpace& space() const { return *space_; }
  const workload::SpecSuite& suite() const { return suite_; }
  const FrameworkOptions& options() const { return options_; }

  // -- dataset generation (lazy, cached per workload) -----------------------------
  const data::Dataset& dataset(const std::string& workload);
  std::vector<data::Dataset> datasets(const std::vector<std::string>& names);

  /// Arms deterministic fault injection on the dataset generator (see
  /// sim::FaultPlan). Affects datasets generated after this call only.
  void set_fault_plan(const sim::FaultPlan& plan);
  /// Replaces the generator's retry policy.
  void set_retry_policy(const data::RetryPolicy& policy);
  /// Generation accounting for a workload whose dataset() has been built;
  /// throws std::out_of_range otherwise.
  const data::GenerationReport& generation_report(
      const std::string& workload) const;
  /// All generation reports so far, keyed by workload.
  const std::map<std::string, data::GenerationReport>& generation_reports()
      const {
    return reports_;
  }

  // -- pre-training (Algorithm 1) ---------------------------------------------------
  /// Meta-trains on the suite's train split with meta-validation on the
  /// validation split, then generates the WAM from the accumulated
  /// attention. Without an autosave_path this is idempotent (re-running
  /// re-trains from scratch); with one, an unfinished autosaved run is
  /// resumed and a finished one is loaded outright.
  void pretrain();

  bool pretrained() const { return trainer_ != nullptr; }
  const nn::TransformerRegressor& model() const;
  const data::Scaler& scaler() const;
  /// The generated workload-adaptive architectural mask [n_params, n_params].
  const tensor::Tensor& wam_mask() const;
  /// Mean last-layer attention accumulated during pre-training (the WAM's
  /// input statistic); available after pretrain() or load_checkpoint().
  const tensor::Tensor& mean_attention() const;
  /// Rebuilds the WAM from the stored attention statistic with new options
  /// (no retraining needed) and makes it the active mask.
  void regenerate_wam(const meta::WamOptions& options);
  /// Replaces the adaptation hyper-parameters used by adapt_to()/evaluate().
  void set_adapt_options(const meta::AdaptOptions& options) {
    options_.adapt = options;
  }
  /// Per-epoch meta-training trace.
  const std::vector<meta::EpochTrace>& trace() const;

  // -- checkpointing --------------------------------------------------------------
  /// Saves model parameters + scaler + attention statistic + training trace
  /// in the v2 format (CRC-checksummed, written atomically). Throws on I/O
  /// error. See DESIGN.md "Failure semantics" for the on-disk layout.
  void save_checkpoint(const std::string& path) const;
  /// Returns false when @p path does not exist; throws on malformed or
  /// corrupt files. Reads v2 and legacy v1 checkpoints.
  bool load_checkpoint(const std::string& path);

  // -- adaptation & evaluation (Algorithm 2) -------------------------------------------
  /// Adapts the pre-trained model to a target support set (raw labels);
  /// uses the WAM unless options().adapt.use_wam is false.
  AdaptedPredictor adapt_to(const data::Dataset& target_support) const;

  // -- crash-safe DSE (explorer stage of Algorithm 2) -----------------------------------
  /// Knobs for one guarded, optionally journaled exploration run.
  struct DseOptions {
    explore::ExplorerOptions explorer{};
    explore::GuardOptions guard{};
    /// Write-ahead journal path; empty disables durability. The archive
    /// snapshot lives at "<journal_path>.snapshot".
    std::string journal_path;
    /// Replay an existing journal/snapshot instead of refusing to clobber it.
    bool resume = false;
    size_t snapshot_period = 8;
    /// Journal rotation threshold (JournalOptions::compact_after_records):
    /// once a snapshot covers this many durable records the journal is
    /// compacted against it, keeping long-lived sessions disk-bounded.
    /// 0 disables rotation.
    size_t journal_compact_after = 0;
    /// Train a RandomForest on the support set as the degradation ladder's
    /// middle rung (surrogate -> forest -> quarantine-and-skip).
    bool baseline_fallback = true;
    /// Called before every live primary evaluation (per point on the scalar
    /// path, once per batch on the batched path). Hook point for chaos
    /// drills and slow-simulator rehearsal; throwing from it interrupts the
    /// run exactly as a crash would — the journal keeps what finished.
    std::function<void()> pre_eval_hook;
    /// Session-wide deadline budget, shared with the serving layer. When
    /// set, every evaluation attempt and retry backoff charges it, and an
    /// exhausted or cancelled budget aborts the run with
    /// explore::ExplorationAborted (the journal preserves progress; resume
    /// with a fresh budget to finish).
    std::shared_ptr<explore::DeadlineBudget> budget = {};
    /// Overrides the surrogate-IPC leg of the primary evaluator: given the
    /// normalized feature rows of a candidate batch, returns one IPC per
    /// row, in order. The serving layer points this at a cross-session
    /// BatchCoalescer; any implementation must be pointwise bitwise-equal to
    /// predictor.predict_batch(rows) or DSE results change. The simulated
    /// power leg stays on the caller's generator either way.
    /// explore::ExplorationAborted thrown from here aborts the run (the
    /// journal preserves progress); other exceptions are contained by the
    /// guard as ordinary evaluation failures.
    std::function<std::vector<float>(const std::vector<std::vector<float>>&)>
        predict_rows;
    /// Numeric tier of the surrogate's planned forwards (tensor/quant.hpp).
    /// Non-fp32 runs first check the quantization error contract
    /// (check_quant_contract): on a trip the run falls back to fp32 and
    /// RunReport::quant_contract_tripped is set. fp32 runs are untouched.
    tensor::quant::Precision precision = tensor::quant::Precision::kFp32;
    /// Minimum Spearman rank correlation between fp32 and reduced-precision
    /// predictions required to serve at reduced precision.
    double quant_contract_min_rho = 0.99;
  };

  /// Runs the few-shot DSE loop with fault containment: surrogate IPC (one
  /// batched no-grad forward per generation) + simulated power as the
  /// primary evaluator, guarded by deadlines/retries/the circuit breaker,
  /// journaled when journal_path is set. The framework's armed fault plan
  /// (set_fault_plan) applies to the primary's simulator leg, so chaos
  /// drills rehearse the whole ladder. Accounting lands in run_report().
  explore::ParetoArchive run_dse(const AdaptedPredictor& predictor,
                                 const data::Dataset& support,
                                 const std::string& workload,
                                 const DseOptions& dse_options);

  /// Re-entrant form of run_dse for concurrent sessions (the serving core):
  /// the caller supplies the simulator generator (it may carry a fault
  /// plan) and the report sink, so nothing on the framework mutates. Safe
  /// to call from several threads at once on one framework, one predictor
  /// and one generator (evaluate() is const and pure) as long as each call
  /// gets its own report.
  explore::ParetoArchive run_dse(const AdaptedPredictor& predictor,
                                 const data::Dataset& support,
                                 const std::string& workload,
                                 const DseOptions& dse_options,
                                 const data::DatasetGenerator& generator,
                                 explore::RunReport& report) const;

  /// Accounting for the most recent run_dse() call.
  const explore::RunReport& run_report() const { return run_report_; }

  /// Samples @p n_tasks (support+query) tasks from @p workload, adapts on
  /// each support set and scores on the query set. @p use_wam toggles the
  /// WAM (for the MetaDSE-w/o-WAM ablation).
  std::vector<TaskEval> evaluate(const std::string& workload, size_t n_tasks,
                                 size_t support, size_t query, bool use_wam,
                                 tensor::Rng& rng);

 private:
  std::unique_ptr<nn::TransformerRegressor> adapt_task(
      const tensor::Tensor& support_x, const tensor::Tensor& support_y_scaled,
      bool use_wam) const;

  /// Generates one workload's dataset from its per-workload seeded RNG.
  /// Const and cache-free, so multiple workloads generate concurrently.
  std::pair<data::Dataset, data::GenerationReport> generate_one(
      const std::string& workload) const;

  /// Serializes one v2 checkpoint image (shared by save_checkpoint and the
  /// per-epoch autosave, which persists the trainer's best-so-far state).
  void write_checkpoint(const std::string& path,
                        const std::vector<float>& flat_params,
                        const data::Scaler& scaler,
                        const std::vector<float>& attention_mean,
                        size_t attention_count,
                        const std::vector<meta::EpochTrace>& trace,
                        double best_val) const;
  /// Parses @p path into resume state; returns nullopt when the file does
  /// not exist. Throws on corruption or architecture mismatch.
  std::optional<meta::MamlTrainer::WarmStart> load_warm_start(
      const std::string& path);

  FrameworkOptions options_;
  const arch::DesignSpace* space_;
  workload::SpecSuite suite_;
  data::DatasetGenerator generator_;
  std::map<std::string, data::Dataset> cache_;
  std::map<std::string, data::GenerationReport> reports_;
  std::unique_ptr<meta::MamlTrainer> trainer_;
  explore::RunReport run_report_;
  tensor::Tensor wam_mask_;
  tensor::Tensor mean_attention_;
  // Set when state came from a checkpoint instead of a live trainer.
  std::unique_ptr<nn::TransformerRegressor> loaded_model_;
  std::optional<data::Scaler> loaded_scaler_;
  std::vector<meta::EpochTrace> loaded_trace_;
  size_t loaded_attention_count_ = 0;
  double loaded_best_val_ = 1e300;
};

}  // namespace metadse::core
