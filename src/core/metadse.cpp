#include "core/metadse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baselines/ensembles.hpp"
#include "core/chaos.hpp"
#include "core/parallel.hpp"
#include "eval/metrics.hpp"
#include "nn/plan.hpp"
#include "nn/serialize.hpp"
#include "sim/fault_injection.hpp"
#include "tensor/guard.hpp"
#include "tensor/ops.hpp"

namespace metadse::core {

float AdaptedPredictor::predict(const std::vector<float>& features) const {
  if (chaos::fire("replica.predict")) {
    throw sim::SimulationFailure("injected replica predict fault");
  }
  const auto scaled = model->predict_one(features);
  return scaler.inverse({scaled.front()}).front();
}

std::vector<float> AdaptedPredictor::predict_batch(
    const std::vector<std::vector<float>>& rows) const {
  if (chaos::fire("replica.predict")) {
    throw sim::SimulationFailure("injected replica predict fault");
  }
  const auto scaled = model->predict_batch(rows);
  std::vector<float> out;
  out.reserve(rows.size());
  for (const auto& y : scaled) {
    out.push_back(scaler.inverse({y.front()}).front());
  }
  return out;
}

MetaDseFramework::MetaDseFramework(FrameworkOptions options)
    : options_(options),
      space_(&arch::DesignSpace::table1()),
      generator_(*space_) {
  if (options_.predictor.n_tokens != space_->num_params()) {
    throw std::invalid_argument(
        "FrameworkOptions: predictor.n_tokens must equal the design-space "
        "parameter count (" + std::to_string(space_->num_params()) + ")");
  }
}

const data::Dataset& MetaDseFramework::dataset(const std::string& workload) {
  auto it = cache_.find(workload);
  if (it != cache_.end()) return it->second;
  auto [ds, report] = generate_one(workload);
  if (ds.empty()) {
    throw std::runtime_error("dataset: every design point for '" + workload +
                             "' failed labelling (" + report.summary() + ")");
  }
  reports_[workload] = std::move(report);
  return cache_.emplace(workload, std::move(ds)).first->second;
}

std::pair<data::Dataset, data::GenerationReport>
MetaDseFramework::generate_one(const std::string& workload) const {
  const auto& wl = suite_.by_name(workload);
  // Per-workload deterministic seed so dataset identity is independent of
  // generation order (and of which pool worker generates it).
  tensor::Rng rng(options_.seed ^ std::hash<std::string>{}(workload));
  data::GenerationReport report;
  auto ds = generator_.generate(wl, options_.samples_per_workload, rng,
                                /*latin_hypercube=*/true, &report);
  return {std::move(ds), std::move(report)};
}

void MetaDseFramework::set_fault_plan(const sim::FaultPlan& plan) {
  generator_.set_fault_plan(plan);
}

void MetaDseFramework::set_retry_policy(const data::RetryPolicy& policy) {
  generator_.set_retry_policy(policy);
}

const data::GenerationReport& MetaDseFramework::generation_report(
    const std::string& workload) const {
  return reports_.at(workload);
}

std::vector<data::Dataset> MetaDseFramework::datasets(
    const std::vector<std::string>& names) {
  // Generate the uncached workloads on the pool (each draws from its own
  // per-workload seeded RNG, so results are identical to generating them one
  // at a time), then fold them into the cache in name order — the same
  // datasets, reports, and failure behaviour as the serial loop.
  std::vector<std::string> missing;
  for (const auto& n : names) {
    if (cache_.find(n) == cache_.end() &&
        std::find(missing.begin(), missing.end(), n) == missing.end()) {
      missing.push_back(n);
    }
  }
  core::parallel_map_reduce<std::pair<data::Dataset, data::GenerationReport>>(
      missing.size(), [&](size_t i) { return generate_one(missing[i]); },
      [&](size_t i, std::pair<data::Dataset, data::GenerationReport> r) {
        if (r.first.empty()) {
          throw std::runtime_error("dataset: every design point for '" +
                                   missing[i] + "' failed labelling (" +
                                   r.second.summary() + ")");
        }
        reports_[missing[i]] = std::move(r.second);
        cache_.emplace(missing[i], std::move(r.first));
      });
  std::vector<data::Dataset> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(dataset(n));
  return out;
}

void MetaDseFramework::pretrain() {
  // Resume path: an autosaved run that already finished is loaded outright;
  // an unfinished one warm-starts the trainer at its last completed epoch.
  std::optional<meta::MamlTrainer::WarmStart> warm;
  if (!options_.autosave_path.empty()) {
    warm = load_warm_start(options_.autosave_path);
    if (warm && warm->trace.size() >= options_.maml.epochs) {
      load_checkpoint(options_.autosave_path);
      return;
    }
  }

  const auto train_names = suite_.names(workload::SplitRole::kTrain);
  const auto val_names = suite_.names(workload::SplitRole::kValidation);
  auto train_sets = datasets(train_names);
  auto val_sets = datasets(val_names);
  trainer_ = std::make_unique<meta::MamlTrainer>(options_.predictor,
                                                 options_.maml);
  if (warm) trainer_->set_warm_start(std::move(*warm));
  if (!options_.autosave_path.empty()) {
    const size_t period = options_.autosave_period == 0
                              ? size_t{1}
                              : options_.autosave_period;
    trainer_->set_epoch_callback([this, period](size_t epoch,
                                                const meta::EpochTrace&) {
      if ((epoch + 1) % period != 0 || trainer_->attention_count() == 0) {
        return;
      }
      write_checkpoint(options_.autosave_path,
                       trainer_->best_model().flatten_parameters(),
                       trainer_->scaler(),
                       trainer_->mean_attention().data(),
                       trainer_->attention_count(), trainer_->trace(),
                       trainer_->best_val_loss());
    });
  }
  trainer_->train(train_sets, val_sets);
  mean_attention_ = trainer_->mean_attention();
  wam_mask_ =
      meta::WamGenerator::from_mean_attention(mean_attention_, options_.wam);
  loaded_model_.reset();
  loaded_scaler_.reset();
}

const nn::TransformerRegressor& MetaDseFramework::model() const {
  if (trainer_) return trainer_->model();
  if (loaded_model_) return *loaded_model_;
  throw std::logic_error("MetaDseFramework: pretrain() or load_checkpoint() first");
}

const data::Scaler& MetaDseFramework::scaler() const {
  if (trainer_) return trainer_->scaler();
  if (loaded_scaler_) return *loaded_scaler_;
  throw std::logic_error("MetaDseFramework: pretrain() or load_checkpoint() first");
}

const tensor::Tensor& MetaDseFramework::wam_mask() const {
  if (!wam_mask_.defined()) {
    throw std::logic_error("MetaDseFramework: no WAM (pretrain first)");
  }
  return wam_mask_;
}

const tensor::Tensor& MetaDseFramework::mean_attention() const {
  if (!mean_attention_.defined()) {
    throw std::logic_error(
        "MetaDseFramework: no attention statistic (pretrain or load first)");
  }
  return mean_attention_;
}

void MetaDseFramework::regenerate_wam(const meta::WamOptions& options) {
  wam_mask_ =
      meta::WamGenerator::from_mean_attention(mean_attention(), options);
  options_.wam = options;
}

const std::vector<meta::EpochTrace>& MetaDseFramework::trace() const {
  if (trainer_) return trainer_->trace();
  return loaded_trace_;
}

namespace {
constexpr uint32_t kCkptMagicV1 = 0x4D44'4B32;  // "MDK2": legacy, unchecksummed
constexpr uint32_t kCkptMagicV2 = 0x4D44'4B50;  // "MDKP"
constexpr uint32_t kCkptVersion = 2;
constexpr uint64_t kMaxTraceEpochs = 1'000'000;  // sanity bound before alloc

template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}
void put_vec(std::string& out, const std::vector<float>& v) {
  put(out, static_cast<uint64_t>(v.size()));
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(float));
}

/// Bounds-checked cursor over an in-memory checkpoint image.
class Cursor {
 public:
  Cursor(const std::string& bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  template <typename T>
  T pod() {
    T v{};
    need(sizeof(T));
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a float vector whose announced size must equal @p expected —
  /// validated before any allocation, so a corrupt length cannot OOM.
  std::vector<float> vec(size_t expected, const char* what) {
    const auto n = pod<uint64_t>();
    if (n != expected) {
      throw std::runtime_error(context_ + ": " + what + " size mismatch");
    }
    std::vector<float> v(n);
    need(n * sizeof(float));
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return v;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(size_t n) {
    if (pos_ + n > bytes_.size() || pos_ + n < pos_) {
      throw std::runtime_error(context_ + ": truncated file");
    }
  }

  const std::string& bytes_;
  size_t pos_ = 0;
  std::string context_;
};

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  if (!is) throw std::runtime_error("checkpoint: read failed: " + path);
  return std::move(ss).str();
}

/// Verifies the v2 footer (CRC over everything before the last 4 bytes).
void check_footer(const std::string& bytes, const std::string& path) {
  if (bytes.size() < 12) {
    throw std::runtime_error("load_checkpoint: truncated file " + path);
  }
  uint32_t footer = 0;
  std::memcpy(&footer, bytes.data() + bytes.size() - 4, sizeof(footer));
  if (footer != nn::crc32(bytes.data(), bytes.size() - 4)) {
    throw std::runtime_error("load_checkpoint: checksum mismatch in " + path);
  }
}

/// Rebuilds a Scaler from stored (mean, stddev): Scaler has no setters by
/// design, so fit two synthetic rows whose statistics match.
data::Scaler scaler_from_stats(const std::vector<float>& mean,
                               const std::vector<float>& stddev) {
  std::vector<std::vector<float>> synth(2, std::vector<float>(mean.size()));
  for (size_t j = 0; j < mean.size(); ++j) {
    synth[0][j] = mean[j] - stddev[j];
    synth[1][j] = mean[j] + stddev[j];
  }
  data::Scaler sc;
  sc.fit(synth);
  return sc;
}
}  // namespace

void MetaDseFramework::write_checkpoint(
    const std::string& path, const std::vector<float>& flat_params,
    const data::Scaler& scaler, const std::vector<float>& attention_mean,
    size_t attention_count, const std::vector<meta::EpochTrace>& trace,
    double best_val) const {
  if (tensor::has_nonfinite(flat_params)) {
    throw std::runtime_error(
        "save_checkpoint: refusing to persist non-finite parameters");
  }
  std::string out;
  put(out, kCkptMagicV2);
  put(out, kCkptVersion);
  put(out, static_cast<uint64_t>(options_.predictor.n_tokens));
  put(out, static_cast<uint64_t>(options_.predictor.d_model));
  put(out, static_cast<uint64_t>(options_.predictor.n_layers));
  put(out, static_cast<uint64_t>(data::target_width(options_.maml.target)));
  put(out, best_val);
  put(out, static_cast<uint64_t>(trace.size()));
  for (const auto& tr : trace) {
    put(out, tr.train_meta_loss);
    put(out, tr.val_loss);
    put(out, static_cast<uint64_t>(tr.skipped_tasks));
    put(out, static_cast<uint64_t>(tr.skipped_batches));
    put(out, static_cast<uint8_t>(tr.rolled_back ? 1 : 0));
    put(out, tr.outer_lr);
  }
  put(out, static_cast<uint64_t>(attention_count));
  put_vec(out, scaler.mean());
  put_vec(out, scaler.stddev());
  put_vec(out, attention_mean);
  put_vec(out, flat_params);
  put(out, nn::crc32(out.data(), out.size()));
  nn::atomic_write_file(path, out);
}

void MetaDseFramework::save_checkpoint(const std::string& path) const {
  const size_t attn_count =
      trainer_ ? trainer_->attention_count() : loaded_attention_count_;
  const double best_val =
      trainer_ ? trainer_->best_val_loss() : loaded_best_val_;
  write_checkpoint(path, model().flatten_parameters(), scaler(),
                   mean_attention().data(), attn_count, trace(), best_val);
}

bool MetaDseFramework::load_checkpoint(const std::string& path) {
  const auto bytes = slurp(path);
  if (!bytes) return false;

  Cursor hdr(*bytes, "load_checkpoint");
  const auto magic = hdr.pod<uint32_t>();
  if (magic != kCkptMagicV1 && magic != kCkptMagicV2) {
    throw std::runtime_error("load_checkpoint: bad magic in " + path);
  }
  const bool v2 = magic == kCkptMagicV2;
  if (v2) {
    check_footer(*bytes, path);
    if (hdr.pod<uint32_t>() != kCkptVersion) {
      throw std::runtime_error("load_checkpoint: unsupported version in " +
                               path);
    }
  }
  if (hdr.pod<uint64_t>() != options_.predictor.n_tokens ||
      hdr.pod<uint64_t>() != options_.predictor.d_model ||
      hdr.pod<uint64_t>() != options_.predictor.n_layers) {
    throw std::runtime_error("load_checkpoint: architecture mismatch in " +
                             path);
  }

  nn::TransformerConfig cfg = options_.predictor;
  cfg.n_outputs = data::target_width(options_.maml.target);
  const size_t width = data::target_width(options_.maml.target);
  tensor::Rng rng(0);
  auto model = std::make_unique<nn::TransformerRegressor>(cfg, rng);
  const size_t n = options_.predictor.n_tokens;

  std::vector<meta::EpochTrace> trace;
  size_t attn_count = 0;
  double best_val = 1e300;
  if (v2) {
    if (hdr.pod<uint64_t>() != width) {
      throw std::runtime_error("load_checkpoint: target width mismatch in " +
                               path);
    }
    best_val = hdr.pod<double>();
    const auto n_trace = hdr.pod<uint64_t>();
    if (n_trace > kMaxTraceEpochs) {
      throw std::runtime_error("load_checkpoint: implausible trace length in " +
                               path);
    }
    trace.reserve(n_trace);
    for (uint64_t e = 0; e < n_trace; ++e) {
      meta::EpochTrace tr;
      tr.train_meta_loss = hdr.pod<double>();
      tr.val_loss = hdr.pod<double>();
      tr.skipped_tasks = hdr.pod<uint64_t>();
      tr.skipped_batches = hdr.pod<uint64_t>();
      tr.rolled_back = hdr.pod<uint8_t>() != 0;
      tr.outer_lr = hdr.pod<float>();
      trace.push_back(tr);
    }
    attn_count = hdr.pod<uint64_t>();
  }
  const auto mean = hdr.vec(width, "scaler mean");
  const auto stddev = hdr.vec(width, "scaler stddev");
  const auto attn = hdr.vec(n * n, "attention");
  const auto flat = hdr.vec(model->parameter_count(), "parameters");
  if (v2 && hdr.remaining() != 4) {
    throw std::runtime_error("load_checkpoint: trailing bytes in " + path);
  }
  if (tensor::has_nonfinite(flat) || tensor::has_nonfinite(attn)) {
    throw std::runtime_error("load_checkpoint: non-finite state in " + path);
  }

  loaded_scaler_ = scaler_from_stats(mean, stddev);
  model->unflatten_parameters(flat);
  loaded_model_ = std::move(model);
  loaded_trace_ = std::move(trace);
  loaded_attention_count_ = attn_count;
  loaded_best_val_ = best_val;
  mean_attention_ = tensor::Tensor::from_vector({n, n}, attn);
  // The WAM is always derived from the stored statistic with the *current*
  // options, so WamOptions changes apply without retraining.
  wam_mask_ =
      meta::WamGenerator::from_mean_attention(mean_attention_, options_.wam);
  trainer_.reset();
  return true;
}

std::optional<meta::MamlTrainer::WarmStart>
MetaDseFramework::load_warm_start(const std::string& path) {
  const auto bytes = slurp(path);
  if (!bytes) return std::nullopt;
  Cursor hdr(*bytes, "load_warm_start");
  if (hdr.pod<uint32_t>() != kCkptMagicV2) {
    return std::nullopt;  // legacy v1 files carry no resume state
  }
  // Delegate full parsing/validation to load_checkpoint, then convert the
  // loaded state into trainer resume form.
  if (!load_checkpoint(path)) return std::nullopt;
  meta::MamlTrainer::WarmStart ws;
  ws.parameters = loaded_model_->flatten_parameters();
  ws.trace = loaded_trace_;
  ws.best_val = loaded_best_val_;
  ws.attention_count = loaded_attention_count_;
  if (loaded_attention_count_ > 0) {
    const auto& m = mean_attention_.data();
    ws.attention_sum.resize(m.size());
    for (size_t i = 0; i < m.size(); ++i) {
      ws.attention_sum[i] =
          static_cast<double>(m[i]) *
          static_cast<double>(loaded_attention_count_);
    }
  }
  return ws;
}

std::unique_ptr<nn::TransformerRegressor> MetaDseFramework::adapt_task(
    const tensor::Tensor& support_x, const tensor::Tensor& support_y_scaled,
    bool use_wam) const {
  meta::AdaptOptions opts = options_.adapt;
  opts.use_wam = use_wam;
  return meta::wam_adapt(model(), use_wam ? wam_mask() : tensor::Tensor(),
                         support_x, support_y_scaled, opts);
}

AdaptedPredictor MetaDseFramework::adapt_to(
    const data::Dataset& target_support) const {
  if (target_support.empty()) {
    throw std::invalid_argument("adapt_to: empty support dataset");
  }
  const size_t n = target_support.size();
  const size_t n_feat = target_support.samples.front().features.size();
  std::vector<float> xs;
  std::vector<float> ys;
  for (const auto& s : target_support.samples) {
    xs.insert(xs.end(), s.features.begin(), s.features.end());
    ys.push_back(data::target_of(s, options_.maml.target).front());
  }
  auto x = tensor::Tensor::from_vector({n, n_feat}, std::move(xs));
  auto y_raw = tensor::Tensor::from_vector({n, 1}, std::move(ys));
  auto y = scaler().transform(y_raw);

  AdaptedPredictor out;
  out.model = adapt_task(x, y, options_.adapt.use_wam);
  out.scaler = scaler();
  // Capture the int8 activation-calibration table from the support batch
  // (the only labelled data this workload has at adapt time). One extra
  // no-grad forward; the model's fp32 predictions are untouched. Failure
  // (unplannable forward) just leaves the model uncalibrated, so int8
  // requests downgrade to fp32.
  (void)nn::plan::capture_calibration(*out.model, x.data().data(), n);
  return out;
}

QuantContract check_quant_contract(const AdaptedPredictor& predictor,
                                   const arch::DesignSpace& space,
                                   tensor::quant::Precision precision,
                                   size_t n_points, uint64_t seed,
                                   double min_rho) {
  QuantContract qc;
  qc.min_rho = min_rho;
  qc.n_points = n_points;
  if (precision == tensor::quant::Precision::kFp32 || n_points < 2) return qc;
  tensor::Rng rng(seed);
  const auto configs = space.sample_latin_hypercube(n_points, rng);
  std::vector<std::vector<float>> rows;
  rows.reserve(configs.size());
  for (const auto& c : configs) rows.push_back(space.normalize(c));
  std::vector<float> ref;
  std::vector<float> quantized;
  {
    tensor::quant::PrecisionModeGuard fp32(
        tensor::quant::Precision::kFp32);
    ref = predictor.predict_batch(rows);
  }
  {
    tensor::quant::PrecisionModeGuard reduced(precision);
    quantized = predictor.predict_batch(rows);
  }
  qc.rho = eval::spearman_rho(ref, quantized);
  qc.passed = qc.rho >= min_rho;
  return qc;
}

std::vector<TaskEval> MetaDseFramework::evaluate(const std::string& workload,
                                                 size_t n_tasks,
                                                 size_t support, size_t query,
                                                 bool use_wam,
                                                 tensor::Rng& rng) {
  const auto& ds = dataset(workload);
  data::TaskSampler sampler(ds, support, query, options_.maml.target);
  std::vector<TaskEval> out;
  out.reserve(n_tasks);
  tensor::Rng fwd(0);
  for (size_t k = 0; k < n_tasks; ++k) {
    auto task = sampler.sample(rng);
    auto sup_y = scaler().transform(task.support_y);
    auto adapted = adapt_task(task.support_x, sup_y, use_wam);
    // Adaptation needs the graph; the query prediction does not.
    tensor::NoGradGuard no_grad;
    auto pred_scaled = adapted->forward(task.query_x, fwd);
    auto pred = scaler().inverse(pred_scaled);
    TaskEval ev;
    ev.rmse = eval::rmse(task.query_y.data(), pred.data());
    ev.mape = eval::mape(task.query_y.data(), pred.data());
    ev.ev = eval::explained_variance(task.query_y.data(), pred.data());
    out.push_back(ev);
  }
  return out;
}

explore::ParetoArchive MetaDseFramework::run_dse(
    const AdaptedPredictor& predictor, const data::Dataset& support,
    const std::string& workload, const DseOptions& dse_options) {
  run_report_ = explore::RunReport{};
  return run_dse(predictor, support, workload, dse_options, generator_,
                 run_report_);
}

explore::ParetoArchive MetaDseFramework::run_dse(
    const AdaptedPredictor& predictor, const data::Dataset& support,
    const std::string& workload, const DseOptions& dse_options,
    const data::DatasetGenerator& generator,
    explore::RunReport& report) const {
  const workload::Workload& wl = suite_.by_name(workload);

  // Pre-run error contract for reduced-precision serving: measure the rank
  // agreement between fp32 and quantized predictions and refuse to serve
  // quantized when it is below the threshold — the run still completes,
  // just at fp32, and the trip is visible in the report (DESIGN.md §15).
  tensor::quant::Precision prec = dse_options.precision;
  if (prec != tensor::quant::Precision::kFp32) {
    const QuantContract qc =
        check_quant_contract(predictor, *space_, prec, /*n_points=*/128,
                             /*seed=*/0xC0117AC7,
                             dse_options.quant_contract_min_rho);
    if (!qc.passed) {
      prec = tensor::quant::Precision::kFp32;
      report.quant_contract_tripped = true;
    }
  }

  // Primary evaluator: surrogate IPC + simulated power. The power leg goes
  // through the caller's generator, so an armed fault plan (and its
  // attempt-indexed draws) exercises the retry/breaker machinery exactly as
  // a flaky label farm would. The IPC leg goes through dse_options.
  // predict_rows when set (the serving layer's cross-session coalescer);
  // since any valid predict_rows is pointwise bitwise-equal to the local
  // predictor, the two paths produce identical archives.
  explore::AttemptEvaluator primary =
      [this, &predictor, &wl, &dse_options, &generator,
       prec](const arch::Config& c, size_t attempt) {
        if (dse_options.pre_eval_hook) dse_options.pre_eval_hook();
        float ipc;
        {
          tensor::quant::PrecisionModeGuard qguard(prec);
          ipc = dse_options.predict_rows
                    ? dse_options.predict_rows({space_->normalize(c)}).at(0)
                    : predictor.predict(space_->normalize(c));
        }
        const auto [sim_ipc, sim_power] = generator.evaluate(c, wl, attempt);
        (void)sim_ipc;
        return explore::Objective{static_cast<double>(ipc), sim_power};
      };
  explore::BatchEvaluator batch_primary =
      [this, &predictor, &wl, &dse_options, &generator,
       prec](const std::vector<arch::Config>& batch) {
        if (dse_options.pre_eval_hook) dse_options.pre_eval_hook();
        std::vector<std::vector<float>> feats;
        feats.reserve(batch.size());
        for (const auto& c : batch) feats.push_back(space_->normalize(c));
        tensor::quant::PrecisionModeGuard qguard(prec);
        const auto ipcs = dse_options.predict_rows
                              ? dse_options.predict_rows(feats)
                              : predictor.predict_batch(feats);
        if (ipcs.size() != batch.size()) {
          throw sim::SimulationFailure(
              "predict_rows returned " + std::to_string(ipcs.size()) +
              " values for a batch of " + std::to_string(batch.size()));
        }
        std::vector<explore::Objective> objs;
        objs.reserve(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          const auto [sim_ipc, sim_power] =
              generator.evaluate(batch[i], wl, /*attempt=*/0);
          (void)sim_ipc;
          objs.push_back({static_cast<double>(ipcs[i]), sim_power});
        }
        return objs;
      };

  // Middle rung of the degradation ladder: a forest fitted on the same
  // K-shot support set, with power from a clean (never fault-injected)
  // generator — the reliable fallback the breaker downgrades to.
  explore::Evaluator baseline;
  std::shared_ptr<baselines::RandomForest> forest;
  std::shared_ptr<data::DatasetGenerator> clean_generator;
  if (dse_options.baseline_fallback) {
    baselines::FeatureMatrix x;
    std::vector<float> y;
    x.reserve(support.size());
    y.reserve(support.size());
    for (const auto& s : support.samples) {
      x.push_back(s.features);
      y.push_back(data::target_of(s, options_.maml.target).front());
    }
    forest = std::make_shared<baselines::RandomForest>();
    forest->fit(x, y);
    clean_generator = std::make_shared<data::DatasetGenerator>(*space_);
    baseline = [this, forest, clean_generator,
                &wl](const arch::Config& c) {
      const float ipc = forest->predict(space_->normalize(c));
      const auto [sim_ipc, sim_power] = clean_generator->evaluate(c, wl);
      (void)sim_ipc;
      return explore::Objective{static_cast<double>(ipc), sim_power};
    };
  }

  explore::GuardedEvaluator guard(std::move(primary), dse_options.guard,
                                  &report, std::move(baseline));
  guard.set_batch_primary(std::move(batch_primary));
  if (dse_options.budget) guard.set_session_budget(dse_options.budget);

  explore::EvolutionaryExplorer explorer(dse_options.explorer);
  if (dse_options.journal_path.empty()) {
    return explorer.explore(*space_, guard.as_batch_evaluator());
  }
  const explore::JournalOptions jopts{
      .path = dse_options.journal_path,
      .resume = dse_options.resume,
      .snapshot_period = dse_options.snapshot_period,
      .compact_after_records = dse_options.journal_compact_after};
  return explorer.explore(*space_, guard.as_batch_evaluator(), jopts,
                          &report);
}

}  // namespace metadse::core
