// The MetaDSE surrogate predictor: a transformer encoder over architectural-
// parameter tokens (one token per design-space parameter), following the
// AttentionDSE-style predictor the paper adopts. Exposes the last encoder
// layer's attention for WAM generation and a mask slot for WAM adaptation.
#pragma once

#include <memory>
#include <vector>

#include "nn/attention.hpp"

namespace metadse::nn::plan {
class PredictPlanner;
}  // namespace metadse::nn::plan

namespace metadse::nn {

/// Hyper-parameters of the transformer predictor.
struct TransformerConfig {
  size_t n_tokens = 24;   ///< sequence length = number of architectural params
  size_t d_model = 32;    ///< embedding width
  size_t n_heads = 4;     ///< attention heads
  size_t n_layers = 2;    ///< encoder layers
  size_t d_ff = 64;       ///< feed-forward hidden width
  size_t n_outputs = 1;   ///< regression targets (IPC, or IPC+power)
  float dropout = 0.0F;   ///< dropout prob in FFN (0 disables)
};

/// One pre-LayerNorm transformer encoder block.
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& cfg, Rng& rng);

  /// x: [batch, seq, d_model] -> same shape.
  Tensor forward(const Tensor& x, Rng& rng, bool train);

  MultiHeadSelfAttention& attention() { return attn_; }
  const MultiHeadSelfAttention& attention() const { return attn_; }

 private:
  MultiHeadSelfAttention attn_;
  LayerNorm ln1_;
  LayerNorm ln2_;
  Linear ff1_;
  Linear ff2_;
  float dropout_;
};

/// Transformer regression model mapping a normalized design-point feature
/// vector (one scalar per architectural parameter) to one or more metrics.
class TransformerRegressor : public Module {
 public:
  TransformerRegressor(const TransformerConfig& cfg, Rng& rng);
  ~TransformerRegressor() override;  // out-of-line: owns the predict planner

  /// x: [batch, n_tokens] normalized features -> [batch, n_outputs].
  Tensor forward(const Tensor& x, Rng& rng, bool train = false);

  /// Convenience single-design-point prediction (eval mode, no-grad).
  std::vector<float> predict_one(const std::vector<float>& features);

  /// Batched eval-mode prediction: one no-grad [B, n_tokens] forward. Row i
  /// of the result is bitwise identical to predict_one(rows[i]) — every op in
  /// the forward is per-row independent with deterministic accumulation.
  std::vector<std::vector<float>> predict_batch(
      const std::vector<std::vector<float>>& rows);

  const TransformerConfig& config() const { return cfg_; }

  /// The final encoder layer's attention module — the WAM attachment point.
  MultiHeadSelfAttention& last_attention_layer();
  const MultiHeadSelfAttention& last_attention_layer() const;

  /// Attention module of encoder layer @p i (0-based).
  MultiHeadSelfAttention& attention_layer(size_t i);
  const MultiHeadSelfAttention& attention_layer(size_t i) const;
  size_t layer_count() const { return layers_.size(); }

  /// Installs (a copy of) @p mask in every encoder layer's attention.
  void install_mask_all_layers(const Tensor& mask);
  /// Removes masks from every layer.
  void clear_masks();

  /// Parameters of the regression head only (for ANIL-style inner loops
  /// that freeze the encoder during task adaptation).
  std::vector<Tensor> head_parameters() const;

  /// Enables attention capture on the final encoder layer.
  void set_capture_attention(bool on);

  /// Deep copy: same architecture, copied parameter values; an installed
  /// mask on the last layer is copied by value (as a plain constant). The
  /// quantization calibration table (if any) is copied too.
  std::unique_ptr<TransformerRegressor> clone() const;

  /// Per-gemm activation absmax table for int8 serving, in compiled-plan
  /// schedule order (see tensor/plan.hpp quant_gemms()). Captured from the
  /// support batch at adapt time (nn::plan::capture_calibration); empty
  /// until then — int8 requests downgrade to fp32 while empty.
  const std::vector<float>& quant_calibration() const { return quant_calib_; }
  bool has_quant_calibration() const { return !quant_calib_.empty(); }
  void set_quant_calibration(std::vector<float> table) {
    quant_calib_ = std::move(table);
    ++quant_calib_gen_;
  }
  /// Bumped on every set_quant_calibration; planner entries revalidate
  /// against it so a re-captured table reaches already-bound executors.
  uint64_t quant_calibration_gen() const { return quant_calib_gen_; }

 private:
  TransformerConfig cfg_;
  Tensor value_embed_;  ///< [n_tokens, d_model]: per-parameter value direction
  Tensor param_embed_;  ///< [n_tokens, d_model]: per-parameter identity embed
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNorm final_ln_;
  Linear head1_;
  Linear head2_;
  Rng eval_rng_{0};  ///< inert rng for eval-mode forwards
  std::vector<float> quant_calib_;  ///< int8 activation absmax (plan order)
  uint64_t quant_calib_gen_ = 0;
  /// Cache of compiled predict plans (nn/plan.hpp), built in the
  /// constructor so concurrent first predicts on a shared model never race
  /// on it. The eager forward() path never touches it; predict_one/
  /// predict_batch consult it first and fall back to eager for unplannable
  /// shapes.
  std::unique_ptr<plan::PredictPlanner> planner_;
};

}  // namespace metadse::nn
