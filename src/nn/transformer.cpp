#include "nn/transformer.hpp"

#include <stdexcept>

#include "nn/plan.hpp"
#include "tensor/ops.hpp"

namespace metadse::nn {

namespace t = metadse::tensor;

TransformerEncoderLayer::TransformerEncoderLayer(const TransformerConfig& cfg,
                                                 Rng& rng)
    : attn_(cfg.d_model, cfg.n_heads, rng),
      ln1_(cfg.d_model),
      ln2_(cfg.d_model),
      ff1_(cfg.d_model, cfg.d_ff, rng),
      ff2_(cfg.d_ff, cfg.d_model, rng),
      dropout_(cfg.dropout) {
  register_child(attn_);
  register_child(ln1_);
  register_child(ln2_);
  register_child(ff1_);
  register_child(ff2_);
}

Tensor TransformerEncoderLayer::forward(const Tensor& x, Rng& rng,
                                        bool train) {
  auto h = t::add(x, attn_.forward(ln1_.forward(x)));
  auto ff = ff2_.forward(ff1_.forward_gelu(ln2_.forward(h)));
  if (dropout_ > 0.0F) ff = t::dropout(ff, dropout_, rng, train);
  return t::add(h, ff);
}

TransformerRegressor::TransformerRegressor(const TransformerConfig& cfg,
                                           Rng& rng)
    : cfg_(cfg),
      final_ln_(cfg.d_model),
      head1_(cfg.d_model, cfg.d_model, rng),
      head2_(cfg.d_model, cfg.n_outputs, rng) {
  if (cfg.n_tokens == 0 || cfg.n_outputs == 0 || cfg.n_layers == 0) {
    throw std::invalid_argument("TransformerRegressor: zero-sized config");
  }
  value_embed_ = register_parameter(
      Tensor::randn({cfg.n_tokens, cfg.d_model}, rng, 0.5F));
  param_embed_ = register_parameter(
      Tensor::randn({cfg.n_tokens, cfg.d_model}, rng, 0.1F));
  layers_.reserve(cfg.n_layers);
  for (size_t i = 0; i < cfg.n_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(cfg, rng));
    register_child(*layers_.back());
  }
  register_child(final_ln_);
  register_child(head1_);
  register_child(head2_);
  planner_ = std::make_unique<plan::PredictPlanner>(*this);
}

TransformerRegressor::~TransformerRegressor() = default;

Tensor TransformerRegressor::forward(const Tensor& x, Rng& rng, bool train) {
  if (x.rank() != 2 || x.dim(1) != cfg_.n_tokens) {
    throw std::invalid_argument(
        "TransformerRegressor::forward: expected [batch, n_tokens], got " +
        t::shape_str(x.shape()));
  }
  const size_t B = x.dim(0);
  // Token embedding: scalar feature scales a learned direction, plus a
  // learned per-parameter identity embedding.
  auto xs = t::reshape(x, {B, cfg_.n_tokens, 1});
  auto tokens = t::add(t::mul(xs, value_embed_), param_embed_);
  Tensor h = tokens;
  for (auto& layer : layers_) h = layer->forward(h, rng, train);
  h = final_ln_.forward(h);
  auto pooled = t::mean_axis(h, 1);  // [B, d_model]
  auto hidden = head1_.forward_gelu(pooled);
  return head2_.forward(hidden);
}

std::vector<float> TransformerRegressor::predict_one(
    const std::vector<float>& features) {
  if (plan::PlanMode::enabled() && features.size() == cfg_.n_tokens) {
    std::vector<float> out(cfg_.n_outputs);
    if (planner_->run(1, features.data(), out.data())) return out;
  }
  t::NoGradGuard no_grad;
  auto x = Tensor::from_vector({1, cfg_.n_tokens},
                               std::vector<float>(features));
  auto y = forward(x, eval_rng_, /*train=*/false);
  return y.data();
}

std::vector<std::vector<float>> TransformerRegressor::predict_batch(
    const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return {};
  t::NoGradGuard no_grad;
  std::vector<float> flat;
  flat.reserve(rows.size() * cfg_.n_tokens);
  for (const auto& r : rows) {
    if (r.size() != cfg_.n_tokens) {
      throw std::invalid_argument(
          "TransformerRegressor::predict_batch: feature row size mismatch");
    }
    flat.insert(flat.end(), r.begin(), r.end());
  }
  const size_t no = cfg_.n_outputs;
  std::vector<std::vector<float>> out(rows.size());
  if (plan::PlanMode::enabled()) {
    std::vector<float> flat_out(rows.size() * no);
    if (planner_->run(rows.size(), flat.data(), flat_out.data())) {
      for (size_t i = 0; i < rows.size(); ++i) {
        out[i].assign(
            flat_out.begin() + static_cast<std::ptrdiff_t>(i * no),
            flat_out.begin() + static_cast<std::ptrdiff_t>((i + 1) * no));
      }
      return out;
    }
  }
  auto x = Tensor::from_vector({rows.size(), cfg_.n_tokens}, std::move(flat));
  auto y = forward(x, eval_rng_, /*train=*/false);
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i].assign(y.data().begin() + static_cast<std::ptrdiff_t>(i * no),
                  y.data().begin() + static_cast<std::ptrdiff_t>((i + 1) * no));
  }
  return out;
}

MultiHeadSelfAttention& TransformerRegressor::last_attention_layer() {
  return layers_.back()->attention();
}

const MultiHeadSelfAttention& TransformerRegressor::last_attention_layer()
    const {
  return layers_.back()->attention();
}

void TransformerRegressor::set_capture_attention(bool on) {
  last_attention_layer().set_capture_attention(on);
}

MultiHeadSelfAttention& TransformerRegressor::attention_layer(size_t i) {
  return layers_.at(i)->attention();
}

const MultiHeadSelfAttention& TransformerRegressor::attention_layer(
    size_t i) const {
  return layers_.at(i)->attention();
}

void TransformerRegressor::install_mask_all_layers(const Tensor& mask) {
  for (auto& layer : layers_) {
    layer->attention().install_mask(mask.detach());
  }
}

void TransformerRegressor::clear_masks() {
  for (auto& layer : layers_) layer->attention().clear_mask();
}

std::vector<Tensor> TransformerRegressor::head_parameters() const {
  auto p1 = head1_.parameters();
  auto p2 = head2_.parameters();
  p1.insert(p1.end(), p2.begin(), p2.end());
  return p1;
}

std::unique_ptr<TransformerRegressor> TransformerRegressor::clone() const {
  // Initialization draws are overwritten immediately by the copy below, so
  // skip the (surprisingly costly) normal/uniform sampling entirely.
  Rng scratch = Rng::null_stream();
  auto copy = std::make_unique<TransformerRegressor>(cfg_, scratch);
  copy->copy_parameters_from(*this);
  for (size_t i = 0; i < layers_.size(); ++i) {
    const auto& src_attn = layers_[i]->attention();
    if (src_attn.has_mask()) {
      copy->layers_[i]->attention().install_mask(src_attn.mask().detach());
    }
  }
  copy->quant_calib_ = quant_calib_;
  if (!quant_calib_.empty()) ++copy->quant_calib_gen_;
  return copy;
}

}  // namespace metadse::nn
