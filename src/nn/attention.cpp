#include "nn/attention.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace metadse::nn {

namespace t = metadse::tensor;

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t d_model, size_t n_heads,
                                               Rng& rng)
    : d_model_(d_model),
      n_heads_(n_heads),
      d_head_(n_heads == 0 ? 0 : d_model / n_heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  if (n_heads == 0 || d_model % n_heads != 0) {
    throw std::invalid_argument(
        "MultiHeadSelfAttention: d_model must be divisible by n_heads");
  }
  register_child(wq_);
  register_child(wk_);
  register_child(wv_);
  register_child(wo_);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  if (x.rank() != 3 || x.dim(2) != d_model_) {
    throw std::invalid_argument(
        "MultiHeadSelfAttention::forward: expected [batch, seq, d_model]");
  }
  const size_t B = x.dim(0);
  const size_t S = x.dim(1);
  const size_t H = n_heads_;
  const size_t Dh = d_head_;

  auto split_heads = [&](const Tensor& proj) {
    // [B,S,D] -> [B,S,H,Dh] -> [B,H,S,Dh] -> [B*H,S,Dh]
    auto r = t::reshape(proj, {B, S, H, Dh});
    auto p = t::permute(r, {0, 2, 1, 3});
    return t::reshape(std::move(p), {B * H, S, Dh});
  };

  auto q = split_heads(wq_.forward(x));
  auto k = split_heads(wk_.forward(x));
  auto v = split_heads(wv_.forward(x));

  // matmul_nt is q · kᵀ without materializing the permuted copy of k; the
  // result is bitwise identical to matmul(q, transpose_last(k)).
  auto scores = t::div(t::matmul_nt(q, k),
                       std::sqrt(static_cast<float>(Dh)));
  Tensor attn;  // [B*H, S, S]
  if (mask_) {
    if (mask_->shape() != Shape{S, S}) {
      throw std::invalid_argument(
          "MultiHeadSelfAttention: mask shape must be [seq, seq]");
    }
    // Softmax, mask, and row renormalization in one node; gradients reach
    // the mask when it is trainable (Algorithm 2).
    attn = t::softmax_masked_lastdim(scores, *mask_);
  } else {
    attn = t::softmax_lastdim(scores);
  }

  if (capture_) {
    // Average over batch*heads -> [S, S], detached (analysis only). The
    // detach side effect cannot be replayed from a static schedule, so a
    // capturing forward stays eager.
    t::plan::trace_unplannable("attention capture");
    auto avg = t::mean_axis(attn, 0);
    last_attention_ = avg.detach();
  }

  auto ctx = t::matmul(attn, v);  // [B*H, S, Dh]
  auto merged = t::reshape(
      t::permute(t::reshape(ctx, {B, H, S, Dh}), {0, 2, 1, 3}),
      {B, S, d_model_});
  return wo_.forward(merged);
}

const Tensor& MultiHeadSelfAttention::last_attention() const {
  if (!last_attention_.defined()) {
    throw std::logic_error(
        "MultiHeadSelfAttention: no attention captured yet (enable "
        "set_capture_attention and run forward)");
  }
  return last_attention_;
}

void MultiHeadSelfAttention::install_mask(Tensor mask) {
  if (mask.rank() != 2 || mask.dim(0) != mask.dim(1)) {
    throw std::invalid_argument(
        "MultiHeadSelfAttention: mask must be square [seq, seq]");
  }
  mask_ = std::move(mask);
}

Tensor& MultiHeadSelfAttention::mask() {
  if (!mask_) throw std::logic_error("MultiHeadSelfAttention: no mask installed");
  return *mask_;
}

const Tensor& MultiHeadSelfAttention::mask() const {
  if (!mask_) throw std::logic_error("MultiHeadSelfAttention: no mask installed");
  return *mask_;
}

}  // namespace metadse::nn
