#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace metadse::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng& rng)
    : in_(in_features), out_(out_features) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Linear: features must be positive");
  }
  const float bound =
      std::sqrt(6.0F / static_cast<float>(in_features + out_features));
  w_ = register_parameter(
      Tensor::uniform({in_features, out_features}, rng, -bound, bound));
  b_ = register_parameter(Tensor::zeros({out_features}));
}

Tensor Linear::forward(const Tensor& x) const {
  if (x.shape().empty() || x.shape().back() != in_) {
    throw std::invalid_argument("Linear::forward: trailing dim " +
                                tensor::shape_str(x.shape()) + " != in=" +
                                std::to_string(in_));
  }
  return tensor::add(tensor::matmul(x, w_), b_);
}

Tensor Linear::forward_gelu(const Tensor& x) const {
  if (x.shape().empty() || x.shape().back() != in_) {
    throw std::invalid_argument("Linear::forward_gelu: trailing dim " +
                                tensor::shape_str(x.shape()) + " != in=" +
                                std::to_string(in_));
  }
  return tensor::bias_gelu(tensor::matmul(x, w_), b_);
}

LayerNorm::LayerNorm(size_t features, float eps) : eps_(eps) {
  if (features == 0) {
    throw std::invalid_argument("LayerNorm: features must be positive");
  }
  gamma_ = register_parameter(Tensor::full({features}, 1.0F));
  beta_ = register_parameter(Tensor::zeros({features}));
}

Tensor LayerNorm::forward(const Tensor& x) const {
  if (x.shape().empty() || x.shape().back() != gamma_.dim(0)) {
    throw std::invalid_argument("LayerNorm::forward: trailing dim mismatch");
  }
  return tensor::layer_norm_affine(x, gamma_, beta_, eps_);
}

}  // namespace metadse::nn
