// Elementary trainable layers: Linear and LayerNorm (with affine).
#pragma once

#include "nn/module.hpp"

namespace metadse::nn {

/// Fully connected layer: y = x W + b, x is [..., in_features].
class Linear : public Module {
 public:
  /// Glorot-uniform initialized weights; zero bias.
  Linear(size_t in_features, size_t out_features, Rng& rng);

  /// Applies the affine map to the trailing dimension of @p x.
  Tensor forward(const Tensor& x) const;

  /// forward() followed by GELU, with the bias add and GELU in one fused
  /// kernel (bitwise-equal to gelu(forward(x))).
  Tensor forward_gelu(const Tensor& x) const;

  size_t in_features() const { return in_; }
  size_t out_features() const { return out_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  size_t in_;
  size_t out_;
  Tensor w_;  ///< [in, out]
  Tensor b_;  ///< [out]
};

/// Layer normalization over the trailing dimension with learnable gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(size_t features, float eps = 1e-5F);

  /// Normalizes the trailing dimension of @p x, then applies gamma/beta.
  Tensor forward(const Tensor& x) const;

  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }

 private:
  Tensor gamma_;  ///< [features], initialized to 1
  Tensor beta_;   ///< [features], initialized to 0
  float eps_;
};

}  // namespace metadse::nn
