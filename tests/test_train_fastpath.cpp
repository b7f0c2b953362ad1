// The training fast path's contract: the fused forward+backward kernels
// (layer_norm_affine, softmax_masked_lastdim, bias_gelu), the fused
// optimizer updates (Sgd/Adam clip_and_step), and the pooled tape arena
// change where intermediate results live and how many passes run — never
// the arithmetic. Each fused kernel must match its composed op chain bitwise,
// forward and backward, at every thread count; learned weights and epoch
// traces must not depend on the thread count; the fused kernels must pass
// gradcheck; and steady-state inner loops must run allocation-free (every
// buffer served from the warm BufferPool). These per-kernel diffs are the
// reference for the fused path, which is the only one the model runs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/parallel.hpp"
#include "meta/maml.hpp"
#include "nn/optim.hpp"
#include "nn/transformer.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/guard.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace t = metadse::tensor;
namespace nn = metadse::nn;
namespace meta = metadse::meta;
namespace data = metadse::data;

namespace {

const std::vector<size_t> kThreadSweep = {1, 2, 8};

struct ThreadGuard {
  ~ThreadGuard() { metadse::set_threads(1); }
};

nn::TransformerConfig small_cfg() {
  return {.n_tokens = 24, .d_model = 32, .n_heads = 4,
          .n_layers = 2, .d_ff = 64, .n_outputs = 1};
}

/// One synthetic "workload": y = a*sin(pi*x0) + b*x1 + c*x2*x3 + d.
data::Dataset family_dataset(float a, float b, float c, float d, size_t n,
                             uint64_t seed) {
  data::Dataset ds;
  ds.workload = "synthetic";
  t::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    data::Sample s;
    s.features.resize(4);
    for (auto& f : s.features) f = rng.uniform(0.0F, 1.0F);
    s.ipc = a * std::sin(3.14159F * s.features[0]) + b * s.features[1] +
            c * s.features[2] * s.features[3] + d;
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

void expect_same_floats(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
  }
}

/// A WAM-shaped mask: mostly in (0, 1] with a few exact zeros.
t::Tensor wam_mask(size_t s, uint64_t seed) {
  t::Rng rng(seed);
  std::vector<float> m(s * s);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = (i % 7 == 3) ? 0.0F : rng.uniform(0.05F, 1.0F);
  }
  return t::Tensor::from_vector({s, s}, std::move(m));
}

}  // namespace

// -- fused kernels vs composed graphs: bitwise forward and backward ----------

TEST(TrainFastPathEquivalence, LayerNormAffineMatchesComposedAcrossThreads) {
  ThreadGuard guard;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(11);
    auto x1 = t::Tensor::randn({5, 24, 32}, rng, 1.0F, true);
    auto g1 = t::Tensor::uniform({32}, rng, 0.5F, 1.5F, true);
    auto b1 = t::Tensor::uniform({32}, rng, -0.5F, 0.5F, true);
    auto x2 = x1.detach();
    x2.set_requires_grad(true);
    auto g2 = g1.detach();
    g2.set_requires_grad(true);
    auto b2 = b1.detach();
    b2.set_requires_grad(true);

    auto fused = t::sum(t::mul(t::layer_norm_affine(x1, g1, b1),
                               t::layer_norm_affine(x1, g1, b1)));
    fused.backward();
    auto composed = t::sum(t::mul(
        t::add(t::mul(t::layer_norm_lastdim(x2), g2), b2),
        t::add(t::mul(t::layer_norm_lastdim(x2), g2), b2)));
    composed.backward();

    ASSERT_EQ(fused.item(), composed.item());
    expect_same_floats(x1.grad(), x2.grad(), "layer_norm dx");
    expect_same_floats(g1.grad(), g2.grad(), "layer_norm dgamma");
    expect_same_floats(b1.grad(), b2.grad(), "layer_norm dbeta");
  }
}

TEST(TrainFastPathEquivalence, SoftmaxMaskedMatchesComposedAcrossThreads) {
  ThreadGuard guard;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(13);
    auto s1 = t::Tensor::randn({20, 24, 24}, rng, 1.0F, true);
    auto m1 = wam_mask(24, 5);
    m1.set_requires_grad(true);
    auto s2 = s1.detach();
    s2.set_requires_grad(true);
    auto m2 = m1.detach();
    m2.set_requires_grad(true);

    auto fused = t::sum(t::mul(t::softmax_masked_lastdim(s1, m1),
                               t::softmax_masked_lastdim(s1, m1)));
    fused.backward();
    auto renorm = [](const t::Tensor& sc, const t::Tensor& mk) {
      auto masked = t::mul(t::softmax_lastdim(sc), mk);
      auto row_sum = t::add(t::sum_axis(masked, 2, true), 1e-6F);
      return t::div(masked, row_sum);
    };
    auto composed = t::sum(t::mul(renorm(s2, m2), renorm(s2, m2)));
    composed.backward();

    ASSERT_EQ(fused.item(), composed.item());
    expect_same_floats(s1.grad(), s2.grad(), "softmax_masked dscores");
    expect_same_floats(m1.grad(), m2.grad(), "softmax_masked dmask");
  }
}

TEST(TrainFastPathEquivalence, BiasGeluMatchesComposedAcrossThreads) {
  ThreadGuard guard;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(17);
    auto x1 = t::Tensor::randn({120, 64}, rng, 1.0F, true);
    auto b1 = t::Tensor::uniform({64}, rng, -0.5F, 0.5F, true);
    auto x2 = x1.detach();
    x2.set_requires_grad(true);
    auto b2 = b1.detach();
    b2.set_requires_grad(true);

    auto fused = t::sum(t::mul(t::bias_gelu(x1, b1), t::bias_gelu(x1, b1)));
    fused.backward();
    auto composed = t::sum(t::mul(t::gelu(t::add(x2, b2)),
                                  t::gelu(t::add(x2, b2))));
    composed.backward();

    ASSERT_EQ(fused.item(), composed.item());
    expect_same_floats(x1.grad(), x2.grad(), "bias_gelu dx");
    expect_same_floats(b1.grad(), b2.grad(), "bias_gelu db");
  }
}

// -- gradcheck for every fused kernel ----------------------------------------

TEST(TrainFastPathEquivalence, LayerNormAffineGradcheck) {
  t::Rng rng(23);
  auto x = t::Tensor::randn({3, 8}, rng, 1.0F, true);
  auto g = t::Tensor::uniform({8}, rng, 0.5F, 1.5F, true);
  auto b = t::Tensor::uniform({8}, rng, -0.5F, 0.5F, true);
  auto res = t::grad_check(
      [&] { return t::mean(t::mul(t::layer_norm_affine(x, g, b),
                                  t::layer_norm_affine(x, g, b))); },
      {x, g, b});
  EXPECT_TRUE(res.ok()) << res.violations << " violations, max abs err "
                        << res.max_abs_err;
}

TEST(TrainFastPathEquivalence, SoftmaxMaskedGradcheckIncludingMask) {
  t::Rng rng(29);
  auto s = t::Tensor::randn({4, 6, 6}, rng, 1.0F, true);
  auto m = wam_mask(6, 31);
  m.set_requires_grad(true);
  auto res = t::grad_check(
      [&] { return t::mean(t::mul(t::softmax_masked_lastdim(s, m),
                                  t::softmax_masked_lastdim(s, m))); },
      {s, m});
  EXPECT_TRUE(res.ok()) << res.violations << " violations, max abs err "
                        << res.max_abs_err;
}

TEST(TrainFastPathEquivalence, BiasGeluGradcheck) {
  t::Rng rng(37);
  auto x = t::Tensor::randn({6, 10}, rng, 1.0F, true);
  auto b = t::Tensor::uniform({10}, rng, -0.5F, 0.5F, true);
  auto res = t::grad_check(
      [&] { return t::mean(t::mul(t::bias_gelu(x, b), t::bias_gelu(x, b))); },
      {x, b});
  EXPECT_TRUE(res.ok()) << res.violations << " violations, max abs err "
                        << res.max_abs_err;
}

// -- fused optimizer updates -------------------------------------------------

TEST(TrainFastPathEquivalence, SgdClipAndStepMatchesSeparatePasses) {
  for (float max_norm : {1e-3F, 1e6F}) {  // clip active / clip no-op
    t::Rng rng(43);
    auto a1 = t::Tensor::randn({7, 5}, rng, 1.0F, true);
    auto b1 = t::Tensor::randn({5}, rng, 1.0F, true);
    auto a2 = a1.detach();
    a2.set_requires_grad(true);
    auto b2 = b1.detach();
    b2.set_requires_grad(true);
    auto fill = [&](std::vector<t::Tensor> ps) {
      t::Rng gr(51);
      for (auto& p : ps) {
        p.node()->ensure_grad();
        for (auto& g : p.node()->grad) g = gr.normal(0.0F, 2.0F);
      }
    };
    fill({a1, b1});
    fill({a2, b2});

    nn::Sgd fused({a1, b1}, 0.05F);
    const double norm = fused.clip_and_step(max_norm);
    nn::Sgd plain({a2, b2}, 0.05F);
    const double ref_norm = t::clip_global_grad_norm({a2, b2}, max_norm);
    plain.step();

    ASSERT_EQ(norm, ref_norm);
    expect_same_floats(a1.data(), a2.data(), "sgd values");
    expect_same_floats(a1.grad(), a2.grad(), "sgd grads (post-clip)");
    expect_same_floats(b1.data(), b2.data(), "sgd bias values");
    expect_same_floats(b1.grad(), b2.grad(), "sgd bias grads");
  }
}

TEST(TrainFastPathEquivalence, AdamClipAndStepMatchesSeparatePasses) {
  for (float max_norm : {1e-3F, 1e6F}) {
    t::Rng rng(47);
    auto a1 = t::Tensor::randn({7, 5}, rng, 1.0F, true);
    auto a2 = a1.detach();
    a2.set_requires_grad(true);
    nn::Adam fused({a1}, 1e-3F);
    nn::Adam plain({a2}, 1e-3F);
    for (int step = 0; step < 3; ++step) {  // moments must track bitwise too
      t::Rng gr(61 + step);
      for (auto* p : {&a1, &a2}) {
        p->node()->ensure_grad();
        for (auto& g : p->node()->grad) g = gr.normal(0.0F, 2.0F);
        gr = t::Rng(61 + step);
      }
      const double norm = fused.clip_and_step(max_norm);
      const double ref_norm = t::clip_global_grad_norm({a2}, max_norm);
      plain.step();
      ASSERT_EQ(norm, ref_norm);
      expect_same_floats(a1.data(), a2.data(), "adam values");
      expect_same_floats(a1.grad(), a2.grad(), "adam grads (post-clip)");
    }
  }
}

// -- end-to-end: meta-training epochs, thread sweep --------------------------

TEST(TrainFastPathEquivalence, MamlEpochsBitwiseIdenticalAcrossPaths) {
  ThreadGuard guard;
  std::vector<data::Dataset> train = {
      family_dataset(1.0F, 0.5F, 0.8F, 0.2F, 120, 1),
      family_dataset(0.6F, 1.0F, 0.2F, 0.5F, 120, 2)};
  nn::TransformerConfig cfg{.n_tokens = 4, .d_model = 8, .n_heads = 2,
                            .n_layers = 1, .d_ff = 16, .n_outputs = 1};
  meta::MamlOptions opts;
  opts.epochs = 2;
  opts.tasks_per_workload = 6;
  opts.support = 5;
  opts.query = 10;
  opts.inner_steps = 2;
  opts.meta_batch = 4;
  opts.val_tasks_per_workload = 2;
  opts.seed = 9;

  std::vector<float> ref_weights;
  std::vector<meta::EpochTrace> ref_trace;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    meta::MamlTrainer trainer(cfg, opts);
    trainer.train(train, {});
    auto weights = trainer.model().flatten_parameters();
    const auto& trace = trainer.trace();
    if (ref_weights.empty()) {
      ref_weights = weights;
      ref_trace = trace;
      continue;
    }
    expect_same_floats(ref_weights, weights, "learned weights");
    ASSERT_EQ(ref_trace.size(), trace.size());
    for (size_t e = 0; e < trace.size(); ++e) {
      ASSERT_EQ(ref_trace[e].train_meta_loss, trace[e].train_meta_loss)
          << "epoch " << e;
      ASSERT_EQ(ref_trace[e].val_loss, trace[e].val_loss) << "epoch " << e;
    }
  }
}

// -- steady-state inner loops are allocation-free ----------------------------

// The pool's free list is capped, so buffers of other shapes left on this
// thread by earlier tests (e.g. the epoch sweep's smaller model) could fill
// it and make the steady state depend on test order. Each steady-state test
// therefore starts from an empty pool and warms it itself.

TEST(TrainFastPathEquivalence, InnerLoopSteadyStateIsAllocationFree) {
  metadse::set_threads(1);
  t::BufferPool::clear();
  t::Rng rng(53);
  nn::TransformerRegressor model(small_cfg(), rng);
  auto clone = model.clone();
  const auto params = clone->parameters();
  t::Rng xr(3);
  auto x = t::Tensor::uniform({5, 24}, xr, 0.0F, 1.0F);
  auto y = t::Tensor::randn({5, 1}, xr);
  nn::Sgd inner(params, 1e-2F);

  auto one_step = [&] {
    inner.zero_grad();
    t::Rng fwd(0);
    auto loss = t::mse_loss(clone->forward(x, fwd, true), y);
    loss.backward();
    inner.clip_and_step(10.0F);
  };
  for (int i = 0; i < 3; ++i) one_step();  // warm the pool

  t::BufferPool::reset_stats();
  for (int i = 0; i < 5; ++i) one_step();
  const auto stats = t::BufferPool::stats();
  EXPECT_EQ(stats.vec_allocated, 0U)
      << "inner step allocated float buffers in steady state";
  EXPECT_EQ(stats.idx_allocated, 0U)
      << "inner step allocated index buffers in steady state";
  EXPECT_EQ(stats.block_allocated, 0U)
      << "inner step allocated arena blocks in steady state";
  EXPECT_GT(stats.vec_reused, 0U);
}

TEST(TrainFastPathEquivalence, AdaptCloneSteadyStateIsAllocationFree) {
  metadse::set_threads(1);
  t::BufferPool::clear();
  t::Rng rng(59);
  nn::TransformerRegressor model(small_cfg(), rng);
  t::Rng xr(3);
  auto sx = t::Tensor::uniform({5, 24}, xr, 0.0F, 1.0F);
  auto sy = t::Tensor::randn({5, 1}, xr);

  // First adaptation warms the pool (clone storage, tape arena, scratch).
  auto warm = meta::MamlTrainer::adapt_clone(model, sx, sy, 5, 1e-2F);
  warm.reset();
  t::BufferPool::reset_stats();
  auto adapted = meta::MamlTrainer::adapt_clone(model, sx, sy, 5, 1e-2F);
  const auto stats = t::BufferPool::stats();
  EXPECT_EQ(stats.vec_allocated, 0U)
      << "adapt_clone allocated float buffers in steady state";
  EXPECT_EQ(stats.block_allocated, 0U)
      << "adapt_clone allocated arena blocks in steady state";
  EXPECT_GT(stats.vec_reused, 0U);
  ASSERT_NE(adapted, nullptr);
}
