// The static-execution-plan contract: a compiled plan changes where
// intermediates live (one static arena, computed once) and which kernel
// bodies run (plan-time fused/specialized instructions) — never the
// arithmetic. Planned predicts, planned inner steps, and whole planned
// meta-training epochs must be bitwise identical to the eager tape at any
// thread count; any shape or mode the compiler rejects must fall back to
// eager with identical results; and steady-state planned predicts must be
// allocation-free (served entirely from the plan's arena).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/chaos.hpp"
#include "core/metadse.hpp"
#include "core/parallel.hpp"
#include "data/dataset.hpp"
#include "meta/maml.hpp"
#include "nn/plan.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "tensor/pool.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace t = metadse::tensor;
namespace nn = metadse::nn;
namespace meta = metadse::meta;
namespace data = metadse::data;
namespace plan = metadse::nn::plan;
namespace tp = metadse::tensor::plan;

namespace {

const std::vector<size_t> kThreadSweep = {1, 2, 8};

struct ThreadGuard {
  ~ThreadGuard() { metadse::set_threads(1); }
};

/// Every suite starts from an empty process-wide registry so plan counters
/// and cache contents are deterministic regardless of test order.
struct RegistryReset {
  RegistryReset() { plan::PlanRegistry::instance().reset(); }
  ~RegistryReset() { plan::PlanRegistry::instance().reset(); }
};

nn::TransformerConfig small_cfg() {
  return {.n_tokens = 24, .d_model = 32, .n_heads = 4,
          .n_layers = 2, .d_ff = 64, .n_outputs = 1};
}

std::vector<std::vector<float>> feature_rows(size_t n, size_t width,
                                             uint64_t seed) {
  t::Rng rng(seed);
  std::vector<std::vector<float>> rows(n, std::vector<float>(width));
  for (auto& r : rows) {
    for (auto& v : r) v = rng.uniform(0.0F, 1.0F);
  }
  return rows;
}

void expect_same_floats(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
  }
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

}  // namespace

// -- planned predicts are bitwise identical to eager, any thread count -------

TEST(PlanEquivalence, PredictOneMatchesEagerAcrossThreads) {
  ThreadGuard guard;
  RegistryReset reset;
  const auto rows = feature_rows(6, 24, 71);
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(41);
    nn::TransformerRegressor model(small_cfg(), rng);
    for (const auto& row : rows) {
      std::vector<float> eager;
      std::vector<float> planned;
      {
        plan::PlanModeGuard off(false);
        eager = model.predict_one(row);
      }
      {
        plan::PlanModeGuard on(true);
        planned = model.predict_one(row);
      }
      expect_same_floats(eager, planned, "predict_one planned vs eager");
    }
  }
}

TEST(PlanEquivalence, PredictBatchMatchesEagerAcrossThreads) {
  ThreadGuard guard;
  RegistryReset reset;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(43);
    nn::TransformerRegressor model(small_cfg(), rng);
    for (size_t batch : {1UL, 5UL, 32UL}) {
      const auto rows = feature_rows(batch, 24, 100 + batch);
      std::vector<std::vector<float>> eager;
      std::vector<std::vector<float>> planned;
      {
        plan::PlanModeGuard off(false);
        eager = model.predict_batch(rows);
      }
      {
        plan::PlanModeGuard on(true);
        planned = model.predict_batch(rows);
      }
      ASSERT_EQ(eager.size(), planned.size());
      for (size_t i = 0; i < eager.size(); ++i) {
        expect_same_floats(eager[i], planned[i],
                           "predict_batch planned vs eager");
      }
    }
  }
}

TEST(PlanEquivalence, PredictWithInstalledMasksMatchesEager) {
  ThreadGuard guard;
  RegistryReset reset;
  t::Rng rng(47);
  nn::TransformerRegressor model(small_cfg(), rng);
  t::Rng mr(5);
  std::vector<float> m(24 * 24);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = (i % 7 == 3) ? 0.0F : mr.uniform(0.05F, 1.0F);
  }
  model.install_mask_all_layers(t::Tensor::from_vector({24, 24}, std::move(m)));
  const auto rows = feature_rows(8, 24, 53);
  std::vector<std::vector<float>> eager;
  std::vector<std::vector<float>> planned;
  {
    plan::PlanModeGuard off(false);
    eager = model.predict_batch(rows);
  }
  {
    plan::PlanModeGuard on(true);
    planned = model.predict_batch(rows);
  }
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], planned[i], "masked predict planned vs eager");
  }
}

// -- the fusion passes fire on the paper predictor ---------------------------

// Planned == eager holds for the generic 1:1 schedule too, so the suites
// above cannot tell whether the fusion passes ran. Pin it on the shape that
// serving compiles: the paper's predictor, WAM masks on every layer, a
// batch-128 predict.
TEST(PlanEquivalence, PaperPredictorPlanFusesMaskedAttention) {
  RegistryReset reset;
  const nn::TransformerConfig cfg = metadse::core::FrameworkOptions().predictor;
  t::Rng rng(59);
  nn::TransformerRegressor model(cfg, rng);
  t::Rng mr(7);
  std::vector<float> m(cfg.n_tokens * cfg.n_tokens);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = (i % 7 == 3) ? 0.0F : mr.uniform(0.05F, 1.0F);
  }
  model.install_mask_all_layers(
      t::Tensor::from_vector({cfg.n_tokens, cfg.n_tokens}, std::move(m)));

  std::string why;
  const auto prog = plan::compile_predict(model, 128, &why);
  ASSERT_NE(prog, nullptr) << why;
  size_t fattn = 0;
  for (const auto& ins : prog->instrs) {
    if (ins.k != tp::IKind::kFAttn) continue;
    ++fattn;
    EXPECT_TRUE(ins.flag) << "fused attention lost its WAM mask";
  }
  EXPECT_EQ(fattn, model.layer_count());
  EXPECT_GT(prog->fused_instrs, 0U);

  // The fp32 key ends at the mask layout: no fusion suffix after it.
  const std::string key = plan::predict_plan_key(model, 128);
  EXPECT_EQ(key.substr(key.rfind(':')),
            ":m" + std::string(model.layer_count(), '1'))
      << key;
}

// -- the paper predictor's schedule is pinned -------------------------------

// `metadse plan-dump --batch 128` prints this schedule; pin it so a change to
// the passes or the executor's instruction set cannot silently reshape the
// program serving runs. The default config is the paper predictor (nt24,
// dm32, h4, l2, ff64) without WAM masks, as plan-dump compiles it.
TEST(PlanEquivalence, PaperPredictorScheduleIsPinned) {
  RegistryReset reset;
  t::Rng rng(61);
  nn::TransformerRegressor model(nn::TransformerConfig{}, rng);
  std::string why;
  const auto prog = plan::compile_predict(model, 128, &why);
  ASSERT_NE(prog, nullptr) << why;

  const std::vector<std::string> want = {
      "fused_embed",              "layer_norm_affine",
      "fused_gemm_bias",          "fused_gemm_bias",
      "fused_gemm_bias",          "fused_attention",
      "fused_gemm_bias_residual", "layer_norm_affine",
      "fused_gemm_bias_gelu",     "fused_gemm_bias_residual",
      "layer_norm_affine",        "fused_gemm_bias",
      "fused_gemm_bias",          "fused_gemm_bias",
      "fused_attention",          "fused_gemm_bias_residual",
      "layer_norm_affine",        "fused_gemm_bias_gelu",
      "fused_gemm_bias_residual", "layer_norm_affine",
      "reduce_axis",              "fused_gemm_bias_gelu",
      "gemm",                     "binary.add"};
  ASSERT_EQ(prog->instrs.size(), want.size());
  // Fusion events: a bias+residual gemm is two (bias, then residual).
  EXPECT_EQ(prog->fused_instrs, 20U);

  // Every gemm the passes left runs at int8; everything else stays fp32.
  const std::vector<size_t> quant = prog->quant_gemms();
  EXPECT_EQ(quant, (std::vector<size_t>{2, 3, 4, 6, 8, 9, 11, 12, 13, 15, 17,
                                        18, 21, 22}));
  for (auto prec : {metadse::tensor::quant::Precision::kFp32,
                    metadse::tensor::quant::Precision::kInt8}) {
    const bool int8 = prec == metadse::tensor::quant::Precision::kInt8;
    std::ostringstream os;
    prog->dump(os, prec);
    std::istringstream lines(os.str());
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(line, "schedule (24 instrs, 20 fused):");
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(std::getline(lines, line)) << "schedule ends at " << i;
      const bool q =
          std::find(quant.begin(), quant.end(), i) != quant.end();
      const std::string head = "  [" + std::to_string(i) + "] " + want[i] +
                               " {" + (int8 && q ? "i8" : "f32") + "} ";
      EXPECT_EQ(line.substr(0, head.size()), head) << line;
    }
  }
}

// -- ops outside the executor's set fall back with identical bits ------------

// The executor runs only the instructions above. A trace that keeps anything
// else declines to compile — an eager op with no instruction poisons the
// trace, and an instruction the passes did not fuse away fails the check
// after them — so the caller runs eager.
TEST(PlanEquivalence, OpsOutsideTheExecutorSetDeclineToCompile) {
  t::Rng rng(67);
  auto x = t::Tensor::uniform({4, 8}, rng, -1.0F, 1.0F);
  auto w = t::Tensor::uniform({8}, rng, -1.0F, 1.0F);
  const std::unordered_map<const t::Node*, tp::LeafBinding> leaves = {
      {x.node().get(), {tp::LeafBinding::Kind::kInput, 0}},
      {w.node().get(), {tp::LeafBinding::Kind::kExternal, 0}}};
  t::NoGradGuard no_grad;
  {
    tp::Tracer tracer;
    const auto y = t::add(t::relu(x), w);
    EXPECT_TRUE(tracer.failed());
    std::string why;
    EXPECT_EQ(tp::compile(tracer, leaves, y.node().get(), &why), nullptr);
    EXPECT_NE(why.find("relu"), std::string::npos) << why;
  }
  {
    tp::Tracer tracer;
    const auto y = t::sub(x, w);
    EXPECT_FALSE(tracer.failed());
    std::string why;
    EXPECT_EQ(tp::compile(tracer, leaves, y.node().get(), &why), nullptr);
    EXPECT_NE(why.find("binary.sub"), std::string::npos) << why;
  }
  // Control: the same shapes through binary.add compile and run bitwise.
  tp::Tracer tracer;
  const auto y = t::add(x, w);
  std::string why;
  const auto prog = tp::compile(tracer, leaves, y.node().get(), &why);
  ASSERT_NE(prog, nullptr) << why;
  tp::ProgramExec exec(prog);
  exec.bind_external(0, w.data().data());
  std::vector<float> out(y.data().size());
  exec.run(x.data().data(), out.data());
  expect_same_floats(y.data(), out, "planned binary.add vs eager");
}

// A predictor whose attention the fusion pass cannot take (more tokens than
// the fused kernel's tile) keeps the unfused head-split permutes and the
// transposed score gemm, which the executor does not run: the predict runs
// eager, bit for bit, and counts one fallback.
TEST(PlanEquivalence, PredictOutsideTheExecutorSetRunsEagerBitwise) {
  ThreadGuard guard;
  RegistryReset reset;
  metadse::set_threads(1);
  const nn::TransformerConfig cfg{.n_tokens = 72, .d_model = 8, .n_heads = 2,
                                  .n_layers = 1, .d_ff = 16, .n_outputs = 1};
  t::Rng rng(71);
  nn::TransformerRegressor model(cfg, rng);
  std::string why;
  EXPECT_EQ(plan::compile_predict(model, 3, &why), nullptr);
  EXPECT_NE(why.find("outside the plan executor's instruction set"),
            std::string::npos)
      << why;

  const auto rows = feature_rows(3, cfg.n_tokens, 73);
  std::vector<std::vector<float>> eager;
  {
    plan::PlanModeGuard off(false);
    eager = model.predict_batch(rows);
  }
  const auto before = plan::PlanRegistry::instance().stats();
  std::vector<std::vector<float>> planned;
  {
    plan::PlanModeGuard on(true);
    planned = model.predict_batch(rows);
  }
  const auto after = plan::PlanRegistry::instance().stats();
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  EXPECT_EQ(after.plans_compiled, before.plans_compiled);
  ASSERT_EQ(eager.size(), planned.size());
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], planned[i], "fallback predict vs eager");
  }
}

// -- planned inner steps: tape replay equals the eager loop ------------------

TEST(PlanEquivalence, TapePlanInnerStepsMatchEagerAcrossThreads) {
  ThreadGuard guard;
  RegistryReset reset;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(59);
    nn::TransformerRegressor base(small_cfg(), rng);
    t::Rng xr(3);
    auto x = t::Tensor::uniform({5, 24}, xr, 0.0F, 1.0F);
    auto y = t::Tensor::randn({5, 1}, xr);

    auto run_loop = [&](bool planned) {
      auto clone = base.clone();
      nn::Sgd inner(clone->parameters(), 1e-2F);
      t::Rng fwd(0);
      plan::PlanModeGuard mode(planned);
      plan::TapePlan tape;
      std::vector<float> losses;
      for (int step = 0; step < 4; ++step) {
        inner.zero_grad();
        float lv = 0.0F;
        if (!planned ||
            !tape.step(*clone, x, y, fwd, lv,
                       /*skip_backward_nonfinite=*/true)) {
          auto loss = t::mse_loss(clone->forward(x, fwd, /*train=*/true), y);
          lv = loss.item();
          loss.backward();
        }
        losses.push_back(lv);
        inner.clip_and_step(10.0F);
      }
      if (planned) {
        EXPECT_TRUE(tape.replaying()) << "tape never validated a capture";
      }
      auto out = clone->flatten_parameters();
      out.insert(out.end(), losses.begin(), losses.end());
      return out;
    };

    expect_same_floats(run_loop(false), run_loop(true),
                       "inner-loop weights+losses planned vs eager");
  }
}

// -- whole meta-training epochs, planned vs eager, thread sweep --------------

TEST(PlanEquivalence, MamlEpochsBitwiseIdenticalPlannedVsEager) {
  ThreadGuard guard;
  RegistryReset reset;
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
    for (bool planned : {true, false}) {
      plan::PlanModeGuard mode(planned);
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
}

// -- unplannable shapes fall back to eager with identical results ------------

TEST(PlanEquivalence, CaptureForcesEagerFallbackWithIdenticalResults) {
  ThreadGuard guard;
  RegistryReset reset;
  metadse::set_threads(1);
  t::Rng rng(61);
  nn::TransformerRegressor model(small_cfg(), rng);
  const auto rows = feature_rows(4, 24, 67);

  std::vector<std::vector<float>> eager;
  {
    plan::PlanModeGuard off(false);
    eager = model.predict_batch(rows);
  }

  // Attention capture records per-forward state the static plan cannot
  // reproduce, so the planner must refuse the trace and run eagerly.
  model.set_capture_attention(true);
  const auto before = plan::PlanRegistry::instance().stats();
  std::vector<std::vector<float>> fallback;
  {
    plan::PlanModeGuard on(true);
    fallback = model.predict_batch(rows);
  }
  const auto after = plan::PlanRegistry::instance().stats();
  model.set_capture_attention(false);

  EXPECT_GT(after.fallbacks, before.fallbacks)
      << "capturing predict was not counted as a fallback";
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], fallback[i], "fallback predict vs eager");
  }

  // With capture back off the same model plans again and still agrees.
  std::vector<std::vector<float>> planned;
  {
    plan::PlanModeGuard on(true);
    planned = model.predict_batch(rows);
  }
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], planned[i], "recovered planned vs eager");
  }
}

// -- plan cache and counters -------------------------------------------------

TEST(PlanEquivalence, RegistrySharesPlansAcrossReplicasAndCountsHits) {
  ThreadGuard guard;
  RegistryReset reset;
  metadse::set_threads(1);
  plan::PlanModeGuard on(true);
  t::Rng rng(73);
  nn::TransformerRegressor model(small_cfg(), rng);
  const auto rows = feature_rows(5, 24, 79);

  (void)model.predict_batch(rows);
  const auto first = plan::PlanRegistry::instance().stats();
  EXPECT_GE(first.plans_compiled, 1U);
  EXPECT_GT(first.static_bytes, 0U);

  // Re-running the same shape and running a same-architecture replica must
  // both be served from the one registered program.
  (void)model.predict_batch(rows);
  auto replica = model.clone();
  (void)replica->predict_batch(rows);
  const auto after = plan::PlanRegistry::instance().stats();
  EXPECT_EQ(after.plans_compiled, first.plans_compiled)
      << "replica recompiled a cached plan shape";
  EXPECT_GE(after.cache_hits, first.cache_hits + 2);
}

// -- steady-state planned predicts never touch the buffer pool ---------------

TEST(PlanEquivalence, PlannedPredictSteadyStateZeroAllocations) {
  ThreadGuard guard;
  RegistryReset reset;
  metadse::set_threads(1);
  plan::PlanModeGuard on(true);
  t::Rng rng(83);
  nn::TransformerRegressor model(small_cfg(), rng);
  const auto rows = feature_rows(16, 24, 89);

  // Warm-up: compiles the plans and sizes their arenas.
  (void)model.predict_batch(rows);
  (void)model.predict_one(rows[0]);

  t::BufferPool::reset_stats();
  for (int i = 0; i < 5; ++i) {
    (void)model.predict_batch(rows);
    (void)model.predict_one(rows[0]);
  }
  const auto stats = t::BufferPool::stats();
  EXPECT_EQ(stats.vec_allocated, 0U)
      << "planned predict allocated float buffers in steady state";
  EXPECT_EQ(stats.idx_allocated, 0U)
      << "planned predict allocated index buffers in steady state";
  EXPECT_EQ(stats.block_allocated, 0U)
      << "planned predict allocated arena blocks in steady state";
  EXPECT_EQ(stats.vec_reused, 0U)
      << "planned predict still cycles pooled buffers (not a static arena)";
  EXPECT_EQ(stats.block_reused, 0U)
      << "planned predict still builds graph nodes";
}

// -- injected compile failure: negative cache + bitwise eager fallback --------

TEST(PlanEquivalence, InjectedCompileFaultNegativeCachesAndFallsBackBitwise) {
  namespace chaos = metadse::core::chaos;
  ThreadGuard guard;
  RegistryReset reset;
  chaos::ChaosEngine::instance().reset();
  metadse::set_threads(1);
  t::Rng rng(97);
  nn::TransformerRegressor model(small_cfg(), rng);
  const auto rows = feature_rows(5, 24, 101);

  std::vector<std::vector<float>> eager;
  {
    plan::PlanModeGuard off(false);
    eager = model.predict_batch(rows);
  }

  // The first (and only) compile attempt for this shape fails by injection.
  chaos::FaultRule rule;  // nth-hit, n = 1
  chaos::ChaosEngine::instance().arm("plan.compile", rule);

  const auto before = plan::PlanRegistry::instance().stats();
  std::vector<std::vector<float>> first;
  {
    plan::PlanModeGuard on(true);
    first = model.predict_batch(rows);
  }
  auto after = plan::PlanRegistry::instance().stats();
  EXPECT_EQ(after.plans_compiled, before.plans_compiled)
      << "a failed compile must not count as compiled";
  EXPECT_GT(after.fallbacks, before.fallbacks);
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], first[i], "faulted compile vs eager");
  }

  // The failure is negative-cached: the same shape never re-attempts the
  // compile (the probe sees no further hits) and keeps serving eager bits.
  const size_t hits_after_first =
      chaos::ChaosEngine::instance().report().at("plan.compile").hits;
  std::vector<std::vector<float>> second;
  {
    plan::PlanModeGuard on(true);
    second = model.predict_batch(rows);
  }
  EXPECT_EQ(chaos::ChaosEngine::instance().report().at("plan.compile").hits,
            hits_after_first)
      << "negative cache must suppress recompile attempts";
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], second[i], "negative-cached vs eager");
  }
  EXPECT_TRUE(chaos::ChaosEngine::instance().all_armed_fired());
  chaos::ChaosEngine::instance().reset();

  // A fresh planner (new model instance) on a healed "disk" compiles fine
  // and still agrees bitwise.
  t::Rng rng2(97);
  nn::TransformerRegressor healed(small_cfg(), rng2);
  std::vector<std::vector<float>> planned;
  {
    plan::PlanModeGuard on(true);
    planned = healed.predict_batch(rows);
  }
  for (size_t i = 0; i < eager.size(); ++i) {
    expect_same_floats(eager[i], planned[i], "healed planned vs eager");
  }
}

// -- concurrent predicts on one shared model ---------------------------------

namespace {

constexpr size_t kHammerThreads = 8;

/// Starts kHammerThreads threads at once on @p model; each runs @p iters
/// predict_batch(rows) calls. Returns true when any result differs from
/// @p eager in any bit.
bool hammer_differs(nn::TransformerRegressor& model,
                    const std::vector<std::vector<float>>& rows,
                    const std::vector<std::vector<float>>& eager,
                    int iters) {
  std::atomic<bool> mismatch{false};
  std::atomic<size_t> start_gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (size_t tid = 0; tid < kHammerThreads; ++tid) {
    threads.emplace_back([&] {
      start_gate.fetch_add(1);
      while (start_gate.load() < kHammerThreads) {}
      for (int iter = 0; iter < iters; ++iter) {
        const auto got = model.predict_batch(rows);
        for (size_t i = 0; i < got.size(); ++i) {
          for (size_t j = 0; j < got[i].size(); ++j) {
            if (got[i][j] != eager[i][j]) mismatch.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  return mismatch.load();
}

}  // namespace

TEST(PlanEquivalence, ConcurrentPredictsStayPlannedWithIdenticalBits) {
  ThreadGuard guard;
  RegistryReset reset;
  metadse::set_threads(1);
  plan::PlanModeGuard on(true);
  t::Rng rng(103);
  nn::TransformerRegressor model(small_cfg(), rng);
  const auto rows = feature_rows(8, 24, 107);

  std::vector<std::vector<float>> eager;
  {
    plan::PlanModeGuard off(false);
    eager = model.predict_batch(rows);
  }
  (void)model.predict_batch(rows);  // warm-up: compile the plan

  // Hammer one model from many threads. Each concurrent caller takes its
  // own bound executor of the shared program, so no predict falls back to
  // eager and every result is the planned (bitwise-eager) one.
  const auto base = plan::PlanRegistry::instance().stats();
  for (int round = 0; round < 10; ++round) {
    ASSERT_FALSE(hammer_differs(model, rows, eager, 20))
        << "a concurrent planned predict diverged from eager bits (round "
        << round << ")";
  }
  const auto after = plan::PlanRegistry::instance().stats();
  EXPECT_EQ(after.fallbacks, base.fallbacks)
      << "a concurrent predict on one model fell back to eager";
  EXPECT_GT(after.cache_hits, base.cache_hits)
      << "concurrent predicts must be served from the compiled plan";
}

TEST(PlanEquivalence, ConcurrentFirstPredictsOnFreshModelMatchEager) {
  ThreadGuard guard;
  RegistryReset reset;
  metadse::set_threads(1);
  const auto rows = feature_rows(8, 24, 109);
  // Every round starts from an empty registry and a model that has never
  // planned, so the hammer's first calls race on the model's planner and on
  // the compile of its first program.
  for (int round = 0; round < 5; ++round) {
    plan::PlanRegistry::instance().reset();
    t::Rng rng(113);
    nn::TransformerRegressor model(small_cfg(), rng);
    std::vector<std::vector<float>> eager;
    {
      plan::PlanModeGuard off(false);
      eager = model.predict_batch(rows);
    }
    EXPECT_FALSE(hammer_differs(model, rows, eager, 1))
        << "a first predict on a fresh shared model diverged from eager "
           "bits (round " << round << ")";
  }
}
