// Reduced-precision serving tier (DESIGN.md §15): int8 weight packing
// against an exact int32 reference
// GEMM, row-partition and attention-group bitwise invariance (the
// thread-count determinism claim), the fast fp32 row kernels against eager
// references, per-precision plan keys, calibration capture + checkpoint
// round-trip (with corruption rejection), the Spearman rank-correlation
// error contract across every workload in the suite at int8, the
// forced-contract-trip fp32 fallback (archive bitwise-identical to a plain
// fp32 run), ServerStats quant accounting, and served int8 fronts that are
// byte-identical at threads 1/2/8.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metadse.hpp"
#include "core/parallel.hpp"
#include "nn/plan.hpp"
#include "nn/serialize.hpp"
#include "nn/transformer.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quant.hpp"

namespace core = metadse::core;
namespace data = metadse::data;
namespace ex = metadse::explore;
namespace nn = metadse::nn;
namespace serve = metadse::serve;
namespace t = metadse::tensor;
namespace q = metadse::tensor::quant;
namespace kern = metadse::tensor::kern;

namespace {

std::vector<float> random_vec(size_t n, uint64_t seed, float lo = -1.0F,
                              float hi = 1.0F) {
  t::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t g;
    uint32_t w;
    std::memcpy(&g, &got[i], 4);
    std::memcpy(&w, &want[i], 4);
    EXPECT_EQ(g, w) << what << " element " << i;
  }
}

void expect_near(const std::vector<float>& got, const std::vector<float>& want,
                 float tol, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << what << " element " << i;
  }
}

}  // namespace

// -- int8 packing and GEMM ----------------------------------------------------

namespace {

/// Scalar reference of the packed-weight quantization contract.
int8_t ref_quant_w(float w, float scale) {
  const long r = lrintf(w / scale);
  return static_cast<int8_t>(r < -127 ? -127 : (r > 127 ? 127 : r));
}

}  // namespace

TEST(QuantInt8, WeightPackingLayoutAndColComp) {
  const size_t K = 5;
  const size_t N = 3;
  const auto w = random_vec(K * N, 21, -2.0F, 2.0F);
  q::QuantizedWeight qw;
  q::quantize_weight_kn(w.data(), K, N, &qw);
  ASSERT_EQ(qw.K, K);
  ASSERT_EQ(qw.N, N);
  ASSERT_EQ(qw.K4, (K + 3) / 4);
  ASSERT_EQ(qw.packed.size(), qw.K4 * 4 * N);
  ASSERT_EQ(qw.col_comp.size(), N);
  EXPECT_FLOAT_EQ(qw.scale, q::scale_for(q::absmax(w.data(), K * N)));
  for (size_t n = 0; n < N; ++n) {
    int32_t colsum = 0;
    for (size_t k = 0; k < qw.K4 * 4; ++k) {
      const int8_t want =
          k < K ? ref_quant_w(w[k * N + n], qw.scale) : int8_t{0};
      EXPECT_EQ(qw.packed[(k / 4) * N * 4 + n * 4 + (k % 4)], want)
          << "k=" << k << " n=" << n;
      colsum += want;
    }
    EXPECT_EQ(qw.col_comp[n], 128 * colsum) << "n=" << n;
  }
}

TEST(QuantInt8, ActQuantClampOffsetAndPadding) {
  const size_t M = 2;
  const size_t K = 5;
  const size_t ldq = 8;  // K4*4 for K=5
  const std::vector<float> a = {0.0F,  1.0F,  -1.0F, 900.0F, -900.0F,
                                0.25F, -0.5F, 2.0F,  -2.0F,  0.49F};
  std::vector<uint8_t> out(M * ldq, 7);
  const float scale = 1.0F;
  q::quantize_act_u8(a.data(), M, K, scale, out.data(), ldq);
  const std::vector<uint8_t> want_row0 = {128, 129, 127, 255, 1, 128, 128, 128};
  const std::vector<uint8_t> want_row1 = {128, 128, 130, 126, 128,
                                          128, 128, 128};
  for (size_t j = 0; j < ldq; ++j) {
    EXPECT_EQ(out[j], want_row0[j]) << "row 0 col " << j;
    EXPECT_EQ(out[ldq + j], want_row1[j]) << "row 1 col " << j;
  }
}

TEST(QuantInt8, GemmMatchesExactInt32Reference) {
  const size_t M = 13;
  const size_t K = 10;
  const size_t N = 19;  // exercises the vector N loop plus a scalar tail
  const auto a = random_vec(M * K, 31, -3.0F, 3.0F);
  const auto w = random_vec(K * N, 32, -1.5F, 1.5F);
  const auto bias = random_vec(N, 33);
  const auto res = random_vec(M * N, 34);

  q::QuantizedWeight qw;
  q::quantize_weight_kn(w.data(), K, N, &qw);
  const float as = q::scale_for(q::absmax(a.data(), M * K));
  const size_t ldq = qw.K4 * 4;
  std::vector<uint8_t> aq(M * ldq);
  q::quantize_act_u8(a.data(), M, K, as, aq.data(), ldq);
  const float dq = as * qw.scale;

  // Exact int32 reference through the same dequant algebra.
  std::vector<float> ref(M * N);
  for (size_t m = 0; m < M; ++m) {
    for (size_t n = 0; n < N; ++n) {
      int32_t acc = 0;
      for (size_t k = 0; k < ldq; ++k) {
        const int8_t wq =
            k < K ? ref_quant_w(w[k * N + n], qw.scale) : int8_t{0};
        acc += static_cast<int32_t>(aq[m * ldq + k]) * wq;
      }
      ref[m * N + n] = static_cast<float>(acc - qw.col_comp[n]) * dq;
    }
  }

  // epi 0 (no epilogue) must reproduce the reference bitwise: int32
  // accumulation is exact, dequant is one fp32 multiply.
  std::vector<float> out(M * N);
  q::gemm_u8s8(aq.data(), ldq, qw, dq, nullptr, nullptr, N, 0, out.data(), 0,
               M);
  expect_bitwise(out, ref, "epi0");

  // Epilogues track the executor's fp32 rounding steps.
  std::vector<float> want(M * N);
  q::gemm_u8s8(aq.data(), ldq, qw, dq, bias.data(), nullptr, N, 1, out.data(),
               0, M);
  for (size_t m = 0; m < M; ++m) {
    for (size_t n = 0; n < N; ++n) want[m * N + n] = ref[m * N + n] + bias[n];
  }
  expect_near(out, want, 1e-5F, "epi1");

  q::gemm_u8s8(aq.data(), ldq, qw, dq, bias.data(), res.data(), N, 2,
               out.data(), 0, M);
  for (size_t m = 0; m < M; ++m) {
    for (size_t n = 0; n < N; ++n) {
      want[m * N + n] = res[m * N + n] + (ref[m * N + n] + bias[n]);
    }
  }
  expect_near(out, want, 1e-5F, "epi2");

  // epi 3 is gelu(bias + x) via the tier's fast row kernel: applying that
  // kernel to the epi-0 output must reproduce the fused path bitwise.
  want = ref;
  for (size_t m = 0; m < M; ++m) {
    q::gelu_bias_row_fast(want.data() + m * N, bias.data(), N);
  }
  q::gemm_u8s8(aq.data(), ldq, qw, dq, bias.data(), nullptr, N, 3, out.data(),
               0, M);
  expect_bitwise(out, want, "epi3 vs gelu_bias_row_fast(epi0)");
}

TEST(QuantInt8, GemmRowPartitionInvariance) {
  const size_t M = 37;
  const size_t K = 32;
  const size_t N = 32;
  const auto a = random_vec(M * K, 41, -2.0F, 2.0F);
  const auto w = random_vec(K * N, 42);
  const auto bias = random_vec(N, 43);
  q::QuantizedWeight qw;
  q::quantize_weight_kn(w.data(), K, N, &qw);
  const float as = q::scale_for(q::absmax(a.data(), M * K));
  const size_t ldq = qw.K4 * 4;
  std::vector<uint8_t> aq(M * ldq);
  q::quantize_act_u8(a.data(), M, K, as, aq.data(), ldq);

  std::vector<float> whole(M * N);
  q::gemm_u8s8(aq.data(), ldq, qw, as * qw.scale, bias.data(), nullptr, N, 3,
               whole.data(), 0, M);
  std::vector<float> split(M * N, -1.0F);
  for (auto [m0, m1] : {std::pair<size_t, size_t>{0, 13},
                        std::pair<size_t, size_t>{13, 29},
                        std::pair<size_t, size_t>{29, 37}}) {
    q::gemm_u8s8(aq.data(), ldq, qw, as * qw.scale, bias.data(), nullptr, N, 3,
                 split.data(), m0, m1);
  }
  expect_bitwise(split, whole, "row-partitioned gemm_u8s8");
}

// -- fast fp32 row kernels ----------------------------------------------------

TEST(QuantKernels, FastRowKernelsTrackEagerMath) {
  const size_t rows = 33;
  const size_t n = 32;
  const auto x = random_vec(rows * n, 61, -4.0F, 4.0F);
  const auto gamma = random_vec(n, 62, 0.5F, 1.5F);
  const auto beta = random_vec(n, 63);
  const float eps = 1e-5F;
  std::vector<float> fast(rows * n);
  q::layer_norm_affine_rows_fast(x.data(), gamma.data(), beta.data(),
                                 fast.data(), rows, n, eps);
  std::vector<float> ref(rows * n);
  for (size_t r = 0; r < rows; ++r) {
    double mu = 0.0;
    for (size_t j = 0; j < n; ++j) mu += x[r * n + j];
    mu /= static_cast<double>(n);
    double var = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double d = x[r * n + j] - mu;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const double rstd = 1.0 / std::sqrt(var + eps);
    for (size_t j = 0; j < n; ++j) {
      ref[r * n + j] = static_cast<float>((x[r * n + j] - mu) * rstd) *
                           gamma[j] +
                       beta[j];
    }
  }
  expect_near(fast, ref, 2e-4F, "layer_norm_affine_rows_fast");

  const size_t gw = 37;  // full lane + masked tail
  auto row = random_vec(gw, 64, -5.0F, 5.0F);
  const auto bias = random_vec(gw, 65);
  std::vector<float> gref(gw);
  for (size_t j = 0; j < gw; ++j) gref[j] = kern::gelu_fwd(row[j] + bias[j]);
  q::gelu_bias_row_fast(row.data(), bias.data(), gw);
  expect_near(row, gref, 2e-5F, "gelu_bias_row_fast");
}

TEST(QuantKernels, FattnTracksEagerAndIsGroupPartitionInvariant) {
  // The planner's fused-attention shapes: B groups of (S=24, Dh=8, H=4).
  const size_t B = 6;
  const size_t S = 24;
  const size_t Dh = 8;
  const size_t H = 4;
  const size_t D = H * Dh;
  const size_t G = B * H;
  const float scale = std::sqrt(static_cast<float>(Dh));
  const float eps = 1e-9F;
  const auto qv = random_vec(B * S * D, 71);
  const auto kv = random_vec(B * S * D, 72);
  const auto vv = random_vec(B * S * D, 73);
  auto mask = random_vec(S * S, 74, 0.0F, 1.0F);
  for (auto& m : mask) m = m > 0.3F ? 1.0F : 0.0F;

  // Eager reference per (batch, head) group via the bitwise row kernels.
  std::vector<float> ref(B * S * D);
  std::vector<float> sc(S * S);
  for (size_t g = 0; g < G; ++g) {
    const size_t bb = g / H;
    const size_t h = g % H;
    const float* qs = qv.data() + bb * S * D + h * Dh;
    const float* ks = kv.data() + bb * S * D + h * Dh;
    const float* vs = vv.data() + bb * S * D + h * Dh;
    float* os = ref.data() + bb * S * D + h * Dh;
    for (size_t m = 0; m < S; ++m) {
      for (size_t n = 0; n < S; ++n) {
        float acc = 0.0F;
        for (size_t d = 0; d < Dh; ++d) {
          acc += qs[m * D + d] * ks[n * D + d];
        }
        sc[m * S + n] = acc / scale;
      }
      kern::softmax_row(sc.data() + m * S, sc.data() + m * S, S);
      kern::masked_renorm_row(sc.data() + m * S, mask.data() + m * S,
                              sc.data() + m * S, S, eps);
    }
    for (size_t m = 0; m < S; ++m) {
      for (size_t d = 0; d < Dh; ++d) {
        float acc = 0.0F;
        for (size_t n = 0; n < S; ++n) {
          acc += sc[m * S + n] * vs[n * D + d];
        }
        os[m * D + d] = acc;
      }
    }
  }

  std::vector<float> out(B * S * D);
  q::fattn_rows_fast(S, Dh, D, H, scale, eps, qv.data(), kv.data(), vv.data(),
                     mask.data(), out.data(), 0, G);
  expect_near(out, ref, 5e-4F, "fattn_rows_fast masked");

  // Group partitioning (what parallel_for_blocks dispatches) is bitwise.
  std::vector<float> split(B * S * D, -1.0F);
  q::fattn_rows_fast(S, Dh, D, H, scale, eps, qv.data(), kv.data(), vv.data(),
                     mask.data(), split.data(), 0, 5);
  q::fattn_rows_fast(S, Dh, D, H, scale, eps, qv.data(), kv.data(), vv.data(),
                     mask.data(), split.data(), 5, 17);
  q::fattn_rows_fast(S, Dh, D, H, scale, eps, qv.data(), kv.data(), vv.data(),
                     mask.data(), split.data(), 17, G);
  expect_bitwise(split, out, "group-partitioned fattn_rows_fast");

  // Unmasked variant against plain softmax rows.
  for (size_t g = 0; g < G; ++g) {
    const size_t bb = g / H;
    const size_t h = g % H;
    const float* qs = qv.data() + bb * S * D + h * Dh;
    const float* ks = kv.data() + bb * S * D + h * Dh;
    const float* vs = vv.data() + bb * S * D + h * Dh;
    float* os = ref.data() + bb * S * D + h * Dh;
    for (size_t m = 0; m < S; ++m) {
      for (size_t n = 0; n < S; ++n) {
        float acc = 0.0F;
        for (size_t d = 0; d < Dh; ++d) {
          acc += qs[m * D + d] * ks[n * D + d];
        }
        sc[m * S + n] = acc / scale;
      }
      kern::softmax_row(sc.data() + m * S, sc.data() + m * S, S);
    }
    for (size_t m = 0; m < S; ++m) {
      for (size_t d = 0; d < Dh; ++d) {
        float acc = 0.0F;
        for (size_t n = 0; n < S; ++n) {
          acc += sc[m * S + n] * vs[n * D + d];
        }
        os[m * D + d] = acc;
      }
    }
  }
  q::fattn_rows_fast(S, Dh, D, H, scale, eps, qv.data(), kv.data(), vv.data(),
                     nullptr, out.data(), 0, G);
  expect_near(out, ref, 5e-4F, "fattn_rows_fast unmasked");
}

// -- planner keys and calibration ---------------------------------------------

namespace {

nn::TransformerConfig small_cfg() {
  return {.n_tokens = 24, .d_model = 32, .n_heads = 4,
          .n_layers = 2, .d_ff = 64, .n_outputs = 1};
}

t::Tensor random_input(size_t batch, size_t n_tokens, uint64_t seed) {
  t::Rng rng(seed);
  return t::Tensor::uniform({batch, n_tokens}, rng, 0.0F, 1.0F);
}

}  // namespace

TEST(QuantPlan, PerPrecisionPlanKeysAreDistinct) {
  t::Rng rng(5);
  nn::TransformerRegressor model(small_cfg(), rng);
  const auto fp32 = nn::plan::predict_plan_key(model, 32);
  const auto int8 =
      nn::plan::predict_plan_key(model, 32, q::Precision::kInt8);
  // fp32 keys carry no precision suffix.
  EXPECT_EQ(fp32.find(":q"), std::string::npos) << fp32;
  EXPECT_NE(int8.find(":q"), std::string::npos) << int8;
  EXPECT_NE(fp32, int8);
  // Keys separate by batch as before.
  EXPECT_NE(int8, nn::plan::predict_plan_key(model, 64, q::Precision::kInt8));
}

TEST(QuantPlan, ParsePrecisionAcceptsOnlyTheTwoTiers) {
  q::Precision p = q::Precision::kInt8;
  ASSERT_TRUE(q::parse_precision("fp32", &p));
  EXPECT_EQ(p, q::Precision::kFp32);
  ASSERT_TRUE(q::parse_precision("int8", &p));
  EXPECT_EQ(p, q::Precision::kInt8);
  // Round trip through the names the CLI and reports print.
  for (auto prec : {q::Precision::kFp32, q::Precision::kInt8}) {
    ASSERT_TRUE(q::parse_precision(q::to_string(prec), &p));
    EXPECT_EQ(p, prec);
  }
  // Anything else is rejected and leaves the output untouched.
  for (const char* bad : {"bf16", "fp16", "INT8", ""}) {
    p = q::Precision::kInt8;
    EXPECT_FALSE(q::parse_precision(bad, &p)) << bad;
    EXPECT_EQ(p, q::Precision::kInt8) << bad;
  }
}

TEST(QuantCalib, CaptureSerializeRoundTripAndCorruption) {
  t::Rng rng(6);
  nn::TransformerRegressor model(small_cfg(), rng);
  EXPECT_FALSE(model.has_quant_calibration());
  const auto x = random_input(8, 24, 9);
  const auto gen0 = model.quant_calibration_gen();
  ASSERT_TRUE(nn::plan::capture_calibration(model, x.data().data(), 8));
  ASSERT_TRUE(model.has_quant_calibration());
  EXPECT_GT(model.quant_calibration_gen(), gen0);
  const auto& table = model.quant_calibration();
  ASSERT_FALSE(table.empty());
  for (float s : table) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 0.0F) << "absmax scales must be positive";
  }
  // Re-capturing on the same support batch is deterministic.
  t::Rng rng2(6);
  nn::TransformerRegressor model2(small_cfg(), rng2);
  ASSERT_TRUE(nn::plan::capture_calibration(model2, x.data().data(), 8));
  expect_bitwise(model2.quant_calibration(), table, "re-captured table");

  const std::string dir = ::testing::TempDir() + "quant_calib";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.calib";
  nn::save_calibration(table, path);
  expect_bitwise(nn::load_calibration(path), table, "calibration round-trip");

  // A truncated sidecar must be rejected, not silently half-loaded.
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() > 5 ? bytes.size() - 5
                                                            : 0));
  }
  EXPECT_THROW((void)nn::load_calibration(path), std::runtime_error);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a calibration table";
  }
  EXPECT_THROW((void)nn::load_calibration(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// -- error contract across the workload suite ---------------------------------

namespace {

core::FrameworkOptions tiny_options() {
  core::FrameworkOptions o;
  o.samples_per_workload = 200;
  o.maml.epochs = 2;
  o.maml.tasks_per_workload = 6;
  o.maml.val_tasks_per_workload = 2;
  o.maml.seed = 3;
  o.seed = 17;
  return o;
}

core::MetaDseFramework& shared_framework() {
  static core::MetaDseFramework* fw = [] {
    auto* f = new core::MetaDseFramework(tiny_options());
    f->pretrain();
    return f;
  }();
  return *fw;
}

data::Dataset support_of(core::MetaDseFramework& fw, const std::string& name,
                         size_t n = 8) {
  const auto& ds = fw.dataset(name);
  data::Dataset support;
  support.workload = name;
  for (size_t i = 0; i < n && i < ds.samples.size(); ++i) {
    support.samples.push_back(ds.samples[i]);
  }
  return support;
}

core::MetaDseFramework::DseOptions small_dse() {
  core::MetaDseFramework::DseOptions opts;
  opts.explorer = {.initial_samples = 8, .iterations = 16,
                   .mutations_per_step = 2, .seed = 13, .eval_batch = 4};
  opts.guard.ipc_min = -128.0;  // a tiny surrogate may dip below zero
  return opts;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// config-id column of a formatted front.
std::set<std::string> front_ids(const std::string& front) {
  std::set<std::string> ids;
  std::istringstream lines(front);
  std::string line;
  while (std::getline(lines, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos) ids.insert(line.substr(0, sp));
  }
  return ids;
}

}  // namespace

TEST(QuantContractSuite, SpearmanHoldsAcrossAllWorkloads) {
  auto& fw = shared_framework();
  const auto& workloads = fw.suite().workloads();
  ASSERT_GE(workloads.size(), 17U);
  for (const auto& wl : workloads) {
    const auto support = support_of(fw, wl.name());
    const auto predictor = fw.adapt_to(support);
    ASSERT_TRUE(predictor.model->has_quant_calibration()) << wl.name();
    const auto contract = core::check_quant_contract(predictor, fw.space(),
                                                     q::Precision::kInt8);
    EXPECT_TRUE(contract.passed) << wl.name() << " rho=" << contract.rho;
    EXPECT_GE(contract.rho, 0.99) << wl.name();
    EXPECT_EQ(contract.n_points, 128U);
    // fp32 trivially passes with perfect rank agreement.
    const auto fp32 = core::check_quant_contract(predictor, fw.space(),
                                                 q::Precision::kFp32);
    EXPECT_TRUE(fp32.passed) << wl.name();
    EXPECT_DOUBLE_EQ(fp32.rho, 1.0) << wl.name();
  }
}

TEST(QuantContractSuite, ForcedTripFallsBackToBitwiseFp32Run) {
  auto& fw = shared_framework();
  const std::string workload = "605.mcf_s";
  const auto support = support_of(fw, workload);
  const auto predictor = fw.adapt_to(support);

  auto opts = small_dse();
  const auto fp32_archive = fw.run_dse(predictor, support, workload, opts);
  EXPECT_FALSE(fw.run_report().quant_contract_tripped);
  const auto fp32_front = serve::MetaDseSessionEngine::format_front(
      fw.space(), fp32_archive);

  // min_rho = 1.1 is unsatisfiable (rho <= 1), so the contract must trip
  // and the run must serve fp32 — bitwise-identical to the plain fp32 run.
  opts.precision = q::Precision::kInt8;
  opts.quant_contract_min_rho = 1.1;
  const auto tripped_archive = fw.run_dse(predictor, support, workload, opts);
  EXPECT_TRUE(fw.run_report().quant_contract_tripped);
  EXPECT_EQ(serve::MetaDseSessionEngine::format_front(fw.space(),
                                                      tripped_archive),
            fp32_front);

  // With the real threshold the contract holds. Rank agreement at rho >=
  // 0.99 does not pin every Pareto dominance decision on near-tied points,
  // so the quantized front is required to share a majority of the fp32
  // design points, not the exact set (the engine-level fixture below holds
  // the exact set for its adapted model).
  opts.quant_contract_min_rho = 0.99;
  const auto int8_archive = fw.run_dse(predictor, support, workload, opts);
  EXPECT_FALSE(fw.run_report().quant_contract_tripped);
  const auto int8_ids = front_ids(serve::MetaDseSessionEngine::format_front(
      fw.space(), int8_archive));
  const auto fp32_ids = front_ids(fp32_front);
  size_t shared = 0;
  for (const auto& id : int8_ids) shared += fp32_ids.count(id);
  EXPECT_GE(2 * shared, fp32_ids.size())
      << "int8 front shares " << shared << "/" << fp32_ids.size()
      << " fp32 design points";
}

// -- serving integration ------------------------------------------------------

TEST(QuantServe, ServerStatsCountQuantizedAndFallbackSessions) {
  serve::ServeOptions options;
  options.replicas = 1;
  options.workers = 1;
  options.queue_capacity = 8;
  options.degrade_at = 2.0;
  options.watchdog_period_ms = 0;
  serve::SessionExecutor executor =
      [](const serve::SessionRequest& r,
         const serve::ExecContext&) -> serve::ExecResult {
    serve::ExecResult out;
    if (r.id % 2 == 0) {
      out.quantized = true;
    } else {
      out.quant_fallback = true;  // requested a tier, contract tripped
    }
    return out;
  };
  serve::ServerCore server(options, executor);
  std::vector<std::future<serve::SessionResult>> futures;
  for (uint64_t id = 0; id < 4; ++id) {
    serve::SessionRequest r;
    r.id = id;
    r.seed = id;
    futures.push_back(server.submit(r));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::SessionStatus::kOk);
  }
  server.stop(serve::ServerCore::StopMode::kDrain);
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 4U);
  EXPECT_EQ(s.quant_sessions, 2U);
  EXPECT_EQ(s.quant_fallbacks, 2U);
}

namespace {

constexpr size_t kQuantSessions = 2;

/// Runs kQuantSessions engine sessions at @p precision and returns the
/// concatenated front + journal bytes (the coalesce test's discipline).
std::string run_quant_sessions(core::MetaDseFramework& fw,
                               const data::Dataset& support,
                               q::Precision precision, size_t session_threads,
                               const std::string& dir, size_t* quantized) {
  std::filesystem::create_directories(dir);
  serve::MetaDseSessionEngine::Options opts;
  opts.dse = small_dse();
  opts.dse.precision = precision;
  opts.front_dir = dir;
  serve::MetaDseSessionEngine engine(fw, kQuantSessions, opts);
  engine.add_workload(support.workload, support);
  auto executor = engine.executor();

  // Every session predicts on the workload's one adapted model; concurrent
  // use must never push a forward off the plan.
  auto& plans = nn::plan::PlanRegistry::instance();
  const uint64_t fallbacks_before = plans.stats().fallbacks;
  std::atomic<size_t> next{0};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> served_quantized{0};
  std::vector<std::thread> threads;
  for (size_t tix = 0; tix < session_threads; ++tix) {
    threads.emplace_back([&] {
      core::SerialRegionGuard serial;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= kQuantSessions) return;
        serve::SessionRequest request;
        request.id = i;
        request.workload = support.workload;
        request.seed = 100 + i;
        request.journal_path = dir + "/s" + std::to_string(i) + ".journal";
        serve::ExecContext ctx;
        ctx.replica = i;
        ctx.budget = std::make_shared<ex::DeadlineBudget>(0);  // unlimited
        try {
          const auto exec = executor(request, ctx);
          EXPECT_FALSE(exec.quant_fallback)
              << "session " << i << ": contract must hold on this fixture";
          if (exec.quantized) served_quantized.fetch_add(1);
        } catch (...) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0U);
  EXPECT_EQ(plans.stats().fallbacks, fallbacks_before)
      << "a session on the shared model fell back to eager (threads="
      << session_threads << ")";
  if (quantized != nullptr) *quantized = served_quantized.load();

  std::string bytes;
  for (size_t i = 0; i < kQuantSessions; ++i) {
    bytes += slurp(dir + "/front_" + std::to_string(i) + ".txt");
    bytes += slurp(dir + "/s" + std::to_string(i) + ".journal");
  }
  return bytes;
}

}  // namespace

TEST(QuantServe, Int8FrontsAreThreadInvariantAndShareFp32DesignPoints) {
  auto& fw = shared_framework();
  const auto support = support_of(fw, "605.mcf_s");

  const std::string base = ::testing::TempDir() + "quant_serve";
  std::filesystem::remove_all(base);

  size_t fp32_quantized = ~size_t{0};
  const std::string fp32_bytes =
      run_quant_sessions(fw, support, q::Precision::kFp32, 1, base + "/fp32",
                         &fp32_quantized);
  ASSERT_FALSE(fp32_bytes.empty());
  EXPECT_EQ(fp32_quantized, 0U) << "fp32 sessions never count as quantized";

  const size_t saved_threads = core::threads();
  std::string reference;
  for (size_t threads : {1U, 2U, 8U}) {
    core::set_threads(threads);
    size_t quantized = 0;
    const std::string got = run_quant_sessions(
        fw, support, q::Precision::kInt8, threads,
        base + "/int8_t" + std::to_string(threads), &quantized);
    EXPECT_EQ(quantized, kQuantSessions)
        << "every int8 session must serve quantized (threads=" << threads
        << ")";
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference)
          << "int8 fronts/journals must be byte-identical at threads="
          << threads;
    }
  }
  core::set_threads(saved_threads);
  ASSERT_FALSE(reference.empty());

  // The quantized tier publishes the same design points the fp32 search
  // finds (the contract's rank-agreement bar, observed end to end).
  const std::string fp32_front = slurp(base + "/fp32/front_0.txt");
  const std::string int8_front = slurp(base + "/int8_t1/front_0.txt");
  EXPECT_EQ(front_ids(int8_front), front_ids(fp32_front));
  std::filesystem::remove_all(base);
}
