// Reduced-precision serving kernels: bf16 storage conversion and per-tensor
// symmetric int8 quantization with i8×i8→i32 GEMM panels (fp32 dequant
// epilogue). Opt-in via the thread-local PrecisionMode policy (scoped by
// PrecisionModeGuard): fp32 stays the default and remains bitwise-governed by
// the kernels.hpp contract; bf16/int8 trade bitwise equality for throughput
// under an explicit rank-correlation error contract (DESIGN.md §15).
//
// Determinism: the int8 path accumulates in exact int32 arithmetic (order-
// independent) and the bf16 path keeps fp32 accumulation in a fixed
// ascending-k order per output element, so both produce identical bits at
// any thread count — the threads-1/2/8 equivalence discipline survives even
// though the values differ from fp32.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace metadse::tensor::quant {

/// Numeric tier of a planned forward. fp32 is the bitwise reference; bf16
/// stores weights in bfloat16 (fp32 accumulate); int8 runs quantized GEMMs
/// against a calibrated per-tensor activation scale.
enum class Precision : uint8_t { kFp32 = 0, kBf16 = 1, kInt8 = 2 };

const char* to_string(Precision p);
/// Parses "fp32" / "bf16" / "int8"; returns false on anything else.
bool parse_precision(const std::string& s, Precision* out);

/// Thread-local precision policy consulted by the predict planner; fp32 by
/// default. Training and equivalence paths never read it.
class PrecisionMode {
 public:
  static Precision mode();
  static void set_mode(Precision p);
};

/// RAII scope for PrecisionMode (serving sessions, benches, tests). Nests.
class PrecisionModeGuard {
 public:
  explicit PrecisionModeGuard(Precision p) : prev_(PrecisionMode::mode()) {
    PrecisionMode::set_mode(p);
  }
  ~PrecisionModeGuard() { PrecisionMode::set_mode(prev_); }
  PrecisionModeGuard(const PrecisionModeGuard&) = delete;
  PrecisionModeGuard& operator=(const PrecisionModeGuard&) = delete;

 private:
  Precision prev_;
};

// -- bf16 storage conversion -------------------------------------------------

/// fp32 -> bf16 with round-to-nearest-even; NaNs are quieted so a payload
/// truncated to zero cannot turn a NaN into Inf.
inline uint16_t bf16_from_f32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits & 0x7F800000U) == 0x7F800000U && (bits & 0x007FFFFFU) != 0U) {
    return static_cast<uint16_t>((bits >> 16) | 0x0040U);
  }
  const uint32_t rounding = 0x7FFFU + ((bits >> 16) & 1U);
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

inline float f32_from_bf16(uint16_t v) {
  const uint32_t bits = static_cast<uint32_t>(v) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

void bf16_encode(const float* src, size_t n, uint16_t* dst);
void bf16_decode(const uint16_t* src, size_t n, float* dst);

/// bf16-stored weight matrix, row-major [K, N].
struct Bf16Weight {
  size_t K = 0;
  size_t N = 0;
  std::vector<uint16_t> w;

  size_t bytes() const { return w.size() * sizeof(uint16_t); }
};

void bf16_pack_weight(const float* w, size_t K, size_t N, Bf16Weight* out);

// -- int8 quantization -------------------------------------------------------

float absmax(const float* x, size_t n);

/// Per-tensor symmetric scale mapping |x| <= amax onto [-127, 127].
inline float scale_for(float amax) { return amax > 0.0F ? amax / 127.0F : 1.0F; }

/// Per-tensor symmetric int8 weight, packed for 4-way dot products:
/// packed[(k/4)*N*4 + n*4 + (k%4)] holds w_q[k][n], with k padded to a
/// multiple of 4 by zeros. col_comp[n] = 128 * sum_k w_q[k][n] removes the
/// +128 offset the u8 activation encoding introduces (see gemm_u8s8).
struct QuantizedWeight {
  size_t K = 0;
  size_t N = 0;
  size_t K4 = 0;  ///< ceil(K/4): packed k-groups
  float scale = 0.0F;
  std::vector<int8_t> packed;
  std::vector<int32_t> col_comp;

  size_t bytes() const {
    return packed.size() + col_comp.size() * sizeof(int32_t);
  }
};

/// Quantizes a row-major [K, N] fp32 weight (absmax calibration over the
/// whole tensor) into the packed layout above.
void quantize_weight_kn(const float* w, size_t K, size_t N,
                        QuantizedWeight* out);

/// Quantizes fp32 activation rows [M, K] into offset-u8 rows [M, K4*4]:
/// q = clamp(round(x / scale), -127, 127) + 128, padding bytes 128 (== 0
/// after offset removal). @p ldq must be K4*4 of the matching weight.
void quantize_act_u8(const float* a, size_t M, size_t K, float scale,
                     uint8_t* out, size_t ldq);

/// Rows [m0, m1) of O[M, N] = dequant(A_q × W_q) with the plan executor's
/// fp32 epilogue rounding steps (epi 0: none, 1: +bias, 2: +bias then
/// +residual, 3: gelu(+bias)). @p dq = act_scale * w.scale. Accumulation is
/// exact int32, so the result is independent of row partitioning.
void gemm_u8s8(const uint8_t* aq, size_t ldq, const QuantizedWeight& w,
               float dq, const float* bias, const float* res, size_t ldr,
               int epi, float* o, size_t m0, size_t m1);

/// Rows [m0, m1) of O[M, N] = A[M, K] × bf16(W)[K, N], fp32 FMA accumulate
/// in ascending-k order, same epilogue contract as gemm_u8s8.
void gemm_bf16(const float* a, const Bf16Weight& w, const float* bias,
               const float* res, size_t ldr, int epi, float* o, size_t m0,
               size_t m1);

// -- fast fp32 row kernels (reduced-precision tiers only) --------------------
//
// The ops below compute in fp32 but vectorize with reassociated reductions
// and a vector exp, so their final-ulp rounding differs from the bitwise
// eager kernels. They run ONLY when a quantized tier is active — the tier's
// rank-correlation error contract covers them — never on the fp32 path.
// Each row is processed in a fixed lane order by exactly one caller, so
// results are deterministic and thread-count-invariant.

/// In-place gelu(row + bias) over one output row (the epi-3 epilogue).
void gelu_bias_row_fast(float* row, const float* bias, size_t n);

/// Affine layer norm over @p rows contiguous rows of width @p n:
/// o = (x - mean)/sqrt(var + eps) * gamma + beta.
void layer_norm_affine_rows_fast(const float* x, const float* gamma,
                                 const float* beta, float* o, size_t rows,
                                 size_t n, float eps);

/// Attention groups [g0, g1) over [B, S, H*Dh] projections (group g =
/// (batch, head) pair, same layout as the planner's fused attention op):
/// scores = q·kᵀ/scale, softmax, optional mask renorm (eps-regularized),
/// then ctx = p·v written back strided into the merged [S, H*Dh] output.
void fattn_rows_fast(size_t S, size_t Dh, size_t D, size_t H, float scale,
                     float eps, const float* q, const float* k,
                     const float* v, const float* mask, float* o, size_t g0,
                     size_t g1);

}  // namespace metadse::tensor::quant
