// Static execution plans: trace one eager forward into a fixed op schedule,
// compile it once (fusion passes + static memory plan with buffer
// lifetime/aliasing analysis), then execute it with zero allocations and
// zero graph construction.
//
// Layering: this file is pure mechanism and knows nothing about models. The
// eager ops in ops.cpp call the trace_* hooks (no-ops unless a Tracer is
// installed on this thread), producing a linear SSA record of the forward.
// compile() turns those records plus a caller-supplied leaf binding
// (input / external slots) into an immutable CompiledProgram; ProgramExec
// binds one program to concrete parameter pointers and runs it. The
// executor runs only the instructions the paper predictor's fused schedule
// needs, at fp32 or int8: a trace that keeps anything else declines to
// compile, and the caller runs eager with identical bits. Policy —
// which leaves are parameters, plan keys, caches, the training tape replay —
// lives in nn/plan.hpp.
//
// Bitwise policy: the executor calls the same inline kernels (kernels.hpp)
// as the eager ops, and every fusion pass preserves each output element's
// exact rounding sequence (see DESIGN.md §13), so planned execution is
// bitwise identical to the eager path at any thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace metadse::tensor::plan {

// -- trace records -----------------------------------------------------------

enum class OpKind : uint8_t {
  kConst,
  kBinary,
  kUnary,
  kMatmul,    // flag distinguishes nt
  kSoftmax,
  kSoftmaxMasked,
  kLayerNormAffine,
  kBiasGelu,
  kReduceAll,   // fn: 0 sum, 1 mean
  kReduceAxis,  // fn: 0 sum, 1 mean
  kReshape,
  kPermute,
};

enum class BinFn : uint8_t { kAdd, kSub, kMul, kDiv };
// The one elementwise unary a training tape records (mse_loss). The other
// eager unaries poison a trace (trace_unplannable) instead of recording.
enum class UnFn : uint8_t { kSquare };

/// One traced op. Holds shared_ptrs to its nodes so no-grad intermediates
/// stay alive (and distinguishable by address) until compile() runs; this
/// also disables the rvalue-reshape buffer steal during a trace, which is
/// harmless — the compiler aliases reshapes anyway.
struct TraceRec {
  OpKind kind{};
  uint8_t fn = 0;      // BinFn / UnFn / reduce mean flag
  bool flag = false;   // matmul: nt; reduce_axis: keepdim
  float f0 = 0.0F;     // eps
  size_t axis = 0;     // reduce_axis
  std::vector<size_t> perm;
  std::shared_ptr<Node> out;
  std::shared_ptr<Node> a, b, c;
  // Raw pointers into the pooled backward-closure stashes (normed/inv_std,
  // pre-mask softmax/regularized mass). The training replay refreshes these
  // in place so the captured closures keep seeing current values. Null when
  // the op recorded no stash (no-grad, or operand does not require grad).
  float* stash0 = nullptr;
  float* stash1 = nullptr;
};

/// RAII trace scope: installing a Tracer makes every eager op on this thread
/// append a TraceRec. Single-level (no nesting); the destructor restores the
/// previous (normally null) tracer.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool failed() const { return failed_; }
  const std::string& reason() const { return reason_; }
  std::vector<TraceRec>& records() { return recs_; }
  const std::vector<TraceRec>& records() const { return recs_; }

  /// Marks the trace unusable (op with side effects or untraceable
  /// semantics, e.g. attention capture). Recording continues but compile()
  /// of a failed trace always declines.
  void fail(const std::string& why);

 private:
  friend struct Hooks;
  std::vector<TraceRec> recs_;
  bool failed_ = false;
  std::string reason_;
  Tracer* prev_ = nullptr;
};

namespace detail {
extern thread_local constinit Tracer* g_tracer;
}  // namespace detail

/// True when a Tracer is installed on this thread. This is the only cost the
/// eager fast path pays when no trace is running: one thread-local load.
inline bool tracing() { return detail::g_tracer != nullptr; }

// Out-of-line recorders; the inline wrappers below keep the not-tracing case
// branch-only at every op call site.
struct Hooks {
  static void rec_const(const Tensor& out);
  static void rec_binary(BinFn fn, const Tensor& out, const Tensor& a,
                         const Tensor& b);
  static void rec_unary(UnFn fn, const Tensor& out, const Tensor& a);
  static void rec_matmul(bool nt, const Tensor& out, const Tensor& a,
                         const Tensor& b);
  static void rec_softmax(const Tensor& out, const Tensor& a);
  static void rec_softmax_masked(const Tensor& out, const Tensor& a,
                                 const Tensor& m, float eps, float* ystash,
                                 float* s2stash);
  static void rec_layer_norm_affine(const Tensor& out, const Tensor& x,
                                    const Tensor& g, const Tensor& b,
                                    float eps, float* normed, float* inv_std);
  static void rec_bias_gelu(const Tensor& out, const Tensor& x,
                            const Tensor& b);
  static void rec_reduce_all(bool mean, const Tensor& out, const Tensor& a);
  static void rec_reduce_axis(bool mean, const Tensor& out, const Tensor& a,
                              size_t axis, bool keepdim);
  static void rec_reshape(const Tensor& out, const Tensor& a);
  static void rec_permute(const Tensor& out, const Tensor& a,
                          const std::vector<size_t>& perm);
  static void rec_fail(const char* why);
};

inline void trace_const(const Tensor& out) {
  if (tracing()) Hooks::rec_const(out);
}
inline void trace_binary(BinFn fn, const Tensor& out, const Tensor& a,
                         const Tensor& b) {
  if (tracing()) Hooks::rec_binary(fn, out, a, b);
}
inline void trace_unary(UnFn fn, const Tensor& out, const Tensor& a) {
  if (tracing()) Hooks::rec_unary(fn, out, a);
}
inline void trace_matmul(bool nt, const Tensor& out, const Tensor& a,
                         const Tensor& b) {
  if (tracing()) Hooks::rec_matmul(nt, out, a, b);
}
inline void trace_softmax(const Tensor& out, const Tensor& a) {
  if (tracing()) Hooks::rec_softmax(out, a);
}
inline void trace_softmax_masked(const Tensor& out, const Tensor& a,
                                 const Tensor& m, float eps, float* ystash,
                                 float* s2stash) {
  if (tracing()) Hooks::rec_softmax_masked(out, a, m, eps, ystash, s2stash);
}
inline void trace_layer_norm_affine(const Tensor& out, const Tensor& x,
                                    const Tensor& g, const Tensor& b,
                                    float eps, float* normed, float* inv_std) {
  if (tracing()) {
    Hooks::rec_layer_norm_affine(out, x, g, b, eps, normed, inv_std);
  }
}
inline void trace_bias_gelu(const Tensor& out, const Tensor& x,
                            const Tensor& b) {
  if (tracing()) Hooks::rec_bias_gelu(out, x, b);
}
inline void trace_reduce_all(bool mean, const Tensor& out, const Tensor& a) {
  if (tracing()) Hooks::rec_reduce_all(mean, out, a);
}
inline void trace_reduce_axis(bool mean, const Tensor& out, const Tensor& a,
                              size_t axis, bool keepdim) {
  if (tracing()) Hooks::rec_reduce_axis(mean, out, a, axis, keepdim);
}
inline void trace_reshape(const Tensor& out, const Tensor& a) {
  if (tracing()) Hooks::rec_reshape(out, a);
}
inline void trace_permute(const Tensor& out, const Tensor& a,
                          const std::vector<size_t>& perm) {
  if (tracing()) Hooks::rec_permute(out, a, perm);
}
inline void trace_unplannable(const char* why) {
  if (tracing()) Hooks::rec_fail(why);
}

// -- compiled program --------------------------------------------------------

/// Instruction kinds. The unprefixed kinds are lowered one-to-one from trace
/// records; the kF* set are plan-time fusions of multi-op patterns whose
/// per-element rounding sequences are provably identical to the composed
/// chain (DESIGN.md §13). The executor runs only the paper predictor's set —
/// binary add with a suffix operand, non-transposed gemm, kLayerNormAffine,
/// kReduceAxis and the kF* kinds; the others exist as fusion-pass inputs, and
/// compile() declines a program that still holds one (DESIGN.md §13.1).
enum class IKind : uint8_t {
  kBinary,
  kGemm,            // flag: nt
  kSoftmax,
  kSoftmaxMasked,
  kLayerNormAffine,
  kBiasGelu,
  kReduceAxis,      // mode: 0 sum, 1 mean
  kCopy,
  kPermute,
  kFEmbed,          // out[b,s,:] = x[b,s] * ve[s,:] + pe[s,:] (two roundings)
  kFAttn,           // full attention core on [B,S,H*Dh] projections
  kFGemmBias,       // gemm then += bias row
  kFGemmBiasRes,    // gemm, += bias, residual add
  kFGemmBiasGelu,   // gemm then gelu(acc + bias)
};

/// Where a cell's storage comes from at execution time.
enum class CellKind : uint8_t {
  kTemp,      // arena, offset assigned by the memory planner
  kInput,     // arena, written by run() from the caller's input rows
  kExternal,  // caller-bound pointer (parameters, masks)
  kConst,     // snapshot in CompiledProgram::consts
};

struct Cell {
  CellKind kind = CellKind::kTemp;
  Shape shape;
  size_t size = 0;       // element count
  size_t offset = 0;     // kTemp/kInput: float offset into the arena
  uint32_t slot = 0;     // kExternal: caller slot; kConst: offset into consts
};

/// One instruction over cell ids. All addressing metadata (batch offsets,
/// shapes) is precomputed at compile time; run() only reads it. Field use by
/// kind:
///   kBinary       fn=BinFn, mode 0 same / 1 b-suffix (r0=L, n=numel) /
///                 2 general broadcast (so=out shape)
///   kGemm         m/kk/n, aoff/boff per batch, flag=nt
///   kSoftmax      a only
///   kSoftmaxMasked b=mask, f0=eps
///   kLayerNormAffine m=rows, n=L, f0=eps, b=gamma, c=beta
///   kBiasGelu     n=L, b=bias
///   kReduceAxis   r0=outer, r1=ax, r2=inner, mode=mean
///   kCopy, kPermute  a only (the permutation stays on the Build)
///   kFEmbed       a=x [B,S], b=ve, c=pe, r0=B, r1=S, kk=D
///   kFAttn        a/b/c=q/k/v [B,S,H*Dh], d=mask (flag), m=S, kk=Dh,
///                 n=H*Dh, r0=B, r1=H, f0=scale, f1=eps
///   kFGemmBias*   a=x, b=w, c=bias, d=residual (Res), m/kk/n, aoff/boff
struct Instr {
  IKind k{};
  uint8_t fn = 0;
  uint8_t mode = 0;
  bool flag = false;
  uint32_t out = 0;
  uint32_t a = 0, b = 0, c = 0, d = 0;
  size_t m = 0, kk = 0, n = 0;
  size_t r0 = 0, r1 = 0, r2 = 0;
  float f0 = 0.0F;
  float f1 = 0.0F;
  std::vector<size_t> aoff, boff;
  Shape so;
};

/// How the caller classifies a leaf node of the trace.
struct LeafBinding {
  enum class Kind : uint8_t { kInput, kExternal };
  Kind kind = Kind::kExternal;
  uint32_t slot = 0;
};

/// Immutable compiled plan. Shareable across model replicas: contains no
/// pointers, only cell ids, external slot numbers and snapshot constants.
/// Execution state (arena, bound pointers) lives in ProgramExec.
struct CompiledProgram {
  std::vector<Cell> cells;
  std::vector<Instr> instrs;
  uint32_t input_cell = 0;
  uint32_t output_cell = 0;
  size_t arena_floats = 0;
  size_t n_external = 0;
  std::vector<float> consts;
  Shape in_shape;
  Shape out_shape;
  size_t fused_instrs = 0;  // how many kF* instructions the passes emitted

  /// Static bytes of the plan: arena + constant snapshot.
  size_t static_bytes() const {
    return (arena_floats + consts.size()) * sizeof(float);
  }

  /// Instruction indices of the quantizable GEMMs — plain (non-transposed)
  /// or fused-epilogue gemms whose weight operand is an external cell and
  /// whose batch count is 1 — in schedule order. This ordering is the key
  /// space of an activation calibration table (ProgramExec::set_calibration):
  /// entry i of the table belongs to instruction quant_gemms()[i]. It
  /// depends only on plan structure, so tables are stable across replicas
  /// and batch sizes of one architecture.
  std::vector<size_t> quant_gemms() const;

  /// Static bytes at @p p: the fp32 footprint (the arena is planned in fp32
  /// cells either way) plus, for int8, the quant sidecar — packed weights,
  /// per-column compensation and the quantized-activation scratch.
  size_t static_bytes(quant::Precision p) const;

  /// Human-readable schedule + buffer reuse map (plan-dump CLI). Each
  /// instruction is tagged with the dtype it executes at under @p p
  /// (quantizable gemms run i8, everything else stays f32), and the footer
  /// reports static bytes for both precision tiers.
  void dump(std::ostream& os,
            quant::Precision p = quant::Precision::kFp32) const;
};

/// Compiles a trace into a program. @p leaves maps every leaf node the
/// caller knows about (input, parameters, masks); traced consts are
/// snapshotted automatically. Returns null and sets @p why when the trace
/// failed, hit an unknown leaf, or kept an instruction outside the
/// executor's set after the fusion passes (why names it).
std::shared_ptr<const CompiledProgram> compile(
    const Tracer& tracer,
    const std::unordered_map<const Node*, LeafBinding>& leaves,
    const Node* output, std::string* why);

/// Executes one CompiledProgram against bound external pointers. One
/// instance per (model, plan); the shared program itself is never mutated.
/// run() performs zero heap allocations and builds no graph.
class ProgramExec {
 public:
  explicit ProgramExec(std::shared_ptr<const CompiledProgram> prog);
  ~ProgramExec();
  ProgramExec(const ProgramExec&) = delete;
  ProgramExec& operator=(const ProgramExec&) = delete;

  const CompiledProgram& program() const { return *prog_; }

  /// Binds external slot @p slot to @p p (parameter / mask storage). The
  /// pointer must stay valid across run() calls; rebind after anything that
  /// reallocates the underlying buffer. Rebinding invalidates the packed
  /// quantized weights (they are re-derived on the next reduced-precision
  /// run), so weight quantization happens once per executor in steady state.
  void bind_external(uint32_t slot, const float* p);

  /// Selects the precision tier for subsequent run() calls. fp32 (the
  /// default) is bitwise-identical to the eager path. int8 additionally
  /// requires a calibration table; without one run() executes fp32.
  void set_precision(quant::Precision p);
  quant::Precision precision() const { return precision_; }

  /// Installs the per-quantizable-gemm activation absmax table (schedule
  /// order, see CompiledProgram::quant_gemms). Returns false on a size
  /// mismatch, leaving the exec in fp32-capable state.
  bool set_calibration(std::vector<float> absmax);
  bool has_calibration() const { return calibrated_; }

  /// Calibration capture: while @p out is non-null, run() executes fp32 and
  /// folds each quantizable gemm's activation absmax into (*out)[i]
  /// (max-accumulate; the vector is sized and zeroed on installation).
  /// Pass nullptr to stop capturing.
  void capture_absmax(std::vector<float>* out);

  /// Runs the plan: copies numel(in_shape) floats from @p in, executes the
  /// schedule, copies numel(out_shape) floats to @p out.
  void run(const float* in, float* out);

 private:
  struct QuantGemm;  // packed weight sidecar, one per quantizable gemm
  std::shared_ptr<const CompiledProgram> prog_;
  std::vector<float> arena_;
  std::vector<const float*> external_;
  std::vector<float*> ptrs_;  // per cell, resolved once (externals patched)
  void resolve_();
  bool resolved_ = false;
  quant::Precision precision_ = quant::Precision::kFp32;
  std::vector<float> calib_;
  bool calibrated_ = false;
  std::vector<float>* capture_ = nullptr;
  std::vector<QuantGemm> qgemms_;
  std::vector<uint8_t> qscratch_;  // quantized-activation rows
  bool qready_ = false;
  void prepare_quant_();
};

/// Replicates ops.cpp's batch_offsets without touching the BufferPool:
/// per-batch base offsets for (possibly broadcast) batched matmul operands.
/// Exposed for the training tape replay in nn/plan.cpp.
void batch_offsets_for(const Shape& a_shape, const Shape& b_shape,
                       size_t a_mat, size_t b_mat, std::vector<size_t>& aoff,
                       std::vector<size_t>& boff);

}  // namespace metadse::tensor::plan
