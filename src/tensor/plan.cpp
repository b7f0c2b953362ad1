#include "tensor/plan.hpp"

#include <algorithm>
#include <ostream>

#include "core/parallel.hpp"
#include "tensor/kernels.hpp"

namespace metadse::tensor::plan {

namespace detail {
thread_local constinit Tracer* g_tracer = nullptr;
}  // namespace detail

// -- tracer ------------------------------------------------------------------

Tracer::Tracer() {
  prev_ = detail::g_tracer;
  detail::g_tracer = this;
}

Tracer::~Tracer() { detail::g_tracer = prev_; }

void Tracer::fail(const std::string& why) {
  if (!failed_) {
    failed_ = true;
    reason_ = why;
  }
}

namespace {

TraceRec& push(OpKind kind, const Tensor& out) {
  Tracer* t = detail::g_tracer;
  t->records().emplace_back();
  TraceRec& r = t->records().back();
  r.kind = kind;
  r.out = out.node();
  return r;
}

}  // namespace

void Hooks::rec_const(const Tensor& out) { push(OpKind::kConst, out); }

void Hooks::rec_binary(BinFn fn, const Tensor& out, const Tensor& a,
                       const Tensor& b) {
  TraceRec& r = push(OpKind::kBinary, out);
  r.fn = static_cast<uint8_t>(fn);
  r.a = a.node();
  r.b = b.node();
}

void Hooks::rec_unary(UnFn fn, const Tensor& out, const Tensor& a) {
  TraceRec& r = push(OpKind::kUnary, out);
  r.fn = static_cast<uint8_t>(fn);
  r.a = a.node();
}

void Hooks::rec_matmul(bool nt, const Tensor& out, const Tensor& a,
                       const Tensor& b) {
  TraceRec& r = push(OpKind::kMatmul, out);
  r.flag = nt;
  r.a = a.node();
  r.b = b.node();
}

void Hooks::rec_softmax(const Tensor& out, const Tensor& a) {
  TraceRec& r = push(OpKind::kSoftmax, out);
  r.a = a.node();
}

void Hooks::rec_softmax_masked(const Tensor& out, const Tensor& a,
                               const Tensor& m, float eps, float* ystash,
                               float* s2stash) {
  TraceRec& r = push(OpKind::kSoftmaxMasked, out);
  r.a = a.node();
  r.b = m.node();
  r.f0 = eps;
  r.stash0 = ystash;
  r.stash1 = s2stash;
}

void Hooks::rec_layer_norm_affine(const Tensor& out, const Tensor& x,
                                  const Tensor& g, const Tensor& b, float eps,
                                  float* normed, float* inv_std) {
  TraceRec& r = push(OpKind::kLayerNormAffine, out);
  r.a = x.node();
  r.b = g.node();
  r.c = b.node();
  r.f0 = eps;
  r.stash0 = normed;
  r.stash1 = inv_std;
}

void Hooks::rec_bias_gelu(const Tensor& out, const Tensor& x,
                          const Tensor& b) {
  TraceRec& r = push(OpKind::kBiasGelu, out);
  r.a = x.node();
  r.b = b.node();
}

void Hooks::rec_reduce_all(bool mean, const Tensor& out, const Tensor& a) {
  TraceRec& r = push(OpKind::kReduceAll, out);
  r.fn = mean ? 1 : 0;
  r.a = a.node();
}

void Hooks::rec_reduce_axis(bool mean, const Tensor& out, const Tensor& a,
                            size_t axis, bool keepdim) {
  TraceRec& r = push(OpKind::kReduceAxis, out);
  r.fn = mean ? 1 : 0;
  r.a = a.node();
  r.axis = axis;
  r.flag = keepdim;
}

void Hooks::rec_reshape(const Tensor& out, const Tensor& a) {
  TraceRec& r = push(OpKind::kReshape, out);
  r.a = a.node();
}

void Hooks::rec_permute(const Tensor& out, const Tensor& a,
                        const std::vector<size_t>& perm) {
  TraceRec& r = push(OpKind::kPermute, out);
  r.a = a.node();
  r.perm = perm;
}

void Hooks::rec_fail(const char* why) { detail::g_tracer->fail(why); }

// -- shared helpers ----------------------------------------------------------

void batch_offsets_for(const Shape& a_shape, const Shape& b_shape,
                       size_t a_mat, size_t b_mat, std::vector<size_t>& aoff,
                       std::vector<size_t>& boff) {
  if (a_shape.size() == 2 && b_shape.size() == 2) {
    aoff.assign(1, 0);
    boff.assign(1, 0);
    return;
  }
  const Shape a_batch(a_shape.begin(), a_shape.end() - 2);
  const Shape b_batch(b_shape.begin(), b_shape.end() - 2);
  const Shape batch = broadcast_shape(a_batch, b_batch);
  const auto sa = broadcast_strides(a_batch, batch);
  const auto sb = broadcast_strides(b_batch, batch);
  const size_t nb = numel(batch);
  aoff.assign(nb, 0);
  boff.assign(nb, 0);
  std::vector<size_t> idx(batch.size(), 0);
  for (size_t i = 0; i < nb; ++i) {
    size_t oa = 0;
    size_t ob = 0;
    for (size_t d = 0; d < batch.size(); ++d) {
      oa += idx[d] * sa[d];
      ob += idx[d] * sb[d];
    }
    aoff[i] = oa * a_mat;
    boff[i] = ob * b_mat;
    for (size_t d = batch.size(); d-- > 0;) {
      if (++idx[d] < batch[d]) break;
      idx[d] = 0;
    }
  }
}

namespace {

constexpr size_t kAlignFloats = 16;     // 64-byte arena alignment
constexpr size_t kAttnMaxS = 64;        // kFAttn stack-tile bounds
constexpr size_t kAttnMaxDh = 32;

size_t align_up(size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

bool is_trailing_suffix(const Shape& small, const Shape& big) {
  if (small.size() > big.size()) return false;
  const size_t d0 = big.size() - small.size();
  for (size_t d = 0; d < small.size(); ++d) {
    if (small[d] != big[d0 + d]) return false;
  }
  return true;
}

/// Mutable program state the compile passes operate on.
struct Build {
  std::vector<Cell> cells;
  std::vector<Instr> instrs;
  std::vector<std::vector<size_t>> perms;  // per instr: kPermute's perm
  std::vector<uint32_t> root;              // alias union: cell -> storage root
  std::vector<float> consts;
  uint32_t input_cell = 0;
  uint32_t output_cell = 0;
  size_t n_external = 0;
  size_t fused = 0;

  uint32_t resolve(uint32_t v) const {
    while (root[v] != v) v = root[v];
    return v;
  }
};

template <typename F>
void for_each_in(const Instr& ins, F&& f) {
  switch (ins.k) {
    case IKind::kSoftmax:
    case IKind::kReduceAxis:
    case IKind::kCopy:
    case IKind::kPermute:
      f(ins.a);
      break;
    case IKind::kBinary:
    case IKind::kGemm:
    case IKind::kSoftmaxMasked:
    case IKind::kBiasGelu:
      f(ins.a);
      f(ins.b);
      break;
    case IKind::kLayerNormAffine:
    case IKind::kFEmbed:
    case IKind::kFGemmBias:
    case IKind::kFGemmBiasGelu:
      f(ins.a);
      f(ins.b);
      f(ins.c);
      break;
    case IKind::kFGemmBiasRes:
      f(ins.a);
      f(ins.b);
      f(ins.c);
      f(ins.d);
      break;
    case IKind::kFAttn:
      f(ins.a);
      f(ins.b);
      f(ins.c);
      if (ins.flag) f(ins.d);
      break;
  }
}

/// Producer instr / reader instrs per storage root, recomputed per pass.
struct Analysis {
  std::vector<int> producer;               // per cell root, instr idx or -1
  std::vector<std::vector<int>> readers;   // per cell root, instr idxs
  size_t uses(const Build& b, uint32_t cell) const {
    uint32_t r = b.resolve(cell);
    return readers[r].size() + (b.resolve(b.output_cell) == r ? 1 : 0);
  }
};

Analysis analyze(const Build& b) {
  Analysis an;
  an.producer.assign(b.cells.size(), -1);
  an.readers.assign(b.cells.size(), {});
  for (size_t i = 0; i < b.instrs.size(); ++i) {
    an.producer[b.resolve(b.instrs[i].out)] = static_cast<int>(i);
    for_each_in(b.instrs[i], [&](uint32_t v) {
      an.readers[b.resolve(v)].push_back(static_cast<int>(i));
    });
  }
  return an;
}

/// The single reader of @p cell, or -1 if it has != 1 readers or is also the
/// program output.
int sole_reader(const Build& b, const Analysis& an, uint32_t cell) {
  const uint32_t r = b.resolve(cell);
  if (an.readers[r].size() != 1) return -1;
  if (b.resolve(b.output_cell) == r) return -1;
  return an.readers[r][0];
}

void erase_instrs(Build& b, const std::vector<size_t>& idxs) {
  std::vector<char> dead(b.instrs.size(), 0);
  for (size_t i : idxs) dead[i] = 1;
  std::vector<Instr> ni;
  std::vector<std::vector<size_t>> np;
  ni.reserve(b.instrs.size());
  np.reserve(b.instrs.size());
  for (size_t i = 0; i < b.instrs.size(); ++i) {
    if (!dead[i]) {
      ni.push_back(std::move(b.instrs[i]));
      np.push_back(std::move(b.perms[i]));
    }
  }
  b.instrs = std::move(ni);
  b.perms = std::move(np);
}

// -- lowering ----------------------------------------------------------------

/// Lowers one trace record into an instruction. Returns false (with @p why)
/// for records no instruction exists for.
bool lower(Build& b, const TraceRec& rec, uint32_t out, uint32_t va,
           uint32_t vb, uint32_t vc, std::string* why) {
  Instr ins;
  ins.out = out;
  ins.a = va;
  ins.b = vb;
  ins.c = vc;
  const Shape& as = rec.a ? rec.a->shape : Shape{};
  switch (rec.kind) {
    case OpKind::kConst:
      return true;  // no instruction; value snapshotted in the cell
    case OpKind::kBinary: {
      ins.k = IKind::kBinary;
      ins.fn = rec.fn;
      const Shape& bs = rec.b->shape;
      if (as == bs) {
        ins.mode = 0;
      } else if (numel(bs) != 0 && is_trailing_suffix(bs, as)) {
        ins.mode = 1;
        ins.n = numel(as);
        ins.r0 = numel(bs);
      } else {
        ins.mode = 2;
        ins.so = rec.out->shape;
      }
      break;
    }
    case OpKind::kUnary:
    case OpKind::kReduceAll:
      // recorded only for the training tape's loss (square, mean)
      *why = std::string(rec.kind == OpKind::kUnary ? "unary" : "reduce_all") +
             " is outside the plan executor's instruction set";
      return false;
    case OpKind::kMatmul: {
      ins.k = IKind::kGemm;
      ins.flag = rec.flag;
      const Shape& bs = rec.b->shape;
      ins.m = as[as.size() - 2];
      ins.kk = as[as.size() - 1];
      ins.n = rec.flag ? bs[bs.size() - 2] : bs[bs.size() - 1];
      const size_t b_mat = ins.kk * ins.n;
      batch_offsets_for(as, bs, ins.m * ins.kk, b_mat, ins.aoff, ins.boff);
      break;
    }
    case OpKind::kSoftmax:
      ins.k = IKind::kSoftmax;
      break;
    case OpKind::kSoftmaxMasked:
      ins.k = IKind::kSoftmaxMasked;
      ins.f0 = rec.f0;
      break;
    case OpKind::kLayerNormAffine:
      ins.k = IKind::kLayerNormAffine;
      ins.n = as.back();
      ins.m = numel(as) / ins.n;
      ins.f0 = rec.f0;
      break;
    case OpKind::kBiasGelu:
      ins.k = IKind::kBiasGelu;
      ins.n = as.back();
      break;
    case OpKind::kReduceAxis: {
      ins.k = IKind::kReduceAxis;
      ins.mode = rec.fn;
      size_t outer = 1;
      size_t inner = 1;
      for (size_t d = 0; d < rec.axis; ++d) outer *= as[d];
      for (size_t d = rec.axis + 1; d < as.size(); ++d) inner *= as[d];
      ins.r0 = outer;
      ins.r1 = as[rec.axis];
      ins.r2 = inner;
      break;
    }
    case OpKind::kReshape:
      ins.k = IKind::kCopy;
      break;
    case OpKind::kPermute:
      ins.k = IKind::kPermute;
      break;
  }
  b.instrs.push_back(std::move(ins));
  b.perms.push_back(rec.perm);
  return true;
}

// -- fusion passes -----------------------------------------------------------

/// Reshape outputs alias their input's storage (same numel, same layout):
/// zero-copy views, removed from the schedule.
void pass_alias_reshapes(Build& b) {
  std::vector<size_t> dead;
  for (size_t i = 0; i < b.instrs.size(); ++i) {
    if (b.instrs[i].k == IKind::kCopy) {
      b.root[b.instrs[i].out] = b.resolve(b.instrs[i].a);
      dead.push_back(i);
    }
  }
  erase_instrs(b, dead);
}

bool perm_is_0213(const std::vector<size_t>& p) {
  return p.size() == 4 && p[0] == 0 && p[1] == 2 && p[2] == 1 && p[3] == 3;
}

/// Matches the attention core — three head-split permutes feeding
/// scores = softmax[(q k^T)/c] (optionally masked), ctx = scores*v, and the
/// head-merge permute — and replaces all of it with one kFAttn instruction
/// that reads the q/k/v projections [B,S,H*Dh] directly via strides and
/// writes the merged context strided. Every eliminated op was pure data
/// movement or is reproduced with the identical per-element rounding
/// sequence inside the fused kernel.
void pass_fuse_attention(Build& b) {
  bool changed = true;
  while (changed) {
    changed = false;
    Analysis an = analyze(b);
    for (size_t i = 0; i < b.instrs.size() && !changed; ++i) {
      Instr& mm = b.instrs[i];
      if (mm.k != IKind::kGemm || !mm.flag) continue;
      // producers of q/k must be 0213 head-split permutes, solely consumed
      const int pq = an.producer[b.resolve(mm.a)];
      const int pk = an.producer[b.resolve(mm.b)];
      if (pq < 0 || pk < 0) continue;
      if (b.instrs[pq].k != IKind::kPermute || !perm_is_0213(b.perms[pq])) {
        continue;
      }
      if (b.instrs[pk].k != IKind::kPermute || !perm_is_0213(b.perms[pk])) {
        continue;
      }
      if (sole_reader(b, an, b.instrs[pq].out) != static_cast<int>(i)) continue;
      if (sole_reader(b, an, b.instrs[pk].out) != static_cast<int>(i)) continue;
      // scores -> div by const scalar
      const int di = sole_reader(b, an, mm.out);
      if (di < 0) continue;
      const Instr& dv = b.instrs[di];
      if (dv.k != IKind::kBinary || dv.fn != static_cast<uint8_t>(BinFn::kDiv) ||
          dv.mode != 1 || dv.r0 != 1) {
        continue;
      }
      const Cell& ccell = b.cells[b.resolve(dv.b)];
      if (ccell.kind != CellKind::kConst) continue;
      const float scale = b.consts[ccell.slot];
      // div -> softmax (optionally masked)
      const int si = sole_reader(b, an, dv.out);
      if (si < 0) continue;
      const Instr& sm = b.instrs[si];
      const bool masked = sm.k == IKind::kSoftmaxMasked;
      if (!masked && sm.k != IKind::kSoftmax) continue;
      // softmax -> ctx = attn * v, v from a 0213 permute
      const int ci = sole_reader(b, an, sm.out);
      if (ci < 0) continue;
      const Instr& ctx = b.instrs[ci];
      if (ctx.k != IKind::kGemm || ctx.flag ||
          b.resolve(ctx.a) != b.resolve(sm.out)) {
        continue;
      }
      const int pv = an.producer[b.resolve(ctx.b)];
      if (pv < 0 || b.instrs[pv].k != IKind::kPermute ||
          !perm_is_0213(b.perms[pv])) {
        continue;
      }
      if (sole_reader(b, an, b.instrs[pv].out) != ci) continue;
      // ctx -> head-merge permute
      const int mi = sole_reader(b, an, ctx.out);
      if (mi < 0) continue;
      const Instr& mg = b.instrs[mi];
      if (mg.k != IKind::kPermute || !perm_is_0213(b.perms[mi])) continue;
      // dimensions from the projection [B,S,D] and split [B,H,S,Dh] shapes
      const Cell& qproj = b.cells[b.resolve(b.instrs[pq].a)];
      const Cell& qsplit = b.cells[b.instrs[pq].out];
      if (qproj.shape.size() != 3 || qsplit.shape.size() != 4) continue;
      const size_t B = qproj.shape[0];
      const size_t S = qproj.shape[1];
      const size_t D = qproj.shape[2];
      const size_t H = qsplit.shape[1];
      const size_t Dh = qsplit.shape[3];
      if (D != H * Dh || S > kAttnMaxS || Dh > kAttnMaxDh || S < 1) continue;
      if (mm.m != S || mm.kk != Dh || mm.n != S) continue;
      uint32_t mask_cell = 0;
      float eps = 0.0F;
      if (masked) {
        const Cell& mc = b.cells[b.resolve(sm.b)];
        if (mc.shape != Shape{S, S}) continue;
        mask_cell = sm.b;
        eps = sm.f0;
      }
      Instr fa;
      fa.k = IKind::kFAttn;
      fa.flag = masked;
      fa.out = mg.out;
      fa.a = b.instrs[pq].a;
      fa.b = b.instrs[pk].a;
      fa.c = b.instrs[pv].a;
      fa.d = mask_cell;
      fa.m = S;
      fa.kk = Dh;
      fa.n = D;
      fa.r0 = B;
      fa.r1 = H;
      fa.f0 = scale;
      fa.f1 = eps;
      b.instrs[mi] = std::move(fa);
      b.perms[mi].clear();
      erase_instrs(b, {static_cast<size_t>(pq), static_cast<size_t>(pk),
                       static_cast<size_t>(pv), i, static_cast<size_t>(di),
                       static_cast<size_t>(si), static_cast<size_t>(ci)});
      b.fused++;
      changed = true;
    }
  }
}

/// x[B,S] * ve[S,D] + pe[S,D] -> kFEmbed (the token-embedding preamble).
void pass_fuse_embed(Build& b) {
  Analysis an = analyze(b);
  for (size_t i = 0; i < b.instrs.size(); ++i) {
    const Instr& ml = b.instrs[i];
    if (ml.k != IKind::kBinary || ml.fn != static_cast<uint8_t>(BinFn::kMul) ||
        ml.mode != 2) {
      continue;
    }
    // Shapes come from the referenced cells: after pass_alias_reshapes the
    // x operand is a [B, S, 1] alias of the rank-2 input root, and resolving
    // first would drop the reshape.
    const Cell& xa = b.cells[ml.a];
    const Cell& ve = b.cells[ml.b];
    if (xa.shape.size() != 3 || xa.shape[2] != 1 || ve.shape.size() != 2) {
      continue;
    }
    const size_t B = xa.shape[0];
    const size_t S = xa.shape[1];
    const size_t D = ve.shape[1];
    if (ve.shape[0] != S || ml.so != Shape{B, S, D}) continue;
    const int ai = sole_reader(b, an, ml.out);
    if (ai < 0) continue;
    const Instr& ad = b.instrs[ai];
    if (ad.k != IKind::kBinary || ad.fn != static_cast<uint8_t>(BinFn::kAdd) ||
        ad.mode != 1 || ad.r0 != S * D || b.resolve(ad.a) != b.resolve(ml.out)) {
      continue;
    }
    Instr fe;
    fe.k = IKind::kFEmbed;
    fe.out = ad.out;
    fe.a = ml.a;
    fe.b = ml.b;
    fe.c = ad.b;
    fe.r0 = B;
    fe.r1 = S;
    fe.kk = D;
    b.instrs[ai] = std::move(fe);
    erase_instrs(b, {i});
    b.fused++;
    return pass_fuse_embed(b);  // indices shifted; rescan
  }
}

/// GEMM epilogue fusions: gemm→(+bias) → kFGemmBias; gemm→bias_gelu →
/// kFGemmBiasGelu; kFGemmBias→(+residual, same shape) → kFGemmBiasRes.
/// The epilogue applies after each output element's full K accumulation, so
/// the rounding sequence equals the separate eager ops'.
void pass_fuse_gemm_epilogues(Build& b) {
  bool changed = true;
  while (changed) {
    changed = false;
    Analysis an = analyze(b);
    for (size_t i = 0; i < b.instrs.size() && !changed; ++i) {
      const Instr& g = b.instrs[i];
      if (g.k == IKind::kGemm && !g.flag) {
        const int ri = sole_reader(b, an, g.out);
        if (ri < 0) continue;
        const Instr& nx = b.instrs[ri];
        if (nx.k == IKind::kBinary &&
            nx.fn == static_cast<uint8_t>(BinFn::kAdd) && nx.mode == 1 &&
            nx.r0 == g.n && g.n > 1 && b.resolve(nx.a) == b.resolve(g.out)) {
          Instr f = g;
          f.k = IKind::kFGemmBias;
          f.out = nx.out;
          f.c = nx.b;
          b.instrs[ri] = std::move(f);
          erase_instrs(b, {i});
          b.fused++;
          changed = true;
        } else if (nx.k == IKind::kBiasGelu &&
                   b.resolve(nx.a) == b.resolve(g.out) && nx.n == g.n) {
          Instr f = g;
          f.k = IKind::kFGemmBiasGelu;
          f.out = nx.out;
          f.c = nx.b;
          b.instrs[ri] = std::move(f);
          erase_instrs(b, {i});
          b.fused++;
          changed = true;
        }
      } else if (g.k == IKind::kFGemmBias) {
        const int ri = sole_reader(b, an, g.out);
        if (ri < 0) continue;
        const Instr& nx = b.instrs[ri];
        if (nx.k != IKind::kBinary ||
            nx.fn != static_cast<uint8_t>(BinFn::kAdd) || nx.mode != 0) {
          continue;
        }
        // float add is commutative bitwise, so either operand may carry the
        // residual
        uint32_t res = 0;
        if (b.resolve(nx.a) == b.resolve(g.out)) {
          res = nx.b;
        } else if (b.resolve(nx.b) == b.resolve(g.out)) {
          res = nx.a;
        } else {
          continue;
        }
        Instr f = g;
        f.k = IKind::kFGemmBiasRes;
        f.out = nx.out;
        f.d = res;
        b.instrs[ri] = std::move(f);
        erase_instrs(b, {i});
        b.fused++;
        changed = true;
      }
    }
  }
}

/// Batched GEMM over contiguous a-batches of a rank-2 b collapses to one
/// M*nb GEMM: same per-element ascending-k chains, better row parallelism.
void pass_flatten_gemms(Build& b) {
  for (Instr& g : b.instrs) {
    if (g.k != IKind::kGemm && g.k != IKind::kFGemmBias &&
        g.k != IKind::kFGemmBiasRes && g.k != IKind::kFGemmBiasGelu) {
      continue;
    }
    if (g.flag || g.aoff.size() <= 1) continue;
    bool contiguous = true;
    for (size_t bi = 0; bi < g.aoff.size(); ++bi) {
      if (g.aoff[bi] != bi * g.m * g.kk || g.boff[bi] != 0) {
        contiguous = false;
        break;
      }
    }
    if (!contiguous) continue;
    g.m *= g.aoff.size();
    g.aoff.assign(1, 0);
    g.boff.assign(1, 0);
  }
}

const char* ikind_name(IKind k) {
  switch (k) {
    case IKind::kBinary: return "binary";
    case IKind::kGemm: return "gemm";
    case IKind::kSoftmax: return "softmax";
    case IKind::kSoftmaxMasked: return "softmax_masked";
    case IKind::kLayerNormAffine: return "layer_norm_affine";
    case IKind::kBiasGelu: return "bias_gelu";
    case IKind::kReduceAxis: return "reduce_axis";
    case IKind::kCopy: return "copy";
    case IKind::kPermute: return "permute";
    case IKind::kFEmbed: return "fused_embed";
    case IKind::kFAttn: return "fused_attention";
    case IKind::kFGemmBias: return "fused_gemm_bias";
    case IKind::kFGemmBiasRes: return "fused_gemm_bias_residual";
    case IKind::kFGemmBiasGelu: return "fused_gemm_bias_gelu";
  }
  return "?";
}

const char* binfn_name(uint8_t fn) {
  switch (static_cast<BinFn>(fn)) {
    case BinFn::kAdd: return "add";
    case BinFn::kSub: return "sub";
    case BinFn::kMul: return "mul";
    case BinFn::kDiv: return "div";
  }
  return "?";
}

/// Display name of an instruction: its kind plus the variant that matters
/// to the executor (binary fn, transposed gemm, masked attention).
std::string instr_name(const Instr& ins) {
  std::string name = ikind_name(ins.k);
  if (ins.k == IKind::kBinary) name = name + "." + binfn_name(ins.fn);
  if (ins.k == IKind::kGemm && ins.flag) name += ".nt";
  if (ins.k == IKind::kFAttn && ins.flag) name += ".masked";
  return name;
}

/// The executor's instruction set: exactly what the paper predictor's fused
/// schedule runs (DESIGN.md §13.1). Softmax, permutes, bias_gelu, the other
/// binary ops and transposed gemms exist only as fusion-pass inputs.
bool executable(const Instr& ins) {
  switch (ins.k) {
    case IKind::kBinary:
      return ins.fn == static_cast<uint8_t>(BinFn::kAdd) && ins.mode == 1;
    case IKind::kGemm:
      return !ins.flag;
    case IKind::kLayerNormAffine:
    case IKind::kReduceAxis:
    case IKind::kFEmbed:
    case IKind::kFAttn:
    case IKind::kFGemmBias:
    case IKind::kFGemmBiasRes:
    case IKind::kFGemmBiasGelu:
      return true;
    default:
      return false;
  }
}

/// Drops instructions whose output no one reads (leftover scale consts etc.).
void pass_dce(Build& b) {
  std::vector<char> needed(b.cells.size(), 0);
  needed[b.resolve(b.output_cell)] = 1;
  std::vector<size_t> dead;
  for (size_t i = b.instrs.size(); i-- > 0;) {
    if (!needed[b.resolve(b.instrs[i].out)]) {
      dead.push_back(i);
      continue;
    }
    for_each_in(b.instrs[i],
                [&](uint32_t v) { needed[b.resolve(v)] = 1; });
  }
  erase_instrs(b, dead);
}

// -- memory planner ----------------------------------------------------------

/// Linear-scan lifetime analysis + best-fit arena assignment over storage
/// roots. Returns the arena size in floats.
size_t plan_memory(Build& b) {
  const size_t nc = b.cells.size();
  const int ni = static_cast<int>(b.instrs.size());
  std::vector<int> def(nc, -2);   // -1: input (live before instr 0)
  std::vector<int> last(nc, -2);
  const uint32_t in_root = b.resolve(b.input_cell);
  const uint32_t out_root = b.resolve(b.output_cell);
  if (b.cells[in_root].kind == CellKind::kInput) def[in_root] = -1;
  for (int i = 0; i < ni; ++i) {
    const uint32_t o = b.resolve(b.instrs[i].out);
    if (def[o] == -2) def[o] = i;
    for_each_in(b.instrs[i], [&](uint32_t v) {
      const uint32_t r = b.resolve(v);
      last[r] = std::max(last[r], i);
    });
  }
  last[out_root] = ni;  // read by the final output copy
  last[in_root] = std::max(last[in_root], def[in_root]);

  struct Block {
    size_t off, len;
  };
  std::vector<Block> free_list;
  size_t top = 0;
  auto alloc = [&](size_t len) -> size_t {
    len = align_up(len);
    int best = -1;
    for (size_t f = 0; f < free_list.size(); ++f) {
      if (free_list[f].len >= len &&
          (best < 0 || free_list[f].len < free_list[static_cast<size_t>(best)].len)) {
        best = static_cast<int>(f);
      }
    }
    if (best >= 0) {
      Block& blk = free_list[static_cast<size_t>(best)];
      const size_t off = blk.off;
      blk.off += len;
      blk.len -= len;
      if (blk.len == 0) free_list.erase(free_list.begin() + best);
      return off;
    }
    const size_t off = top;
    top += len;
    return off;
  };
  auto release = [&](size_t off, size_t len) {
    len = align_up(len);
    // insert sorted by offset, coalescing with neighbours
    size_t f = 0;
    while (f < free_list.size() && free_list[f].off < off) ++f;
    free_list.insert(free_list.begin() + static_cast<int>(f), {off, len});
    if (f + 1 < free_list.size() &&
        free_list[f].off + free_list[f].len == free_list[f + 1].off) {
      free_list[f].len += free_list[f + 1].len;
      free_list.erase(free_list.begin() + static_cast<int>(f) + 1);
    }
    if (f > 0 &&
        free_list[f - 1].off + free_list[f - 1].len == free_list[f].off) {
      free_list[f - 1].len += free_list[f].len;
      free_list.erase(free_list.begin() + static_cast<int>(f));
    }
  };

  auto is_arena = [&](uint32_t r) {
    return b.cells[r].kind == CellKind::kTemp ||
           b.cells[r].kind == CellKind::kInput;
  };
  for (int t = -1; t < ni; ++t) {
    // allocate outputs defined at t
    for (uint32_t r = 0; r < nc; ++r) {
      if (b.root[r] == r && is_arena(r) && def[r] == t) {
        b.cells[r].offset = alloc(b.cells[r].size);
      }
    }
    // then release roots last read at t (never overlaps same-instr outputs)
    for (uint32_t r = 0; r < nc; ++r) {
      if (b.root[r] == r && is_arena(r) && last[r] == t && def[r] >= -1) {
        release(b.cells[r].offset, b.cells[r].size);
      }
    }
  }
  return top;
}

}  // namespace

// -- compile -----------------------------------------------------------------

std::shared_ptr<const CompiledProgram> compile(
    const Tracer& tracer,
    const std::unordered_map<const Node*, LeafBinding>& leaves,
    const Node* output, std::string* why) {
  std::string local_why;
  if (why == nullptr) why = &local_why;
  if (tracer.failed()) {
    *why = tracer.reason();
    return nullptr;
  }
  Build b;
  std::unordered_map<const Node*, uint32_t> vid;
  bool have_input = false;

  auto add_cell = [&](const Node* n, CellKind kind, uint32_t slot) {
    Cell c;
    c.kind = kind;
    c.shape = n->shape;
    c.size = n->value.size();
    c.slot = slot;
    const auto id = static_cast<uint32_t>(b.cells.size());
    b.cells.push_back(std::move(c));
    b.root.push_back(id);
    vid.emplace(n, id);
    return id;
  };
  auto map_leaf = [&](const std::shared_ptr<Node>& n) -> int64_t {
    auto it = vid.find(n.get());
    if (it != vid.end()) return it->second;
    auto lb = leaves.find(n.get());
    if (lb == leaves.end()) return -1;
    if (lb->second.kind == LeafBinding::Kind::kInput) {
      have_input = true;
      const uint32_t id = add_cell(n.get(), CellKind::kInput, 0);
      b.input_cell = id;
      return id;
    }
    b.n_external = std::max<size_t>(b.n_external, lb->second.slot + 1);
    return add_cell(n.get(), CellKind::kExternal, lb->second.slot);
  };

  for (const TraceRec& rec : tracer.records()) {
    if (vid.count(rec.out.get()) != 0) {
      *why = "node produced twice in trace";
      return nullptr;
    }
    if (rec.kind == OpKind::kConst) {
      Cell c;
      c.kind = CellKind::kConst;
      c.shape = rec.out->shape;
      c.size = rec.out->value.size();
      c.slot = static_cast<uint32_t>(b.consts.size());
      b.consts.insert(b.consts.end(), rec.out->value.begin(),
                      rec.out->value.end());
      const auto id = static_cast<uint32_t>(b.cells.size());
      b.cells.push_back(std::move(c));
      b.root.push_back(id);
      vid.emplace(rec.out.get(), id);
      continue;
    }
    int64_t va = -1;
    int64_t vb = 0;
    int64_t vc = 0;
    if (rec.a) va = map_leaf(rec.a);
    if (rec.b) vb = map_leaf(rec.b);
    if (rec.c) vc = map_leaf(rec.c);
    if (va < 0 || vb < 0 || vc < 0) {
      *why = "trace reads a node no eager op produced (unknown leaf)";
      return nullptr;
    }
    const uint32_t out = add_cell(rec.out.get(), CellKind::kTemp, 0);
    if (!lower(b, rec, out, static_cast<uint32_t>(va),
               static_cast<uint32_t>(vb), static_cast<uint32_t>(vc), why)) {
      return nullptr;
    }
  }
  auto oit = vid.find(output);
  if (!have_input || oit == vid.end()) {
    *why = have_input ? "output node was not traced" : "input never consumed";
    return nullptr;
  }
  b.output_cell = oit->second;

  pass_alias_reshapes(b);
  pass_fuse_attention(b);
  pass_fuse_embed(b);
  pass_fuse_gemm_epilogues(b);
  pass_flatten_gemms(b);
  pass_dce(b);
  for (const Instr& ins : b.instrs) {
    if (!executable(ins)) {
      *why = instr_name(ins) +
             " is outside the plan executor's instruction set";
      return nullptr;
    }
  }
  const size_t arena = plan_memory(b);

  auto prog = std::make_shared<CompiledProgram>();
  // resolve every operand to its storage root so the executor never chases
  // aliases
  for (Instr& ins : b.instrs) {
    ins.out = b.resolve(ins.out);
    ins.a = b.resolve(ins.a);
    ins.b = b.resolve(ins.b);
    ins.c = b.resolve(ins.c);
    ins.d = b.resolve(ins.d);
  }
  prog->in_shape = b.cells[b.resolve(b.input_cell)].shape;
  prog->out_shape = b.cells[b.output_cell].shape;
  prog->input_cell = b.resolve(b.input_cell);
  prog->output_cell = b.resolve(b.output_cell);
  prog->cells = std::move(b.cells);
  prog->instrs = std::move(b.instrs);
  prog->arena_floats = arena;
  prog->n_external = b.n_external;
  prog->consts = std::move(b.consts);
  prog->fused_instrs = b.fused;
  // propagate root storage offsets to alias cells for introspection
  for (size_t i = 0; i < prog->cells.size(); ++i) {
    uint32_t r = static_cast<uint32_t>(i);
    while (b.root[r] != r) r = b.root[r];
    if (r != i) {
      prog->cells[i].kind = prog->cells[r].kind;
      prog->cells[i].offset = prog->cells[r].offset;
      prog->cells[i].slot = prog->cells[r].slot;
    }
  }
  return prog;
}

// -- executor ----------------------------------------------------------------

// -- quantizable-gemm classification -----------------------------------------

namespace {

/// A gemm the reduced-precision tier can take over: plain (non-transposed)
/// or fused-epilogue, single batch, with an external (parameter) weight
/// operand. Everything else — attention cores, normalizations, transposed
/// gemms — stays fp32 under every precision tier.
bool quantizable_gemm(const CompiledProgram& p, const Instr& ins) {
  switch (ins.k) {
    case IKind::kGemm:
      if (ins.flag) return false;
      break;
    case IKind::kFGemmBias:
    case IKind::kFGemmBiasRes:
    case IKind::kFGemmBiasGelu:
      break;
    default:
      return false;
  }
  return p.cells[ins.b].kind == CellKind::kExternal &&
         ins.aoff.size() == 1 && ins.boff.size() == 1;
}

}  // namespace

std::vector<size_t> CompiledProgram::quant_gemms() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (quantizable_gemm(*this, instrs[i])) out.push_back(i);
  }
  return out;
}

size_t CompiledProgram::static_bytes(quant::Precision p) const {
  size_t total = static_bytes();
  if (p == quant::Precision::kFp32) return total;
  size_t scratch = 0;
  for (const size_t i : quant_gemms()) {
    const Instr& ins = instrs[i];
    const size_t k4 = (ins.kk + 3) / 4;
    total += k4 * 4 * ins.n;                      // packed int8 weight
    total += ins.n * sizeof(int32_t);             // per-column compensation
    scratch = std::max(scratch, ins.m * k4 * 4);  // u8 activation rows
  }
  return total + scratch;
}

/// Packed-weight sidecar for one quantizable gemm. Rebuilt whenever an
/// external rebinds (weights changed) or the calibration table is replaced;
/// in steady-state serving that is once per bound executor.
struct ProgramExec::QuantGemm {
  size_t instr = 0;
  quant::QuantizedWeight w8;
  float act_scale = 1.0F;  // calibrated activation scale
};

ProgramExec::ProgramExec(std::shared_ptr<const CompiledProgram> prog)
    : prog_(std::move(prog)) {
  arena_.resize(prog_->arena_floats);
  external_.assign(prog_->n_external, nullptr);
  ptrs_.assign(prog_->cells.size(), nullptr);
}

ProgramExec::~ProgramExec() = default;

void ProgramExec::bind_external(uint32_t slot, const float* p) {
  external_[slot] = p;
  resolved_ = false;
  qready_ = false;
}

void ProgramExec::set_precision(quant::Precision p) {
  if (precision_ == p) return;
  precision_ = p;
  qready_ = false;
}

bool ProgramExec::set_calibration(std::vector<float> absmax) {
  if (absmax.size() != prog_->quant_gemms().size()) return false;
  calib_ = std::move(absmax);
  calibrated_ = true;
  qready_ = false;
  return true;
}

void ProgramExec::capture_absmax(std::vector<float>* out) {
  capture_ = out;
  if (capture_ != nullptr) {
    capture_->assign(prog_->quant_gemms().size(), 0.0F);
  }
}

void ProgramExec::prepare_quant_() {
  if (!resolved_) resolve_();
  const std::vector<size_t> idxs = prog_->quant_gemms();
  qgemms_.clear();
  qgemms_.reserve(idxs.size());
  size_t scratch = 0;
  for (size_t qi = 0; qi < idxs.size(); ++qi) {
    const Instr& ins = prog_->instrs[idxs[qi]];
    QuantGemm qg;
    qg.instr = idxs[qi];
    quant::quantize_weight_kn(ptrs_[ins.b] + ins.boff[0], ins.kk, ins.n,
                              &qg.w8);
    qg.act_scale = quant::scale_for(calib_[qi]);
    scratch = std::max(scratch, ins.m * qg.w8.K4 * 4);
    qgemms_.push_back(std::move(qg));
  }
  qscratch_.resize(scratch);
  qready_ = true;
}

void ProgramExec::resolve_() {
  for (size_t i = 0; i < prog_->cells.size(); ++i) {
    const Cell& c = prog_->cells[i];
    switch (c.kind) {
      case CellKind::kTemp:
      case CellKind::kInput:
        ptrs_[i] = arena_.data() + c.offset;
        break;
      case CellKind::kExternal:
        // written through only for cells that are instruction outputs, which
        // externals never are
        ptrs_[i] = const_cast<float*>(external_[c.slot]);
        break;
      case CellKind::kConst:
        ptrs_[i] = const_cast<float*>(prog_->consts.data()) + c.slot;
        break;
    }
  }
  resolved_ = true;
}

namespace {

using kern::gelu_fwd;

/// Batched GEMM with an optional per-row epilogue applied after each output
/// element's complete K accumulation (epi 0: none, 1: +bias, 2: +bias then
/// +residual, 3: gelu(+bias)) — the same rounded steps as the separate ops.
void run_gemm(const Instr& ins, const float* a, const float* w, float* o,
              const float* bias, const float* res, int epi) {
  const size_t M = ins.m;
  const size_t K = ins.kk;
  const size_t N = ins.n;
  const size_t nb = ins.aoff.size();
  const size_t o_mat = M * N;
  core::parallel_for_blocks_static(
      M, kern::gemm_row_grain(K * N * nb), [&](size_t m0, size_t m1) {
        for (size_t bi = 0; bi < nb; ++bi) {
          const float* pa = a + ins.aoff[bi];
          const float* pb = w + ins.boff[bi];
          float* po = o + bi * o_mat;
          kern::gemm_rows<true>(pa, pb, po, m0, m1, 0,
                                std::min(K, kern::kGemmKTile), K, N);
          for (size_t k0 = kern::kGemmKTile; k0 < K; k0 += kern::kGemmKTile) {
            kern::gemm_rows<false>(pa, pb, po, m0, m1, k0,
                                   std::min(K, k0 + kern::kGemmKTile), K, N);
          }
          if (epi == 0) continue;
          for (size_t m = m0; m < m1; ++m) {
            float* prow = po + m * N;
            if (epi == 1) {
              for (size_t j = 0; j < N; ++j) prow[j] = prow[j] + bias[j];
            } else if (epi == 2) {
              const float* rrow = res + bi * o_mat + m * N;
              for (size_t j = 0; j < N; ++j) {
                const float t = prow[j] + bias[j];
                prow[j] = rrow[j] + t;
              }
            } else {
              for (size_t j = 0; j < N; ++j) {
                prow[j] = gelu_fwd(prow[j] + bias[j]);
              }
            }
          }
        }
      });
}

/// Fused attention core over the [B,S,H*Dh] projections: per (b,h) group,
/// pack k^T into a stack tile, scores via the shared GEMM panels
/// (ascending-d chains, identical to gemm_nt_forward), scale each element
/// after its full accumulation (the eager div op), shared softmax / masked
/// renorm row routines, then ctx GEMM with v rows read at stride D and the
/// merged output written strided — eliminating every permute/reshape.
/// Body of one contiguous range of (b, h) attention groups. CS/CDh are
/// compile-time seq-length / head-dim hints (0 = use the runtime value):
/// constant trip counts let the packs, panel GEMMs and softmax rows fully
/// unroll, which measures ~3x over the one generic instantiation on the
/// paper shapes. Every specialization executes the same rounded float ops in
/// the same per-element order as the generic form, so outputs are bitwise
/// identical whichever instantiation the dispatcher picks.
template <size_t CS, size_t CDh>
void fattn_groups_impl(size_t rt_s, size_t rt_dh, size_t D, size_t H,
                       float scale, float eps, const float* q, const float* k,
                       const float* v, const float* mask, float* o, size_t g0,
                       size_t g1) {
  const size_t S = CS != 0 ? CS : rt_s;
  const size_t Dh = CDh != 0 ? CDh : rt_dh;
  float kt[kAttnMaxDh * kAttnMaxS];
  float sc[kAttnMaxS * kAttnMaxS];
  for (size_t g = g0; g < g1; ++g) {
    const size_t bb = g / H;
    const size_t h = g % H;
    const float* qs = q + bb * S * D + h * Dh;
    const float* ks = k + bb * S * D + h * Dh;
    const float* vs = v + bb * S * D + h * Dh;
    float* os = o + bb * S * D + h * Dh;
    for (size_t s = 0; s < S; ++s) {
      for (size_t d = 0; d < Dh; ++d) kt[d * S + s] = ks[s * D + d];
    }
    // At these tiny extents (K = Dh, N = S) the register-blocked gemm path
    // loses to straight per-row 8-wide panels — same ascending-k chains, so
    // bitwise identical — by ~6x; use panels whenever the specialized dims
    // divide evenly and fall back to the shared blocked kernel otherwise.
    if constexpr (CS != 0 && CS % 8 == 0 && CDh != 0) {
      for (size_t m = 0; m < S; ++m) {
        const float* qr = qs + m * D;
        float* pom = sc + m * S;
        for (size_t n0 = 0; n0 < S; n0 += 8) {
          kern::gemm_row_panel<8, true>(qr, kt + n0, pom + n0, 0, Dh, S);
        }
      }
    } else {
      kern::gemm_rows_ld<true>(qs, D, kt, S, sc, S, 0, S, 0, Dh, S);
    }
    for (size_t si = 0; si < S; ++si) {
      float* row = sc + si * S;
      for (size_t j = 0; j < S; ++j) row[j] = row[j] / scale;
      kern::softmax_row(row, row, S);
      if (mask != nullptr) {
        kern::masked_renorm_row(row, mask + si * S, row, S, eps);
      }
    }
    if constexpr (CDh != 0 && CDh % 8 == 0) {
      for (size_t si = 0; si < S; ++si) {
        const float* ar = sc + si * S;
        float* orow = os + si * D;
        for (size_t n0 = 0; n0 < Dh; n0 += 8) {
          kern::gemm_row_panel<8, true>(ar, vs + n0, orow + n0, 0, S, D);
        }
      }
    } else {
      kern::gemm_rows_ld<true>(sc, S, vs, D, os, D, 0, S, 0, S, Dh);
    }
  }
}

/// Shape dispatcher: the paper predictor's (S, Dh) = (24, 8) runs the
/// fully-specialized instantiation, every other shape the generic one.
void fattn_groups(size_t S, size_t Dh, size_t D, size_t H, float scale,
                  float eps, const float* q, const float* k, const float* v,
                  const float* mask, float* o, size_t g0, size_t g1) {
  if (S == 24 && Dh == 8) {
    return fattn_groups_impl<24, 8>(S, Dh, D, H, scale, eps, q, k, v, mask, o,
                                    g0, g1);
  }
  fattn_groups_impl<0, 0>(S, Dh, D, H, scale, eps, q, k, v, mask, o, g0, g1);
}

void run_fattn(const Instr& ins, const float* q, const float* k,
               const float* v, const float* mask, float* o) {
  const size_t S = ins.m;
  const size_t Dh = ins.kk;
  const size_t D = ins.n;
  const size_t B = ins.r0;
  const size_t H = ins.r1;
  const size_t G = B * H;
  const float scale = ins.f0;
  const float eps = ins.f1;
  const size_t grain = std::max<size_t>(
      1, kern::kGemmGrainFlops / std::max<size_t>(1, S * S * Dh));
  core::parallel_for_blocks_static(G, grain, [&](size_t g0, size_t g1) {
    fattn_groups(S, Dh, D, H, scale, eps, q, k, v, mask, o, g0, g1);
  });
}

}  // namespace

void ProgramExec::run(const float* in, float* out) {
  if (!resolved_) resolve_();
  const CompiledProgram& p = *prog_;
  // int8 execution only engages off the default path: never during
  // calibration capture (which must observe fp32 activations), and never
  // without a calibration table.
  const bool quant_run = precision_ == quant::Precision::kInt8 &&
                         capture_ == nullptr && calibrated_;
  if (quant_run && !qready_) prepare_quant_();
  size_t next_q = 0;  // cursor over quantizable gemms, schedule order
  // int8 activation-quantization cache: the q/k/v projections read the same
  // layer-norm output with the same calibrated scale, so the offset-u8 rows
  // in qscratch_ can be reused across consecutive gemms.
  const float* qact_src = nullptr;
  float qact_scale = 0.0F;
  size_t qact_m = 0;
  size_t qact_k = 0;
  // Takes over a gemm for capture or reduced-precision execution. Returns
  // true when the caller must skip the fp32 kernel (the quant tier ran it).
  auto maybe_quant = [&](const Instr& ins, const float* a, const float* bias,
                         const float* res, float* o, int epi) -> bool {
    if ((capture_ == nullptr && !quant_run) || !quantizable_gemm(p, ins)) {
      return false;
    }
    if (capture_ != nullptr) {
      (*capture_)[next_q] =
          std::max((*capture_)[next_q],
                   quant::absmax(a + ins.aoff[0], ins.m * ins.kk));
      ++next_q;
      return false;  // capture observes the fp32 execution
    }
    QuantGemm& qg = qgemms_[next_q++];
    const float* pa = a + ins.aoff[0];
    const size_t grain = kern::gemm_row_grain(ins.kk * ins.n);
    const size_t ldq = qg.w8.K4 * 4;
    if (pa != qact_src || qg.act_scale != qact_scale || ins.m != qact_m ||
        ins.kk != qact_k) {
      quant::quantize_act_u8(pa, ins.m, ins.kk, qg.act_scale,
                             qscratch_.data(), ldq);
      qact_src = pa;
      qact_scale = qg.act_scale;
      qact_m = ins.m;
      qact_k = ins.kk;
    }
    const float dq = qg.act_scale * qg.w8.scale;
    core::parallel_for_blocks_static(
        ins.m, grain, [&](size_t m0, size_t m1) {
          quant::gemm_u8s8(qscratch_.data(), ldq, qg.w8, dq, bias, res,
                           ins.n, epi, o, m0, m1);
        });
    return true;
  };
  std::copy(in, in + numel(p.in_shape),
            ptrs_[p.input_cell]);
  for (const Instr& ins : p.instrs) {
    const float* a = ptrs_[ins.a];
    const float* bb = ptrs_[ins.b];
    const float* cc = ptrs_[ins.c];
    float* o = ptrs_[ins.out];
    switch (ins.k) {
      case IKind::kBinary:
        // add with a trailing-suffix operand, binary_bcast's forward loop
        for (size_t i0 = 0; i0 < ins.n; i0 += ins.r0) {
          for (size_t j = 0; j < ins.r0; ++j) o[i0 + j] = a[i0 + j] + bb[j];
        }
        break;
      case IKind::kGemm:
        if (!maybe_quant(ins, a, nullptr, nullptr, o, 0)) {
          run_gemm(ins, a, bb, o, nullptr, nullptr, 0);
        }
        break;
      case IKind::kFGemmBias:
        if (!maybe_quant(ins, a, cc, nullptr, o, 1)) {
          run_gemm(ins, a, bb, o, cc, nullptr, 1);
        }
        break;
      case IKind::kFGemmBiasRes:
        if (!maybe_quant(ins, a, cc, ptrs_[ins.d], o, 2)) {
          run_gemm(ins, a, bb, o, cc, ptrs_[ins.d], 2);
        }
        break;
      case IKind::kFGemmBiasGelu:
        if (!maybe_quant(ins, a, cc, nullptr, o, 3)) {
          run_gemm(ins, a, bb, o, cc, nullptr, 3);
        }
        break;
      case IKind::kLayerNormAffine:
        if (quant_run) {
          quant::layer_norm_affine_rows_fast(a, bb, cc, o, ins.m, ins.n,
                                             ins.f0);
        } else {
          for (size_t r = 0; r < ins.m; ++r) {
            kern::layer_norm_affine_row(a + r * ins.n, bb, cc, o + r * ins.n,
                                        nullptr, ins.n, ins.f0);
          }
        }
        break;
      case IKind::kReduceAxis: {
        const size_t outer = ins.r0;
        const size_t ax = ins.r1;
        const size_t inner = ins.r2;
        std::fill(o, o + outer * inner, 0.0F);
        for (size_t oo = 0; oo < outer; ++oo) {
          for (size_t x = 0; x < ax; ++x) {
            const float* src = a + (oo * ax + x) * inner;
            float* dst = o + oo * inner;
            for (size_t i = 0; i < inner; ++i) dst[i] += src[i];
          }
        }
        if (ins.mode != 0) {
          const float nax = static_cast<float>(ax);
          for (size_t i = 0; i < outer * inner; ++i) o[i] /= nax;
        }
        break;
      }
      case IKind::kSoftmax:
      case IKind::kSoftmaxMasked:
      case IKind::kBiasGelu:
      case IKind::kCopy:
      case IKind::kPermute:
        break;  // fusion-pass inputs only: compile() never emits them
      case IKind::kFEmbed: {
        const size_t B = ins.r0;
        const size_t S = ins.r1;
        const size_t D = ins.kk;
        for (size_t bi = 0; bi < B; ++bi) {
          for (size_t s = 0; s < S; ++s) {
            const float xv = a[bi * S + s];
            const float* vr = bb + s * D;
            const float* pr = cc + s * D;
            float* orow = o + (bi * S + s) * D;
            // two rounded steps, exactly the eager mul then add
            for (size_t j = 0; j < D; ++j) {
              const float t = xv * vr[j];
              orow[j] = t + pr[j];
            }
          }
        }
        break;
      }
      case IKind::kFAttn:
        if (quant_run) {
          const float* mk = ins.flag ? ptrs_[ins.d] : nullptr;
          const size_t G = ins.r0 * ins.r1;
          const size_t grain = std::max<size_t>(
              1, kern::kGemmGrainFlops /
                     std::max<size_t>(1, ins.m * ins.m * ins.kk));
          core::parallel_for_blocks_static(G, grain, [&](size_t g0,
                                                         size_t g1) {
            quant::fattn_rows_fast(ins.m, ins.kk, ins.n, ins.r1, ins.f0,
                                   ins.f1, a, bb, cc, mk, o, g0, g1);
          });
        } else {
          run_fattn(ins, a, bb, cc, ins.flag ? ptrs_[ins.d] : nullptr, o);
        }
        break;
    }
    // cells are reused across instructions: a write into the cached
    // activation buffer invalidates its quantized image
    if (o == qact_src) qact_src = nullptr;
  }
  const float* src = ptrs_[p.output_cell];
  std::copy(src, src + numel(p.out_shape), out);
}

// -- introspection -----------------------------------------------------------

namespace {

void dump_cell(std::ostream& os, const CompiledProgram& p, uint32_t v) {
  const Cell& c = p.cells[v];
  os << "%" << v << shape_str(c.shape);
  switch (c.kind) {
    case CellKind::kTemp:
      os << "@" << c.offset;
      break;
    case CellKind::kInput:
      os << ":in@" << c.offset;
      break;
    case CellKind::kExternal:
      os << ":ext" << c.slot;
      break;
    case CellKind::kConst:
      os << ":const(" << p.consts[c.slot] << ")";
      break;
  }
}

}  // namespace

void CompiledProgram::dump(std::ostream& os, quant::Precision p) const {
  std::vector<bool> quantized(instrs.size(), false);
  if (p != quant::Precision::kFp32) {
    for (const size_t i : quant_gemms()) quantized[i] = true;
  }
  os << "schedule (" << instrs.size() << " instrs, " << fused_instrs
     << " fused):\n";
  for (size_t i = 0; i < instrs.size(); ++i) {
    const Instr& ins = instrs[i];
    os << "  [" << i << "] " << instr_name(ins) << " {"
       << (quantized[i] ? "i8" : "f32") << "} ";
    dump_cell(os, *this, ins.out);
    os << " <- ";
    bool first = true;
    // operand order is the enumeration the passes use
    for_each_in(ins, [&](uint32_t v) {
      if (!first) os << ", ";
      first = false;
      dump_cell(os, *this, v);
    });
    os << "\n";
  }
  os << "arena: " << arena_floats << " floats ("
     << arena_floats * sizeof(float) << " bytes), consts: " << consts.size()
     << " floats\n";
  os << "buffer reuse map (arena offset -> cells):\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.kind != CellKind::kTemp && c.kind != CellKind::kInput) continue;
    os << "  @" << c.offset << " +" << c.size << "  %" << i
       << shape_str(c.shape) << (c.kind == CellKind::kInput ? " (input)" : "")
       << "\n";
  }
  os << "static bytes: " << static_bytes() << "\n";
  os << "static bytes (int8): " << static_bytes(quant::Precision::kInt8)
     << " (arena + consts + packed weights + compensation + u8 scratch)\n";
}

}  // namespace metadse::tensor::plan
