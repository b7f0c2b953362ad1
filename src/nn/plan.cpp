#include "nn/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/parallel.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace metadse::nn::plan {

namespace t = metadse::tensor;
namespace tp = metadse::tensor::plan;
namespace kern = metadse::tensor::kern;
namespace quant = metadse::tensor::quant;

// -- PlanMode ----------------------------------------------------------------

namespace {
thread_local constinit bool g_plan_mode = true;
}  // namespace

bool PlanMode::enabled() { return g_plan_mode; }
void PlanMode::set_enabled(bool on) { g_plan_mode = on; }

// -- PlanRegistry ------------------------------------------------------------

struct PlanRegistry::Impl {
  mutable std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const tp::CompiledProgram>>
      progs;
  std::atomic<uint64_t> compiled{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fallbacks{0};
  std::atomic<uint64_t> static_bytes{0};
};

PlanRegistry::Impl& PlanRegistry::impl() const {
  static Impl impl;
  return impl;
}

PlanRegistry& PlanRegistry::instance() {
  static PlanRegistry reg;
  return reg;
}

std::shared_ptr<const tp::CompiledProgram> PlanRegistry::find(
    const std::string& key) const {
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.progs.find(key);
  return it == im.progs.end() ? nullptr : it->second;
}

std::shared_ptr<const tp::CompiledProgram> PlanRegistry::insert(
    const std::string& key,
    std::shared_ptr<const tp::CompiledProgram> prog) {
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto [it, fresh] = im.progs.emplace(key, std::move(prog));
  if (fresh) {
    im.compiled.fetch_add(1, std::memory_order_relaxed);
    im.static_bytes.fetch_add(it->second->static_bytes(),
                              std::memory_order_relaxed);
  }
  return it->second;
}

void PlanRegistry::note_hit() {
  impl().hits.fetch_add(1, std::memory_order_relaxed);
}

void PlanRegistry::note_fallback() {
  impl().fallbacks.fetch_add(1, std::memory_order_relaxed);
}

void PlanRegistry::note_tape_compiled() {
  impl().compiled.fetch_add(1, std::memory_order_relaxed);
}

PlanStats PlanRegistry::stats() const {
  auto& im = impl();
  PlanStats s;
  s.plans_compiled = im.compiled.load(std::memory_order_relaxed);
  s.cache_hits = im.hits.load(std::memory_order_relaxed);
  s.fallbacks = im.fallbacks.load(std::memory_order_relaxed);
  s.static_bytes = im.static_bytes.load(std::memory_order_relaxed);
  return s;
}

void PlanRegistry::reset() {
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.progs.clear();
  im.compiled.store(0, std::memory_order_relaxed);
  im.hits.store(0, std::memory_order_relaxed);
  im.fallbacks.store(0, std::memory_order_relaxed);
  im.static_bytes.store(0, std::memory_order_relaxed);
}

// -- predict plans -----------------------------------------------------------

std::string predict_plan_key(const TransformerRegressor& model, size_t batch,
                             quant::Precision prec) {
  const auto& c = model.config();
  std::string k = "predict:nt" + std::to_string(c.n_tokens) + ":dm" +
                  std::to_string(c.d_model) + ":h" +
                  std::to_string(c.n_heads) + ":l" +
                  std::to_string(c.n_layers) + ":ff" +
                  std::to_string(c.d_ff) + ":o" +
                  std::to_string(c.n_outputs) + ":B" + std::to_string(batch) +
                  ":m";
  for (size_t i = 0; i < model.layer_count(); ++i) {
    k += model.attention_layer(i).has_mask() ? '1' : '0';
  }
  if (prec == quant::Precision::kBf16) k += ":qb";
  if (prec == quant::Precision::kInt8) k += ":q8";
  return k;
}

std::shared_ptr<const tp::CompiledProgram> compile_predict(
    TransformerRegressor& model, size_t batch, std::string* why) {
  if (batch == 0) {
    if (why != nullptr) *why = "empty batch";
    return nullptr;
  }
  if (core::chaos::fire("plan.compile")) {
    // An injected compile failure exercises the fallback contract: the
    // caller negative-caches the key and serves the bitwise-identical eager
    // path forever after — degraded throughput, unchanged values.
    if (why != nullptr) *why = "injected plan-compile fault";
    return nullptr;
  }
  std::unordered_map<const t::Node*, tp::LeafBinding> leaves;
  uint32_t slot = 0;
  for (const auto& p : model.parameters()) {
    leaves[p.node().get()] = {tp::LeafBinding::Kind::kExternal, slot++};
  }
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const auto& attn = model.attention_layer(i);
    if (attn.has_mask()) {
      leaves[attn.mask().node().get()] = {tp::LeafBinding::Kind::kExternal,
                                          slot++};
    }
  }
  // Values of the probe input are irrelevant — the trace only records
  // shapes, op identities, and leaf addresses.
  auto x = t::Tensor::zeros({batch, model.config().n_tokens});
  leaves[x.node().get()] = {tp::LeafBinding::Kind::kInput, 0};

  t::NoGradGuard no_grad;
  tp::Tracer tracer;
  t::Rng rng(0);
  t::Tensor y = model.forward(x, rng, /*train=*/false);
  return tp::compile(tracer, leaves, y.node().get(), why);
}

// -- PredictPlanner ----------------------------------------------------------

struct PredictPlanner::Impl {
  explicit Impl(TransformerRegressor& m) : model(m) {
    for (const auto& p : model.parameters()) {
      param_nodes.push_back(p.node().get());
    }
  }

  /// One executor bound to the model's storage. Per external slot: source
  /// node (params, then masks in layer order), last bound data pointer, and
  /// expected element count. Revalidated on every run so parameter updates
  /// in place cost nothing and buffer reallocation or mask replacement only
  /// triggers a rebind.
  struct Exec {
    explicit Exec(std::shared_ptr<const tp::CompiledProgram> prog)
        : exec(std::move(prog)) {}
    tp::ProgramExec exec;
    std::vector<const t::Node*> ext_nodes;
    std::vector<const float*> bound;
    std::vector<size_t> ext_size;
    // int8: model calibration generation the executor was fed, so a
    // re-captured table reaches an already-bound executor on the next run.
    uint64_t calib_gen = 0;
  };

  /// One key's program and its idle executors. A caller takes an idle
  /// executor (or binds a new one) under the lock and runs it outside, so
  /// concurrent predicts on one model each get their own arena.
  struct Entry {
    std::shared_ptr<const tp::CompiledProgram> prog;  // null => unplannable
    std::vector<std::unique_ptr<Exec>> idle;
    size_t taken = 0;  // executors currently held by callers
  };

  // batch, mask bits, precision
  using Key = std::tuple<size_t, uint64_t, uint8_t>;

  TransformerRegressor& model;
  std::vector<const t::Node*> param_nodes;
  std::mutex mu;
  std::map<Key, Entry> entries;

  static constexpr size_t kMaxEntries = 16;

  uint64_t mask_bits() const {
    uint64_t bits = 0;
    const size_t n = std::min<size_t>(model.layer_count(), 64);
    for (size_t i = 0; i < n; ++i) {
      if (model.attention_layer(i).has_mask()) bits |= uint64_t{1} << i;
    }
    return bits;
  }

  /// Current mask nodes in layer order (only layers that have one).
  void collect_masks(std::vector<const t::Node*>& out) const {
    out.clear();
    for (size_t i = 0; i < model.layer_count(); ++i) {
      const auto& attn = model.attention_layer(i);
      if (attn.has_mask()) out.push_back(attn.mask().node().get());
    }
  }

  /// Binds a new executor of @p prog at @p prec; null when the model's
  /// leaves no longer match the program or an int8 calibration table does
  /// not fit its schedule.
  std::unique_ptr<Exec> make_exec(
      std::shared_ptr<const tp::CompiledProgram> prog,
      quant::Precision prec) const {
    const size_t n_external = prog->n_external;
    auto x = std::make_unique<Exec>(std::move(prog));
    std::vector<const t::Node*> masks;
    collect_masks(masks);
    x->ext_nodes = param_nodes;
    x->ext_nodes.insert(x->ext_nodes.end(), masks.begin(), masks.end());
    if (x->ext_nodes.size() != n_external) return nullptr;
    for (size_t i = 0; i < x->ext_nodes.size(); ++i) {
      x->bound.push_back(x->ext_nodes[i]->value.data());
      x->ext_size.push_back(x->ext_nodes[i]->value.size());
      x->exec.bind_external(static_cast<uint32_t>(i), x->bound.back());
    }
    x->exec.set_precision(prec);
    if (prec == quant::Precision::kInt8) {
      if (!x->exec.set_calibration(model.quant_calibration())) return nullptr;
      x->calib_gen = model.quant_calibration_gen();
    }
    return x;
  }

  /// Revalidates @p x against the model's current storage and calibration.
  /// Touches only @p x and reads the model, so it runs outside the lock.
  bool refresh(Exec& x, quant::Precision prec) const {
    std::vector<const t::Node*> masks;
    collect_masks(masks);
    const size_t n_params = param_nodes.size();
    if (x.ext_nodes.size() != n_params + masks.size()) return false;
    for (size_t i = 0; i < x.ext_nodes.size(); ++i) {
      const t::Node* node =
          i < n_params ? param_nodes[i] : masks[i - n_params];
      const float* p = node->value.data();
      if (node != x.ext_nodes[i] || p != x.bound[i]) {
        if (node->value.size() != x.ext_size[i]) return false;
        x.exec.bind_external(static_cast<uint32_t>(i), p);
        x.ext_nodes[i] = node;
        x.bound[i] = p;
      }
    }
    if (prec == quant::Precision::kInt8 &&
        x.calib_gen != model.quant_calibration_gen()) {
      if (!x.exec.set_calibration(model.quant_calibration())) return false;
      x.calib_gen = model.quant_calibration_gen();
    }
    return true;
  }
};

PredictPlanner::PredictPlanner(TransformerRegressor& model)
    : impl_(std::make_unique<Impl>(model)) {}

PredictPlanner::~PredictPlanner() = default;

bool PredictPlanner::run(size_t batch, const float* in, float* out) {
  auto& im = *impl_;
  auto& reg = PlanRegistry::instance();
  if (batch == 0) return false;
  if (im.model.last_attention_layer().capture_attention()) {
    reg.note_fallback();
    return false;
  }
  // Effective precision for this run: int8 without a captured calibration
  // table downgrades to fp32 (serving before adapt-time calibration, or a
  // model whose calibration failed to capture).
  quant::Precision prec = quant::PrecisionMode::mode();
  if (prec == quant::Precision::kInt8 &&
      !im.model.has_quant_calibration()) {
    prec = quant::Precision::kFp32;
  }
  const Impl::Key key{batch, im.mask_bits(), static_cast<uint8_t>(prec)};
  Impl::Entry* entry = nullptr;
  std::unique_ptr<Impl::Exec> x;
  // A run served by a program already registered (by this model or another
  // one of the same architecture) is a cache hit; only the compiling run
  // itself isn't.
  bool hit = true;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.entries.find(key);
    if (it == im.entries.end()) {
      if (im.entries.size() >= Impl::kMaxEntries) {
        std::erase_if(im.entries,
                      [](const auto& kv) { return kv.second.taken == 0; });
      }
      Impl::Entry e;
      const std::string rkey = predict_plan_key(im.model, batch, prec);
      e.prog = reg.find(rkey);
      hit = e.prog != nullptr;
      if (!e.prog) {
        std::string why;
        e.prog = compile_predict(im.model, batch, &why);
        if (e.prog) e.prog = reg.insert(rkey, std::move(e.prog));
      }
      // A first executor that cannot bind (leaf classification drifted, or
      // an int8 table from a different schedule) makes the key unservable;
      // negative-cache it and let callers fall back to eager fp32.
      if (e.prog) {
        x = im.make_exec(e.prog, prec);
        if (!x) e.prog.reset();
      }
      it = im.entries.emplace(key, std::move(e)).first;
    }
    entry = &it->second;
    if (!entry->prog) {
      reg.note_fallback();
      return false;
    }
    if (!x && !entry->idle.empty()) {
      x = std::move(entry->idle.back());
      entry->idle.pop_back();
    }
    if (!x) x = im.make_exec(entry->prog, prec);
    if (!x) {
      reg.note_fallback();
      return false;
    }
    ++entry->taken;
  }
  const bool ok = im.refresh(*x, prec);
  if (ok) x->exec.run(in, out);
  {
    // The entry cannot have been evicted while this caller held one of
    // its executors.
    std::lock_guard<std::mutex> lock(im.mu);
    --entry->taken;
    entry->idle.push_back(std::move(x));
  }
  if (!ok) {
    reg.note_fallback();
    return false;
  }
  if (hit) reg.note_hit();
  return true;
}

// -- calibration capture -----------------------------------------------------

bool capture_calibration(TransformerRegressor& model, const float* in,
                         size_t batch) {
  std::string why;
  const std::string rkey = predict_plan_key(model, batch);
  auto& reg = PlanRegistry::instance();
  auto prog = reg.find(rkey);
  if (!prog) {
    prog = compile_predict(model, batch, &why);
    if (prog) prog = reg.insert(rkey, std::move(prog));
  }
  if (!prog) return false;
  tp::ProgramExec exec(prog);
  uint32_t slot = 0;
  for (const auto& p : model.parameters()) {
    exec.bind_external(slot++, p.node()->value.data());
  }
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const auto& attn = model.attention_layer(i);
    if (attn.has_mask()) {
      exec.bind_external(slot++, attn.mask().node()->value.data());
    }
  }
  if (slot != prog->n_external) return false;
  std::vector<float> table;
  exec.capture_absmax(&table);
  std::vector<float> out(batch * model.config().n_outputs);
  exec.run(in, out.data());
  model.set_quant_calibration(std::move(table));
  return true;
}

// -- TapePlan ----------------------------------------------------------------

namespace {

/// One lowered replay step over pinned graph nodes. All addressing metadata
/// is resolved at capture; replay only streams values.
struct RStep {
  tp::OpKind kind{};
  uint8_t fn = 0;
  bool flag = false;  // matmul: nt; reduce: mean
  float eps = 0.0F;
  t::Node* out = nullptr;
  t::Node* a = nullptr;
  t::Node* b = nullptr;
  t::Node* c = nullptr;
  float* stash0 = nullptr;
  float* stash1 = nullptr;
  size_t n = 0, L = 0, rows = 0, R = 0;
  size_t M = 0, K = 0, N = 0;
  std::vector<size_t> aoff, boff;      // gemm batch bases
  size_t outer = 0, ax = 0, inner = 0;  // reduce_axis
  uint8_t bmode = 0;  // binary: 0 same / 1 b-suffix / 2 a-suffix / 3 general
  std::vector<size_t> sa, sb;  // binary mode 3: broadcast strides
  t::Shape oshape;             // binary mode 3 out / permute outer extents
  std::vector<size_t> pstr;    // permute: src stride per outer out dim
  size_t prun = 1;             // permute: contiguous run length
};

/// Mirrors ops.cpp's trailing-suffix broadcast test.
bool is_trailing_suffix(const t::Shape& small, const t::Shape& big) {
  if (small.size() > big.size()) return false;
  const size_t d0 = big.size() - small.size();
  for (size_t d = 0; d < small.size(); ++d) {
    if (small[d] != big[d0 + d]) return false;
  }
  return true;
}

bool lower_rec(const tp::TraceRec& r, RStep& s) {
  s.kind = r.kind;
  s.fn = r.fn;
  s.eps = r.f0;
  s.out = r.out.get();
  s.a = r.a ? r.a.get() : nullptr;
  s.b = r.b ? r.b.get() : nullptr;
  s.c = r.c ? r.c.get() : nullptr;
  s.stash0 = r.stash0;
  s.stash1 = r.stash1;
  switch (r.kind) {
    case tp::OpKind::kConst:
      return true;  // leaf value persists in the node; nothing to replay
    case tp::OpKind::kBinary: {
      const auto& as = s.a->shape;
      const auto& bs = s.b->shape;
      if (as == bs) {
        s.bmode = 0;
        s.n = s.a->value.size();
      } else if (!s.b->value.empty() && is_trailing_suffix(bs, as)) {
        s.bmode = 1;
        s.n = s.a->value.size();
        s.L = s.b->value.size();
      } else if (!s.a->value.empty() && is_trailing_suffix(as, bs)) {
        s.bmode = 2;
        s.n = s.b->value.size();
        s.L = s.a->value.size();
      } else {
        s.bmode = 3;
        s.oshape = t::broadcast_shape(as, bs);
        if (s.oshape.size() > 8) return false;  // odometer register bound
        s.sa = t::broadcast_strides(as, s.oshape);
        s.sb = t::broadcast_strides(bs, s.oshape);
        s.n = t::numel(s.oshape);
      }
      return true;
    }
    case tp::OpKind::kUnary:
      s.n = s.a->value.size();
      return true;
    case tp::OpKind::kMatmul: {
      s.flag = r.flag;  // nt
      const auto& as = s.a->shape;
      const auto& bs = s.b->shape;
      if (as.size() < 2 || bs.size() < 2) return false;
      s.M = as[as.size() - 2];
      s.K = as.back();
      if (!r.flag) {
        s.N = bs.back();
        tp::batch_offsets_for(as, bs, s.M * s.K, s.K * s.N, s.aoff, s.boff);
      } else {
        s.N = bs[bs.size() - 2];
        tp::batch_offsets_for(as, bs, s.M * s.K, s.N * s.K, s.aoff, s.boff);
      }
      return true;
    }
    case tp::OpKind::kSoftmax:
      s.L = s.a->shape.back();
      s.rows = s.a->value.size() / s.L;
      return true;
    case tp::OpKind::kSoftmaxMasked:
      if (s.stash0 == nullptr || s.stash1 == nullptr) return false;
      s.L = s.a->shape.back();
      s.R = s.a->shape[s.a->shape.size() - 2];
      s.rows = s.a->value.size() / s.L;
      return true;
    case tp::OpKind::kLayerNorm:
      if (s.stash0 == nullptr) return false;
      s.L = s.a->shape.back();
      s.rows = s.a->value.size() / s.L;
      return true;
    case tp::OpKind::kLayerNormAffine:
      if (s.stash0 == nullptr || s.stash1 == nullptr) return false;
      s.L = s.a->shape.back();
      s.rows = s.a->value.size() / s.L;
      return true;
    case tp::OpKind::kBiasGelu:
      s.n = s.a->value.size();
      s.L = s.b->value.size();
      return true;
    case tp::OpKind::kReduceAll:
      s.flag = r.fn != 0;  // mean
      s.n = s.a->value.size();
      return true;
    case tp::OpKind::kReduceAxis: {
      s.flag = r.fn != 0;  // mean
      const auto& as = s.a->shape;
      if (r.axis >= as.size()) return false;
      s.outer = 1;
      s.inner = 1;
      for (size_t d = 0; d < r.axis; ++d) s.outer *= as[d];
      for (size_t d = r.axis + 1; d < as.size(); ++d) s.inner *= as[d];
      s.ax = as[r.axis];
      return true;
    }
    case tp::OpKind::kReshape:
      s.n = s.a->value.size();
      return true;
    case tp::OpKind::kPermute: {
      const auto& as = s.a->shape;
      const auto& os = s.out->shape;
      if (r.perm.size() != as.size()) return false;
      const auto in_strides = t::row_major_strides(as);
      const bool last_fixed =
          !r.perm.empty() && r.perm.back() == as.size() - 1 && as.back() > 1;
      s.prun = last_fixed ? as.back() : 1;
      const size_t outer_rank = last_fixed ? os.size() - 1 : os.size();
      if (outer_rank > 8) return false;  // odometer register bound
      s.pstr.resize(outer_rank);
      s.oshape.assign(os.begin(),
                      os.begin() + static_cast<std::ptrdiff_t>(outer_rank));
      for (size_t d = 0; d < outer_rank; ++d) {
        s.pstr[d] = in_strides[r.perm[d]];
      }
      s.n = s.out->value.size();
      return true;
    }
  }
  return false;
}

template <typename F>
void binary_apply(const RStep& s, F fwd) {
  const float* pa = s.a->value.data();
  const float* pb = s.b->value.data();
  float* po = s.out->value.data();
  switch (s.bmode) {
    case 0:
      for (size_t i = 0; i < s.n; ++i) po[i] = fwd(pa[i], pb[i]);
      break;
    case 1:
      if (s.L == 1) {
        const float bv = pb[0];
        for (size_t i = 0; i < s.n; ++i) po[i] = fwd(pa[i], bv);
      } else {
        for (size_t i0 = 0; i0 < s.n; i0 += s.L) {
          for (size_t j = 0; j < s.L; ++j) {
            po[i0 + j] = fwd(pa[i0 + j], pb[j]);
          }
        }
      }
      break;
    case 2:
      if (s.L == 1) {
        const float av = pa[0];
        for (size_t i = 0; i < s.n; ++i) po[i] = fwd(av, pb[i]);
      } else {
        for (size_t i0 = 0; i0 < s.n; i0 += s.L) {
          for (size_t j = 0; j < s.L; ++j) {
            po[i0 + j] = fwd(pa[j], pb[i0 + j]);
          }
        }
      }
      break;
    default: {
      const size_t rank = s.oshape.size();
      size_t idx[8] = {};
      size_t oa = 0;
      size_t ob = 0;
      for (size_t i = 0; i < s.n; ++i) {
        po[i] = fwd(pa[oa], pb[ob]);
        for (size_t d = rank; d-- > 0;) {
          ++idx[d];
          oa += s.sa[d];
          ob += s.sb[d];
          if (idx[d] < s.oshape[d]) break;
          oa -= idx[d] * s.sa[d];
          ob -= idx[d] * s.sb[d];
          idx[d] = 0;
        }
      }
    }
  }
}

void replay_binary(const RStep& s) {
  switch (static_cast<tp::BinFn>(s.fn)) {
    case tp::BinFn::kAdd:
      binary_apply(s, [](float x, float y) { return x + y; });
      break;
    case tp::BinFn::kSub:
      binary_apply(s, [](float x, float y) { return x - y; });
      break;
    case tp::BinFn::kMul:
      binary_apply(s, [](float x, float y) { return x * y; });
      break;
    case tp::BinFn::kDiv:
      binary_apply(s, [](float x, float y) { return x / y; });
      break;
  }
}

void replay_unary(const RStep& s) {
  const float* pa = s.a->value.data();
  float* po = s.out->value.data();
  auto apply = [&](auto fn) {
    for (size_t i = 0; i < s.n; ++i) po[i] = fn(pa[i]);
  };
  switch (static_cast<tp::UnFn>(s.fn)) {
    case tp::UnFn::kNeg:
      apply([](float x) { return -x; });
      break;
    case tp::UnFn::kRelu:
      apply([](float x) { return x > 0.0F ? x : 0.0F; });
      break;
    case tp::UnFn::kGelu:
      apply([](float x) { return kern::gelu_fwd(x); });
      break;
    case tp::UnFn::kTanh:
      apply([](float x) { return std::tanh(x); });
      break;
    case tp::UnFn::kSigmoid:
      apply([](float x) { return 1.0F / (1.0F + std::exp(-x)); });
      break;
    case tp::UnFn::kExp:
      apply([](float x) { return std::exp(x); });
      break;
    case tp::UnFn::kLog:
      apply([](float x) { return std::log(x); });
      break;
    case tp::UnFn::kSquare:
      apply([](float x) { return x * x; });
      break;
    case tp::UnFn::kAbs:
      apply([](float x) { return std::fabs(x); });
      break;
  }
}

/// Same loop structure (and therefore the same bits and the same thread-count
/// invariance) as ops.cpp's gemm_forward / gemm_nt_forward.
void replay_gemm(const RStep& s) {
  const float* a = s.a->value.data();
  const float* b = s.b->value.data();
  float* c = s.out->value.data();
  const size_t nb = s.aoff.size();
  const size_t o_mat = s.M * s.N;
  if (!s.flag) {
    core::parallel_for_blocks_static(
        s.M, kern::gemm_row_grain(s.K * s.N * nb), [&](size_t m0, size_t m1) {
          for (size_t bi = 0; bi < nb; ++bi) {
            const float* pa = a + s.aoff[bi];
            const float* pb = b + s.boff[bi];
            float* po = c + bi * o_mat;
            kern::gemm_rows<true>(pa, pb, po, m0, m1, 0,
                                  std::min(s.K, kern::kGemmKTile), s.K, s.N);
            for (size_t k0 = kern::kGemmKTile; k0 < s.K;
                 k0 += kern::kGemmKTile) {
              kern::gemm_rows<false>(pa, pb, po, m0, m1, k0,
                                     std::min(s.K, k0 + kern::kGemmKTile),
                                     s.K, s.N);
            }
          }
        });
    return;
  }
  const size_t b_mat = s.K * s.N;
  std::vector<float> bt = t::BufferPool::acquire(nb * b_mat);
  for (size_t bi = 0; bi < nb; ++bi) {
    const float* pb = b + s.boff[bi];
    float* pt = bt.data() + bi * b_mat;
    for (size_t n = 0; n < s.N; ++n) {
      for (size_t k = 0; k < s.K; ++k) pt[k * s.N + n] = pb[n * s.K + k];
    }
  }
  core::parallel_for_blocks_static(
      s.M, kern::gemm_row_grain(s.K * s.N * nb), [&](size_t m0, size_t m1) {
        for (size_t bi = 0; bi < nb; ++bi) {
          kern::gemm_rows<true>(a + s.aoff[bi], bt.data() + bi * b_mat,
                                c + bi * o_mat, m0, m1, 0, s.K, s.K, s.N);
        }
      });
  t::BufferPool::release(std::move(bt));
}

void replay_reduce_axis(const RStep& s) {
  const float* pa = s.a->value.data();
  float* po = s.out->value.data();
  std::fill(po, po + s.outer * s.inner, 0.0F);
  for (size_t o = 0; o < s.outer; ++o) {
    for (size_t x = 0; x < s.ax; ++x) {
      const float* src = pa + (o * s.ax + x) * s.inner;
      float* dst = po + o * s.inner;
      for (size_t i = 0; i < s.inner; ++i) dst[i] += src[i];
    }
  }
  if (s.flag) {
    const float nax = static_cast<float>(s.ax);
    for (size_t i = 0; i < s.outer * s.inner; ++i) po[i] /= nax;
  }
}

void replay_permute(const RStep& s) {
  const float* src = s.a->value.data();
  float* dst = s.out->value.data();
  const size_t rank = s.oshape.size();
  size_t idx[8] = {};
  size_t off = 0;
  for (size_t o = 0; o < s.n; o += s.prun) {
    if (s.prun == 1) {
      dst[o] = src[off];
    } else {
      std::copy(src + off, src + off + s.prun, dst + o);
    }
    for (size_t d = rank; d-- > 0;) {
      ++idx[d];
      off += s.pstr[d];
      if (idx[d] < s.oshape[d]) break;
      off -= idx[d] * s.pstr[d];
      idx[d] = 0;
    }
  }
}

void replay_step(const RStep& s) {
  switch (s.kind) {
    case tp::OpKind::kConst:
      break;
    case tp::OpKind::kBinary:
      replay_binary(s);
      break;
    case tp::OpKind::kUnary:
      replay_unary(s);
      break;
    case tp::OpKind::kMatmul:
      replay_gemm(s);
      break;
    case tp::OpKind::kSoftmax: {
      const float* pa = s.a->value.data();
      float* po = s.out->value.data();
      for (size_t r = 0; r < s.rows; ++r) {
        kern::softmax_row(pa + r * s.L, po + r * s.L, s.L);
      }
      break;
    }
    case tp::OpKind::kSoftmaxMasked: {
      const float* pa = s.a->value.data();
      const float* mk = s.b->value.data();
      float* po = s.out->value.data();
      for (size_t r = 0; r < s.rows; ++r) {
        float* y = s.stash0 + r * s.L;
        kern::softmax_row(pa + r * s.L, y, s.L);
        s.stash1[r] = kern::masked_renorm_row(y, mk + (r % s.R) * s.L,
                                              po + r * s.L, s.L, s.eps);
      }
      break;
    }
    case tp::OpKind::kLayerNorm: {
      const float* pa = s.a->value.data();
      float* po = s.out->value.data();
      for (size_t r = 0; r < s.rows; ++r) {
        s.stash0[r] =
            kern::layer_norm_row(pa + r * s.L, po + r * s.L, s.L, s.eps);
      }
      break;
    }
    case tp::OpKind::kLayerNormAffine: {
      const float* pa = s.a->value.data();
      const float* pg = s.b->value.data();
      const float* pb = s.c->value.data();
      float* po = s.out->value.data();
      for (size_t r = 0; r < s.rows; ++r) {
        s.stash1[r] = kern::layer_norm_affine_row(
            pa + r * s.L, pg, pb, po + r * s.L, s.stash0 + r * s.L, s.L,
            s.eps);
      }
      break;
    }
    case tp::OpKind::kBiasGelu:
      kern::bias_gelu_rows(s.a->value.data(), s.b->value.data(),
                           s.out->value.data(), s.n, s.L);
      break;
    case tp::OpKind::kReduceAll: {
      const float* pa = s.a->value.data();
      float acc = 0.0F;
      for (size_t i = 0; i < s.n; ++i) acc += pa[i];
      s.out->value[0] = s.flag ? acc / static_cast<float>(s.n) : acc;
      break;
    }
    case tp::OpKind::kReduceAxis:
      replay_reduce_axis(s);
      break;
    case tp::OpKind::kReshape:
      std::copy(s.a->value.begin(), s.a->value.end(),
                s.out->value.begin());
      break;
    case tp::OpKind::kPermute:
      replay_permute(s);
      break;
  }
}

}  // namespace

struct TapePlan::Impl {
  enum class State : uint8_t { kEmpty, kReady, kDead };
  State state = State::kEmpty;
  const TransformerRegressor* model = nullptr;
  const t::Node* xn = nullptr;
  const t::Node* yn = nullptr;
  t::Tensor root;                  // pins the captured graph
  std::vector<tp::TraceRec> recs;  // pins no-grad intermediates + stashes
  std::vector<RStep> steps;
  std::vector<t::Node*> topo;           // Tensor::backward post-order
  std::vector<t::Node*> closure_nodes;  // grads reset to "fresh" each replay

  /// Replicates Tensor::backward's iterative post-order topo sort.
  void build_topo() {
    topo.clear();
    std::vector<std::pair<t::Node*, size_t>> stack;
    std::unordered_set<const t::Node*> visited;
    t::Node* rn = root.node().get();
    stack.emplace_back(rn, 0);
    visited.insert(rn);
    while (!stack.empty()) {
      auto& [node, next_child] = stack.back();
      if (next_child < node->parents.size()) {
        t::Node* child = node->parents[next_child++].get();
        if (visited.insert(child).second) stack.emplace_back(child, 0);
      } else {
        topo.push_back(node);
        stack.pop_back();
      }
    }
  }

  /// Every non-leaf node reachable from the loss must be the output of a
  /// replayable record, otherwise a replay would reuse stale values.
  bool validate() {
    std::unordered_set<const t::Node*> outs;
    for (const auto& r : recs) outs.insert(r.out.get());
    for (const t::Node* n : topo) {
      if ((n->backward_fn || !n->parents.empty()) && outs.count(n) == 0) {
        return false;
      }
    }
    closure_nodes.clear();
    for (t::Node* n : topo) {
      if (n->backward_fn) closure_nodes.push_back(n);
    }
    return true;
  }
};

TapePlan::TapePlan() : impl_(std::make_unique<Impl>()) {}
TapePlan::~TapePlan() = default;

bool TapePlan::replaying() const {
  return impl_->state == Impl::State::kReady;
}

bool TapePlan::step(TransformerRegressor& model, const t::Tensor& x,
                    const t::Tensor& y, t::Rng& rng, float& loss,
                    bool skip_backward_nonfinite) {
  auto& im = *impl_;
  auto& reg = PlanRegistry::instance();
  if (!PlanMode::enabled()) return false;
  if (im.state == Impl::State::kDead) {
    reg.note_fallback();
    return false;
  }
  if (im.state == Impl::State::kEmpty) {
    // Capture: run the step eagerly under a tracer. The step is always
    // performed; only whether future steps can replay is decided here.
    im.model = &model;
    im.xn = x.node().get();
    im.yn = y.node().get();
    tp::Tracer tracer;
    t::Tensor lt = t::mse_loss(model.forward(x, rng, /*train=*/true), y);
    loss = lt.item();
    if (!(skip_backward_nonfinite && !std::isfinite(loss))) lt.backward();
    bool ok = !tracer.failed();
    if (ok) {
      im.recs = std::move(tracer.records());
      im.steps.reserve(im.recs.size());
      for (const auto& r : im.recs) {
        if (r.kind == tp::OpKind::kConst) continue;
        RStep s;
        if (!lower_rec(r, s)) {
          ok = false;
          break;
        }
        im.steps.push_back(std::move(s));
      }
    }
    if (ok) {
      im.root = lt;
      im.build_topo();
      ok = im.validate();
    }
    if (ok) {
      im.state = Impl::State::kReady;
      reg.note_tape_compiled();
    } else {
      im.state = Impl::State::kDead;
      im.root = {};
      im.recs.clear();
      im.steps.clear();
      im.topo.clear();
    }
    return true;
  }
  // Replay: only valid for the exact traced (model, x, y) triple.
  if (&model != im.model || x.node().get() != im.xn ||
      y.node().get() != im.yn) {
    reg.note_fallback();
    return false;
  }
  for (const auto& s : im.steps) replay_step(s);
  t::Node* rn = im.root.node().get();
  loss = rn->value[0];
  reg.note_hit();
  if (skip_backward_nonfinite && !std::isfinite(loss)) return true;
  // Reset non-leaf gradients to the "freshly built tape" state the eager
  // loop sees every step; leaf (parameter / input) grads keep their eager
  // lifecycle — the optimizer zeroes exactly the ones it always has.
  for (t::Node* n : im.closure_nodes) {
    if (!n->grad.empty()) std::fill(n->grad.begin(), n->grad.end(), 0.0F);
  }
  rn->ensure_grad();
  rn->grad[0] = 1.0F;
  for (auto it = im.topo.rbegin(); it != im.topo.rend(); ++it) {
    t::Node* node = *it;
    if (node->backward_fn && node->requires_grad) {
      node->ensure_grad();
      node->backward_fn(*node);
    }
  }
  return true;
}

}  // namespace metadse::nn::plan
