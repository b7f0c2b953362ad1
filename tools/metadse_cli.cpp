// metadse — command-line front-end to the MetaDSE pipeline.
//
//   metadse info                               design space + workload suite
//   metadse generate --workload W --samples N --out F.csv
//   metadse pretrain --ckpt F [--epochs E --tasks T --support S]
//   metadse evaluate --ckpt F --workload W [--tasks N --support K --no-wam]
//   metadse adapt    --ckpt F --workload W [--support K --candidates N]
//   metadse serve    --ckpt F --journal-dir D [--sessions N --replicas R]
//   metadse similarity [--samples N]
//
// Every command is deterministic given --seed (default 2025).
//
// SIGINT/SIGTERM request a cooperative stop: journaled work flushes its WAL
// and snapshot at the next safe point and the process exits with code 3
// ("stopped by signal, state flushed, resumable" — distinct from 1/2).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/trendse.hpp"
#include "core/chaos.hpp"
#include "core/io.hpp"
#include "core/metadse.hpp"
#include "core/parallel.hpp"
#include "eval/metrics.hpp"
#include "eval/table.hpp"
#include "explore/explorer.hpp"
#include "nn/plan.hpp"
#include "nn/serialize.hpp"
#include "serve/server.hpp"
#include "tensor/quant.hpp"
#include "serve/session.hpp"

using namespace metadse;

namespace {

/// Exit code for a signal-interrupted run whose durable state was flushed.
constexpr int kExitStopped = 3;

volatile std::sig_atomic_t g_signal = 0;

extern "C" void handle_stop_signal(int sig) { g_signal = sig; }

/// Installs cooperative SIGINT/SIGTERM handlers. Long-running commands poll
/// stop_requested() (directly or via ExplorerOptions::stop_check).
void install_signal_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

bool stop_requested() { return g_signal != 0; }

/// A malformed command line: main() prints the message plus usage and exits
/// nonzero (distinct from runtime errors, which skip the usage dump).
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Minimal --key value / --flag argument parser.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw UsageError("unexpected argument '" + key + "'");
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[key] = argv[++i];
      } else {
        kv_[key] = "";
      }
    }
  }

  bool has(const std::string& k) const { return kv_.count(k) > 0; }
  std::string str(const std::string& k, const std::string& dflt = "") const {
    auto it = kv_.find(k);
    return it == kv_.end() ? dflt : it->second;
  }
  long num(const std::string& k, long dflt) const {
    auto it = kv_.find(k);
    if (it == kv_.end()) return dflt;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0') {
      throw UsageError("invalid integer for --" + k + ": '" + it->second +
                       "'");
    }
    return v;
  }
  double real(const std::string& k, double dflt) const {
    auto it = kv_.find(k);
    if (it == kv_.end()) return dflt;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (errno != 0 || end == s || *end != '\0') {
      throw UsageError("invalid number for --" + k + ": '" + it->second +
                       "'");
    }
    return v;
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Fault-injection knobs shared by generate/pretrain/evaluate: lets any
/// command rehearse against an unreliable label farm.
sim::FaultPlan fault_plan_from(const Args& args) {
  sim::FaultPlan plan;
  plan.fail_rate = args.real("inject-fail", 0.0);
  plan.timeout_rate = args.real("inject-timeout", 0.0);
  plan.nan_rate = args.real("inject-nan", 0.0);
  plan.garbage_rate = args.real("inject-garbage", 0.0);
  plan.persistent_fraction = args.real("inject-persistent", 0.0);
  plan.seed = static_cast<uint64_t>(args.num("fault-seed", 0xFA17));
  return plan;
}

void print_reports(const core::MetaDseFramework& fw) {
  for (const auto& [wl, rep] : fw.generation_reports()) {
    if (rep.degraded() || rep.retries > 0) {
      std::fprintf(stderr, "[generate] %s: %s\n", wl.c_str(),
                   rep.summary().c_str());
    }
  }
}

/// Applies the global --threads knob (0 or absent-value = hardware
/// concurrency; 1 = the serial code path). Results are bitwise identical
/// for every width — threads only change wall-clock.
void apply_threads(const Args& args) {
  if (!args.has("threads")) return;
  const long v = args.num("threads", 0);
  if (v < 0) {
    throw UsageError("--threads must be >= 0 (0 = hardware concurrency)");
  }
  metadse::set_threads(static_cast<size_t>(v));
}

/// Parses the shared --precision knob (adapt / serve / plan-dump).
tensor::quant::Precision precision_from(const Args& args) {
  const std::string s = args.str("precision", "fp32");
  tensor::quant::Precision p = tensor::quant::Precision::kFp32;
  if (!tensor::quant::parse_precision(s, &p)) {
    throw UsageError("--precision must be fp32 or int8 (got '" + s + "')");
  }
  return p;
}

core::FrameworkOptions options_from(const Args& args) {
  core::FrameworkOptions o;
  o.seed = args.num("seed", 2025);
  o.samples_per_workload = args.num("dataset-size", 1200);
  o.maml.epochs = args.num("epochs", 6);
  o.maml.tasks_per_workload = args.num("tasks", 40);
  o.maml.support = args.num("pretrain-support", 5);
  o.maml.val_tasks_per_workload = args.num("val-tasks", 6);
  o.maml.verbose = args.has("verbose");
  return o;
}

int require_ckpt(core::MetaDseFramework& fw, const Args& args) {
  const std::string path = args.str("ckpt");
  if (path.empty()) {
    std::fprintf(stderr, "error: --ckpt <file> is required\n");
    return 1;
  }
  if (!fw.load_checkpoint(path)) {
    std::fprintf(stderr,
                 "error: checkpoint '%s' not found (run `metadse pretrain "
                 "--ckpt %s` first)\n",
                 path.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

int cmd_info() {
  const auto& space = arch::DesignSpace::table1();
  std::printf("design space: %zu parameters, %.3e points\n\n",
              space.num_params(), space.total_points());
  eval::TextTable t({"parameter", "candidates", "range"});
  for (const auto& s : space.specs()) {
    t.add_row({s.name, std::to_string(s.cardinality()),
               eval::fmt(s.values.front(), 1) + " .. " +
                   eval::fmt(s.values.back(), 1)});
  }
  std::printf("%s\n", t.render().c_str());

  workload::SpecSuite suite;
  std::printf("workload suite (%zu workloads):\n", suite.size());
  for (auto role : {workload::SplitRole::kTrain,
                    workload::SplitRole::kValidation,
                    workload::SplitRole::kTest}) {
    const char* name = role == workload::SplitRole::kTrain ? "train"
                       : role == workload::SplitRole::kValidation
                           ? "validation"
                           : "test";
    std::printf("  %-10s:", name);
    for (const auto& w : suite.names(role)) std::printf(" %s", w.c_str());
    std::printf("\n");
  }
  return 0;
}

int cmd_generate(const Args& args) {
  const std::string wl = args.str("workload");
  const std::string out = args.str("out");
  if (wl.empty() || out.empty()) {
    throw UsageError(
        "generate requires --workload W --samples N --out file.csv");
  }
  workload::SpecSuite suite;
  data::DatasetGenerator gen(arch::DesignSpace::table1());
  gen.set_fault_plan(fault_plan_from(args));
  tensor::Rng rng(args.num("seed", 2025));
  data::GenerationReport report;
  const auto ds = gen.generate(suite.by_name(wl), args.num("samples", 1000),
                               rng, /*latin_hypercube=*/true, &report);
  data::write_csv(ds, arch::DesignSpace::table1(), out);
  std::printf("wrote %zu labelled design points for %s to %s (%s)\n",
              ds.size(), wl.c_str(), out.c_str(), report.summary().c_str());
  return 0;
}

int cmd_pretrain(const Args& args) {
  const std::string path = args.str("ckpt");
  if (path.empty()) {
    throw UsageError("pretrain requires --ckpt file "
                     "[--epochs E --tasks T --pretrain-support S]");
  }
  auto opts = options_from(args);
  // Auto-checkpoint into the target file after every epoch so a killed run
  // resumes from its last completed epoch (--no-autosave restores the old
  // always-retrain behaviour).
  if (!args.has("no-autosave")) opts.autosave_path = path;
  core::MetaDseFramework fw(opts);
  fw.set_fault_plan(fault_plan_from(args));
  std::printf("meta-training (%zu epochs x %zu tasks/workload)...\n",
              fw.options().maml.epochs, fw.options().maml.tasks_per_workload);
  fw.pretrain();
  print_reports(fw);
  fw.save_checkpoint(path);
  size_t rollbacks = 0;
  for (const auto& tr : fw.trace()) rollbacks += tr.rolled_back ? 1 : 0;
  if (rollbacks > 0) {
    std::fprintf(stderr, "[maml] %zu divergence rollback(s) during training\n",
                 rollbacks);
  }
  std::printf("meta-val loss %.4f -> %.4f; checkpoint saved to %s\n",
              fw.trace().front().val_loss, fw.trace().back().val_loss,
              path.c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  core::MetaDseFramework fw(options_from(args));
  fw.set_fault_plan(fault_plan_from(args));
  if (int rc = require_ckpt(fw, args)) return rc;
  const std::string wl = args.str("workload");
  if (wl.empty()) {
    std::fprintf(stderr, "error: --workload <name> is required\n");
    return 1;
  }
  tensor::Rng rng(args.num("seed", 2025));
  const auto evals =
      fw.evaluate(wl, args.num("tasks", 30), args.num("support", 10), 45,
                  !args.has("no-wam"), rng);
  print_reports(fw);
  std::vector<double> rmse;
  std::vector<double> mape;
  std::vector<double> ev;
  for (const auto& e : evals) {
    rmse.push_back(e.rmse);
    mape.push_back(e.mape);
    ev.push_back(e.ev);
  }
  std::printf("%s over %zu tasks (K=%ld%s):\n", wl.c_str(), evals.size(),
              args.num("support", 10), args.has("no-wam") ? ", no WAM" : "");
  std::printf("  RMSE %s\n",
              eval::format_mean_ci(eval::mean_ci(rmse)).c_str());
  std::printf("  MAPE %s\n",
              eval::format_mean_ci(eval::mean_ci(mape)).c_str());
  std::printf("  EV   %s\n", eval::format_mean_ci(eval::mean_ci(ev)).c_str());
  return 0;
}

int cmd_adapt(const Args& args) {
  core::MetaDseFramework fw(options_from(args));
  if (int rc = require_ckpt(fw, args)) return rc;
  // Faults land on run_dse's simulator leg (the framework's generator); the
  // support set below comes from a separate, always-clean generator.
  fw.set_fault_plan(fault_plan_from(args));
  const std::string wl_name = args.str("workload");
  if (wl_name.empty()) {
    std::fprintf(stderr, "error: --workload <name> is required\n");
    return 1;
  }
  const size_t K = args.num("support", 10);
  const size_t n_cand = args.num("candidates", 2000);

  // Validate every DSE knob before the expensive adaptation below, so a
  // typo fails in milliseconds rather than after the support simulations.
  const long batch_arg = args.num("predict-batch", 32);
  if (batch_arg < 1) {
    throw UsageError("--predict-batch must be >= 1 (1 = fully sequential)");
  }
  const long deadline_arg = args.num("eval-deadline-ms", 0);
  if (deadline_arg < 0) {
    throw UsageError("--eval-deadline-ms must be >= 0 (0 = no deadline)");
  }
  const long retries_arg = args.num("eval-retries", 2);
  if (retries_arg < 0) {
    throw UsageError("--eval-retries must be >= 0 (0 = single attempt)");
  }
  const long snap_arg = args.num("snapshot-period", 8);
  if (snap_arg < 1) {
    throw UsageError("--snapshot-period must be >= 1 (generations)");
  }
  const long sleep_arg = args.num("eval-sleep-ms", 0);
  if (sleep_arg < 0) {
    throw UsageError("--eval-sleep-ms must be >= 0");
  }
  const long compact_arg = args.num("journal-compact", 0);
  if (compact_arg < 0) {
    throw UsageError("--journal-compact must be >= 0 (0 = rotation off)");
  }
  if (compact_arg > 0 && !args.has("journal")) {
    throw UsageError("--journal-compact requires --journal <path> (there is "
                     "no journal to rotate)");
  }
  if (args.has("resume") && !args.has("journal")) {
    throw UsageError("--resume requires --journal <path>");
  }
  const tensor::quant::Precision precision = precision_from(args);

  core::MetaDseFramework::DseOptions dse;
  dse.precision = precision;
  dse.explorer = {.initial_samples = n_cand / 4, .iterations = n_cand * 3 / 4,
                  .seed = static_cast<uint64_t>(args.num("seed", 2025)),
                  .eval_batch = static_cast<size_t>(batch_arg)};
  dse.guard.deadline_ms = static_cast<size_t>(deadline_arg);
  dse.guard.max_retries = static_cast<size_t>(retries_arg);
  const std::string policy = args.str("degrade-policy", "ladder");
  if (policy == "ladder") {
    dse.guard.policy = explore::DegradePolicy::kLadder;
  } else if (policy == "skip") {
    dse.guard.policy = explore::DegradePolicy::kSkip;
  } else if (policy == "abort") {
    dse.guard.policy = explore::DegradePolicy::kFailFast;
  } else {
    throw UsageError("--degrade-policy must be ladder, skip, or abort (got '" +
                     policy + "')");
  }
  dse.journal_path = args.str("journal");
  dse.resume = args.has("resume");
  dse.snapshot_period = static_cast<size_t>(snap_arg);
  dse.journal_compact_after = static_cast<size_t>(compact_arg);
  // SIGINT/SIGTERM land here: the run stops at the next generation
  // boundary with its journal + snapshot flushed, and main() exits 3.
  dse.explorer.stop_check = [] { return stop_requested(); };

  // Simulate the K-budget support set, adapt, screen candidates.
  workload::SpecSuite suite;
  data::DatasetGenerator gen(fw.space());
  tensor::Rng rng(args.num("seed", 2025));
  const auto& wl = suite.by_name(wl_name);
  data::Dataset support = gen.generate(wl, K, rng);
  support.workload = wl_name;
  const auto predictor = fw.adapt_to(support);
  std::printf("adapted to %s from %zu simulations; screening %zu "
              "candidates...\n",
              wl_name.c_str(), K, n_cand);
  if (precision == tensor::quant::Precision::kInt8 &&
      predictor.model->has_quant_calibration()) {
    // Persist the adapt-time activation-calibration table alongside the
    // checkpoint so a later serving process can audit or reuse it.
    const std::string calib_path = args.str("ckpt") + ".calib";
    nn::save_calibration(predictor.model->quant_calibration(), calib_path);
    std::printf("calibration table (%zu gemms) written to %s\n",
                predictor.model->quant_calibration().size(),
                calib_path.c_str());
  }

  if (sleep_arg > 0) {
    // Chaos-drill aid: slows each live evaluation so a kill lands mid-run.
    dse.pre_eval_hook = [sleep_arg] {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_arg));
    };
  }

  const auto front = fw.run_dse(predictor, support, wl_name, dse);
  const auto& rep = fw.run_report();
  if (rep.degraded() || rep.retries > 0 || rep.resumed) {
    std::fprintf(stderr, "[dse] %s: %s\n", wl_name.c_str(),
                 rep.summary().c_str());
  }
  if (precision != tensor::quant::Precision::kFp32) {
    std::printf("precision: %s%s\n", tensor::quant::to_string(precision),
                rep.quant_contract_tripped
                    ? " requested — error contract tripped, ran fp32"
                    : " (error contract held)");
  }

  // Machine-readable front for bitwise comparison across interrupted and
  // uninterrupted runs (hexfloat round-trips doubles exactly).
  const std::string front_out = args.str("front-out");
  if (!front_out.empty()) {
    std::FILE* f = std::fopen(front_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write '%s'\n", front_out.c_str());
      return 1;
    }
    for (const auto& e : front.entries()) {
      std::fprintf(f, "%llu %a %a\n",
                   static_cast<unsigned long long>(fw.space().encode(e.config)),
                   e.objective.ipc, e.objective.power);
    }
    std::fclose(f);
  }

  std::printf("predicted Pareto front (%zu points), validated in the "
              "simulator:\n",
              front.size());
  eval::TextTable t({"pred IPC", "sim IPC", "sim power"});
  size_t shown = 0;
  for (const auto& e : front.entries()) {
    if (++shown > 12) break;
    const auto [ipc, power] = gen.evaluate(e.config, wl);
    t.add_row({eval::fmt(e.objective.ipc), eval::fmt(ipc),
               eval::fmt(power, 2)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

/// Long-lived multi-session serving: N replica slots sharing one adapted
/// predictor per workload, behind a bounded admission queue. Each session
/// is one journaled DSE run over a test-split workload; finished sessions
/// publish their front atomically to "<journal-dir>/front_<id>.txt". A
/// SIGTERM/SIGINT (or a kill -9, via the
/// per-session journals) mid-traffic is recoverable: rerun with --resume to
/// finish the missing sessions bitwise-identically.
int cmd_serve(const Args& args) {
  core::MetaDseFramework fw(options_from(args));

  const std::string journal_dir = args.str("journal-dir");
  if (journal_dir.empty()) {
    throw UsageError("serve requires --journal-dir <dir> (per-session "
                     "journals and published fronts live there)");
  }
  const long sessions_arg = args.num("sessions", 8);
  const long replicas_arg = args.num("replicas", 2);
  const long workers_arg = args.num("workers", replicas_arg);
  const long queue_arg = args.num("queue-capacity", 16);
  const long arrival_arg = args.num("arrival-ms", 0);
  const long deadline_arg = args.num("session-deadline-ms", 0);
  const long support_arg = args.num("support", 10);
  const long cand_arg = args.num("candidates", 200);
  const long sleep_arg = args.num("eval-sleep-ms", 0);
  const long batch_arg = args.num("predict-batch", 16);
  const long coalesce_arg = args.num("coalesce-max-batch", 0);
  const long coalesce_ticks_arg = args.num("coalesce-wait-ticks", 2);
  const long compact_arg = args.num("journal-compact", 0);
  const long rebuild_limit_arg = args.num("rebuild-limit", 0);
  const long rebuild_window_arg = args.num("rebuild-window-ms", 60000);
  // One precise error per degenerate knob, so a typo names its own flag
  // instead of a lumped "something must be >= 1" guess.
  if (sessions_arg < 1) {
    throw UsageError("serve: --sessions must be >= 1 (got " +
                     std::to_string(sessions_arg) + ")");
  }
  if (replicas_arg < 1) {
    throw UsageError("serve: --replicas must be >= 1 — a pool with zero "
                     "replicas can never dispatch a session (got " +
                     std::to_string(replicas_arg) + ")");
  }
  if (workers_arg < 1) {
    throw UsageError("serve: --workers must be >= 1 (got " +
                     std::to_string(workers_arg) + ")");
  }
  if (queue_arg < 1) {
    throw UsageError("serve: --queue-capacity must be >= 1 (got " +
                     std::to_string(queue_arg) + ")");
  }
  if (support_arg < 1) {
    throw UsageError("serve: --support must be >= 1 (got " +
                     std::to_string(support_arg) + ")");
  }
  if (cand_arg < 4) {
    throw UsageError("serve: --candidates must be >= 4 (got " +
                     std::to_string(cand_arg) + ")");
  }
  if (batch_arg < 1) {
    throw UsageError("serve: --predict-batch must be >= 1 (1 = fully "
                     "sequential; got " + std::to_string(batch_arg) + ")");
  }
  if (coalesce_arg < 0) {
    throw UsageError("serve: --coalesce-max-batch must be >= 0 (0 = "
                     "coalescing off; got " + std::to_string(coalesce_arg) +
                     ")");
  }
  // --coalesce-wait-ticks only means anything with coalescing on; a 0-tick
  // coalescer would flush every tick and never assemble a batch.
  if (coalesce_arg > 0 && coalesce_ticks_arg < 1) {
    throw UsageError("serve: --coalesce-wait-ticks must be >= 1 when "
                     "coalescing is enabled (--coalesce-max-batch > 0); got " +
                     std::to_string(coalesce_ticks_arg));
  }
  if (coalesce_arg == 0 && args.has("coalesce-wait-ticks")) {
    throw UsageError("serve: --coalesce-wait-ticks has no effect without "
                     "--coalesce-max-batch > 0 (coalescing is off)");
  }
  if (arrival_arg < 0) {
    throw UsageError("serve: --arrival-ms must be >= 0 (got " +
                     std::to_string(arrival_arg) + ")");
  }
  if (deadline_arg < 0) {
    throw UsageError("serve: --session-deadline-ms must be >= 0 (0 = "
                     "unlimited; got " + std::to_string(deadline_arg) + ")");
  }
  if (sleep_arg < 0) {
    throw UsageError("serve: --eval-sleep-ms must be >= 0 (got " +
                     std::to_string(sleep_arg) + ")");
  }
  if (compact_arg < 0) {
    throw UsageError("serve: --journal-compact must be >= 0 (0 = rotation "
                     "off; got " + std::to_string(compact_arg) + ")");
  }
  if (rebuild_limit_arg < 0) {
    throw UsageError("serve: --rebuild-limit must be >= 0 (0 = never "
                     "quarantine; got " + std::to_string(rebuild_limit_arg) +
                     ")");
  }
  if (rebuild_window_arg < 1) {
    throw UsageError("serve: --rebuild-window-ms must be >= 1 (got " +
                     std::to_string(rebuild_window_arg) + ")");
  }
  const tensor::quant::Precision precision = precision_from(args);
  const bool chaos_drill = args.has("chaos-drill");
  if (chaos_drill && sessions_arg < 3) {
    throw UsageError("serve: --chaos-drill needs --sessions >= 3 (the "
                     "canned plan scopes faults by session id % 3)");
  }

  serve::ServeOptions sopts;
  sopts.replicas = static_cast<size_t>(replicas_arg);
  sopts.workers = static_cast<size_t>(workers_arg);
  sopts.queue_capacity = static_cast<size_t>(queue_arg);
  sopts.session_deadline_ms = static_cast<size_t>(deadline_arg);
  sopts.retry_after_ms = static_cast<size_t>(args.num("retry-after-ms", 50));
  // Load-aware degradation changes a session's archive, so it defaults OFF
  // here (fronts must be reproducible across reference and resume runs);
  // opt in with --degrade-at F < 1.
  sopts.degrade_at = args.real("degrade-at", 1.0);
  sopts.watchdog_period_ms =
      static_cast<size_t>(args.num("watchdog-ms", 100));
  sopts.wedged_after_ms =
      static_cast<size_t>(args.num("wedged-after-ms", 0));
  sopts.replica_rebuild_limit = static_cast<size_t>(rebuild_limit_arg);
  sopts.replica_rebuild_window_ms = static_cast<size_t>(rebuild_window_arg);
  // Wedge detection rides on the watchdog: declaring a threshold the
  // watchdog can never scan for is a configuration bug, not a choice.
  if (sopts.wedged_after_ms > 0 && sopts.watchdog_period_ms == 0) {
    throw UsageError("serve: --wedged-after-ms needs a running watchdog "
                     "(--watchdog-ms must be > 0)");
  }
  if (sopts.wedged_after_ms > 0 &&
      sopts.wedged_after_ms < sopts.watchdog_period_ms) {
    throw UsageError("serve: --wedged-after-ms (" +
                     std::to_string(sopts.wedged_after_ms) +
                     ") is below the watchdog scan period (--watchdog-ms " +
                     std::to_string(sopts.watchdog_period_ms) +
                     "); a wedge shorter than one scan cannot be detected "
                     "on time — raise it or lower --watchdog-ms");
  }
  const std::string admission = args.str("admission", "block");
  if (admission == "block") {
    sopts.admission = serve::AdmissionPolicy::kBlock;
  } else if (admission == "reject") {
    sopts.admission = serve::AdmissionPolicy::kReject;
  } else if (admission == "shed") {
    sopts.admission = serve::AdmissionPolicy::kShedOldest;
  } else {
    throw UsageError("--admission must be block, reject, or shed (got '" +
                     admission + "')");
  }

  // Every knob is validated; only now pay for the checkpoint load.
  if (int rc = require_ckpt(fw, args)) return rc;

  std::filesystem::create_directories(journal_dir);
  // A crash between tmp write and rename leaves "*.tmp" orphans; sweep them
  // so the directory never accumulates dead bytes across restarts. The
  // checkpoint's directory gets the same sweep: calibration sidecars
  // ("<ckpt>.<workload>.calib") are published there with the same
  // tmp+rename protocol, so a crash can orphan tmp files there too.
  const size_t orphans = core::io::remove_orphan_tmp_files(journal_dir);
  if (orphans > 0) {
    std::fprintf(stderr, "[serve] swept %zu orphaned .tmp file(s) from %s\n",
                 orphans, journal_dir.c_str());
  }
  {
    std::string ckpt_dir =
        std::filesystem::path(args.str("ckpt")).parent_path().string();
    if (ckpt_dir.empty()) ckpt_dir = ".";
    if (!std::filesystem::equivalent(std::filesystem::path(ckpt_dir),
                                     std::filesystem::path(journal_dir))) {
      const size_t ckpt_orphans = core::io::remove_orphan_tmp_files(ckpt_dir);
      if (ckpt_orphans > 0) {
        std::fprintf(stderr,
                     "[serve] swept %zu orphaned .tmp file(s) from %s\n",
                     ckpt_orphans, ckpt_dir.c_str());
      }
    }
  }

  // --chaos-drill: arm a canned, scoped chaos plan against this serve run.
  // Sessions with id % 3 == 1 lose disk (ENOSPC journal bursts + a failed
  // snapshot), id % 3 == 2 wedge a replica once, and one plan compile fails
  // process-wide (value-safe: the eager fallback is bitwise identical).
  // Sessions with id % 3 == 0 are outside every scoped rule — provably
  // untouched. After the run the chaos report is printed and the exit code
  // is nonzero unless every armed point actually fired.
  if (chaos_drill) {
    if (sopts.wedged_after_ms == 0) {
      // The drill injects a wedge; without detection it would hang forever.
      sopts.watchdog_period_ms = 50;
      sopts.wedged_after_ms = 300;
    }
    auto& chaos = core::chaos::ChaosEngine::instance();
    using Rule = core::chaos::FaultRule;
    Rule enospc;
    enospc.fault = {core::io::FaultKind::kEnospc, 0};
    enospc.schedule = Rule::Schedule::kEveryNth;
    enospc.n = 5;
    enospc.max_fires = 40;
    enospc.scope_mod = 3;
    enospc.scope_match = 1;
    chaos.arm("journal.write", enospc);
    Rule snap;
    snap.fault = {core::io::FaultKind::kEio, 0};
    snap.schedule = Rule::Schedule::kNthHit;
    snap.n = 1;
    snap.scope_mod = 3;
    snap.scope_match = 1;
    chaos.arm("snapshot.write", snap);
    Rule wedge;
    wedge.schedule = Rule::Schedule::kNthHit;
    wedge.n = 2;
    wedge.scope_mod = 3;
    wedge.scope_match = 2;
    chaos.arm("replica.wedge", wedge);
    Rule plan_fault;
    plan_fault.schedule = Rule::Schedule::kNthHit;
    plan_fault.n = 1;
    chaos.arm("plan.compile", plan_fault);
    std::fprintf(stderr, "[serve] chaos drill armed: journal.write, "
                 "snapshot.write, replica.wedge, plan.compile\n");
  }

  // Serving workloads: --workload W, or the whole test split round-robin.
  workload::SpecSuite suite;
  std::vector<std::string> names;
  if (args.has("workload")) {
    names.push_back(args.str("workload"));
  } else {
    names = suite.names(workload::SplitRole::kTest);
  }

  serve::MetaDseSessionEngine::Options eopts;
  eopts.front_dir = journal_dir;
  eopts.dse.precision = precision;
  eopts.dse.explorer = {
      .initial_samples = static_cast<size_t>(cand_arg) / 4,
      .iterations = static_cast<size_t>(cand_arg) * 3 / 4,
      .eval_batch = static_cast<size_t>(batch_arg)};
  eopts.dse.guard.deadline_ms =
      static_cast<size_t>(args.num("eval-deadline-ms", 0));
  eopts.dse.snapshot_period =
      static_cast<size_t>(args.num("snapshot-period", 8));
  eopts.dse.journal_compact_after = static_cast<size_t>(compact_arg);
  if (sleep_arg > 0) {
    // Chaos-drill aid: slows each live evaluation so kills land mid-run
    // and deadlines/watchdogs have something to trip on.
    eopts.dse.pre_eval_hook = [sleep_arg] {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_arg));
    };
  }
  if (coalesce_arg > 0) {
    // Cross-session batch coalescing: concurrent sessions' surrogate
    // queries fuse into one forward. Safe to flip on freely — per-row
    // results are bitwise-independent of batch composition, so fronts and
    // journals match the uncoalesced run exactly.
    serve::CoalesceOptions copts;
    copts.max_batch = static_cast<size_t>(coalesce_arg);
    copts.wait_ticks = static_cast<size_t>(coalesce_ticks_arg);
    eopts.coalesce = copts;
  }

  // Support sets are simulated once per workload (clean generator, fixed
  // order) and each workload is adapted once.
  serve::MetaDseSessionEngine engine(fw, sopts.replicas, eopts);
  const uint64_t seed = static_cast<uint64_t>(args.num("seed", 2025));
  tensor::Rng rng(seed);
  data::DatasetGenerator gen(fw.space());
  std::map<std::string, data::Dataset> supports;
  for (const auto& name : names) {
    data::Dataset support =
        gen.generate(suite.by_name(name), static_cast<size_t>(support_arg),
                     rng);
    support.workload = name;
    supports[name] = std::move(support);
  }
  for (const auto& [name, support] : supports) {
    engine.add_workload(name, support);
    if (precision == tensor::quant::Precision::kInt8) {
      // Persist each workload's adapt-time calibration table next to the
      // checkpoint (atomic tmp+rename, CRC'd — same discipline as the
      // checkpoint itself).
      const auto& table = engine.workload_calibration(name);
      if (!table.empty()) {
        nn::save_calibration(table,
                             args.str("ckpt") + "." + name + ".calib");
      }
    }
  }
  std::printf("serving %zu workload(s) on %zu replica(s), %zu worker(s), "
              "queue %zu (%s)\n",
              names.size(), sopts.replicas, sopts.workers,
              sopts.queue_capacity, serve::to_string(sopts.admission));

  serve::ServerCore server(sopts, engine.executor());
  if (engine.coalescing()) {
    server.set_coalesce_stats([&engine] { return engine.coalesce_stats(); });
  }

  // Open-loop (or --arrival-ms-paced) submission: session i targets
  // workload i mod names.size() with seed base+i — the same request stream
  // every run, so a resume pass regenerates exactly the missing sessions.
  const bool resume = args.has("resume");
  std::vector<std::future<serve::SessionResult>> futures;
  size_t skipped = 0;
  for (long i = 0; i < sessions_arg && !stop_requested(); ++i) {
    const uint64_t id = static_cast<uint64_t>(i);
    if (resume && std::filesystem::exists(engine.front_path(id))) {
      ++skipped;  // already published by a previous run
      continue;
    }
    serve::SessionRequest req;
    req.id = id;
    req.workload = names[static_cast<size_t>(i) % names.size()];
    req.seed = seed + id;
    req.journal_path =
        journal_dir + "/session_" + std::to_string(id) + ".journal";
    req.resume = resume;
    futures.push_back(server.submit(std::move(req)));
    if (arrival_arg > 0 && i + 1 < sessions_arg) {
      std::this_thread::sleep_for(std::chrono::milliseconds(arrival_arg));
    }
  }

  // Drain on a clean run; flush-and-interrupt on a signal (journals and
  // snapshots are synced at the next generation boundary, exit 3). The
  // drain is polled, not blocking, so a signal arriving mid-drain still
  // escalates to an immediate stop.
  for (;;) {
    if (stop_requested()) {
      server.stop(serve::ServerCore::StopMode::kNow);
      break;
    }
    bool all_done = true;
    for (auto& fut : futures) {
      if (fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      server.stop(serve::ServerCore::StopMode::kDrain);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const bool verbose = args.has("verbose");
  for (auto& fut : futures) {
    const serve::SessionResult r = fut.get();
    if (verbose || r.status != serve::SessionStatus::kOk) {
      std::fprintf(stderr, "[serve] session %llu: %s%s (%zu ms queued, "
                   "%zu ms service)%s%s\n",
                   static_cast<unsigned long long>(r.id),
                   serve::to_string(r.status), r.degraded ? " (degraded)" : "",
                   r.queued_ms, r.service_ms,
                   r.detail.empty() ? "" : " — ", r.detail.c_str());
    }
  }
  const serve::ServerStats stats = server.stats();
  std::printf("sessions: %zu submitted, %zu ok (%zu degraded), %zu rejected, "
              "%zu shed, %zu deadline, %zu stopped, %zu failed, %zu skipped "
              "(already published)\n",
              stats.submitted, stats.ok, stats.degraded, stats.rejected,
              stats.shed, stats.deadline, stats.stopped, stats.failed,
              skipped);
  std::printf("queue high water %zu/%zu, watchdog trips %zu\n",
              stats.queue_high_water, sopts.queue_capacity,
              stats.watchdog_trips);
  if (stats.replicas_condemned > 0) {
    std::printf("replicas: %zu condemned -> %zu rebuilt, %zu quarantined, "
                "%zu pending\n",
                stats.replicas_condemned, stats.replicas_rebuilt,
                stats.replicas_quarantined, stats.replicas_pending_rebuild);
  }
  const nn::plan::PlanStats plans = nn::plan::PlanRegistry::instance().stats();
  std::printf("plans: %llu compiled, %llu cache hits, %llu fallbacks, "
              "%llu static bytes\n",
              static_cast<unsigned long long>(plans.plans_compiled),
              static_cast<unsigned long long>(plans.cache_hits),
              static_cast<unsigned long long>(plans.fallbacks),
              static_cast<unsigned long long>(plans.static_bytes));
  if (precision != tensor::quant::Precision::kFp32) {
    std::printf("quant: tier %s, %zu sessions served quantized, "
                "%zu contract fallbacks to fp32\n",
                tensor::quant::to_string(precision), stats.quant_sessions,
                stats.quant_fallbacks);
  }
  if (engine.coalescing()) {
    const serve::CoalesceStats cs = engine.coalesce_stats();
    std::printf("coalesce: %zu fused batches (%zu full, %zu tick, %zu "
                "barrier), %zu points (mean %.1f points/batch, max %zu), "
                "%zu cancelled\n",
                cs.coalesced_batches, cs.flush_full, cs.flush_tick,
                cs.flush_barrier, cs.coalesced_points,
                cs.mean_batch_points(), cs.max_batch_points,
                cs.cancelled_points);
  }
  if (chaos_drill) {
    auto& chaos = core::chaos::ChaosEngine::instance();
    std::printf("%s", chaos.summary().c_str());
    if (!chaos.all_armed_fired()) {
      std::fprintf(stderr, "[serve] chaos drill FAILED: an armed fault "
                   "point never fired (plan not exercised)\n");
      return 1;
    }
    std::printf("chaos drill: every armed fault point fired\n");
  }
  if (stop_requested()) {
    std::fprintf(stderr, "[serve] interrupted by signal %d; journals "
                 "flushed — rerun with --resume to finish\n",
                 static_cast<int>(g_signal));
    return kExitStopped;
  }
  return stats.failed == 0 ? 0 : 1;
}

/// Compiles the eval-mode predict plan for the paper's predictor at the
/// requested batch size and prints its registry key, op schedule, buffer
/// reuse map, and static footprint. Plan structure depends only on shapes,
/// never on weights, so a fresh model dumps the exact program every trained
/// replica of the same architecture shares.
int cmd_plan_dump(const Args& args) {
  const long batch_arg = args.num("batch", 1);
  if (batch_arg < 1) throw UsageError("plan-dump: --batch must be >= 1");
  const size_t batch = static_cast<size_t>(batch_arg);
  const tensor::quant::Precision precision = precision_from(args);
  core::FrameworkOptions opts;
  tensor::Rng rng(static_cast<uint64_t>(args.num("seed", 2025)));
  nn::TransformerRegressor model(opts.predictor, rng);
  const std::string key =
      nn::plan::predict_plan_key(model, batch, precision);
  std::string why;
  auto prog = nn::plan::compile_predict(model, batch, &why);
  if (!prog) {
    std::fprintf(stderr, "plan-dump: unplannable: %s\n", why.c_str());
    return 1;
  }
  std::printf("plan key: %s\n", key.c_str());
  std::ostringstream os;
  prog->dump(os, precision);
  std::fputs(os.str().c_str(), stdout);
  std::printf("fused instructions: %zu of %zu\n", prog->fused_instrs,
              prog->instrs.size());
  std::printf("peak static bytes: %zu (arena %zu floats, consts %zu floats)\n",
              prog->static_bytes(), prog->arena_floats, prog->consts.size());
  return 0;
}

int cmd_similarity(const Args& args) {
  workload::SpecSuite suite;
  data::DatasetGenerator gen(arch::DesignSpace::table1());
  tensor::Rng rng(args.num("seed", 2025));
  const auto configs = arch::DesignSpace::table1().sample_latin_hypercube(
      args.num("samples", 300), rng);
  std::vector<std::string> names;
  std::vector<std::vector<float>> labels;
  for (const auto& wl : suite.workloads()) {
    std::vector<float> y;
    for (const auto& c : configs) {
      y.push_back(static_cast<float>(gen.evaluate(c, wl).first));
    }
    names.push_back(wl.name());
    labels.push_back(std::move(y));
  }
  std::vector<std::vector<double>> d(names.size(),
                                     std::vector<double>(names.size()));
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < names.size(); ++j) {
      d[i][j] = eval::wasserstein1(labels[i], labels[j]);
    }
  }
  std::printf("%s", eval::render_heatmap(names, d, 3).c_str());
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "metadse — few-shot meta-learning for cross-workload CPU DSE\n"
      "commands:\n"
      "  info                          design space & workload suite\n"
      "  generate --workload W --samples N --out F.csv\n"
      "  pretrain --ckpt F [--epochs E --tasks T --pretrain-support S\n"
      "                     --no-autosave]\n"
      "  evaluate --ckpt F --workload W [--tasks N --support K --no-wam]\n"
      "  adapt    --ckpt F --workload W [--support K --candidates N\n"
      "                     --predict-batch B]  (B = surrogate queries per\n"
      "                     batched forward; 1 = fully sequential)\n"
      "           durability: --journal F.journal [--resume\n"
      "                     --snapshot-period G --journal-compact N\n"
      "                     --front-out F.txt]  (N > 0 rotates the journal\n"
      "                     against the latest snapshot every N records)\n"
      "           containment: --eval-deadline-ms D --eval-retries R\n"
      "                     --degrade-policy ladder|skip|abort\n"
      "                     --eval-sleep-ms S (chaos drills)\n"
      "           precision: --precision fp32|int8  (quantized predict\n"
      "                     tier; int8 writes <ckpt>.calib and falls back\n"
      "                     to fp32 if the rank-correlation error contract\n"
      "                     trips — DESIGN.md §15)\n"
      "  plan-dump [--batch B --precision P]\n"
      "                     compiled predict-plan schedule, per-instruction\n"
      "                     dtypes, buffer reuse map and static footprint\n"
      "  serve    --ckpt F --journal-dir D [--sessions N --replicas R\n"
      "                     --workers W --queue-capacity Q\n"
      "                     --admission block|reject|shed --arrival-ms A\n"
      "                     --session-deadline-ms D --degrade-at F\n"
      "                     --watchdog-ms P --wedged-after-ms W\n"
      "                     --workload W --support K --candidates N\n"
      "                     --eval-sleep-ms S --resume\n"
      "                     --coalesce-max-batch B --coalesce-wait-ticks T\n"
      "                     --journal-compact N --rebuild-limit L\n"
      "                     --rebuild-window-ms W --chaos-drill\n"
      "                     --precision fp32|int8]\n"
      "           (multi-session serving; fronts publish to\n"
      "            <journal-dir>/front_<id>.txt; exit 3 = interrupted by\n"
      "            signal, journals flushed, rerun with --resume;\n"
      "            B > 0 fuses concurrent sessions' surrogate batches —\n"
      "            fronts stay bitwise-identical to B = 0;\n"
      "            L > 0 quarantines a replica rebuilt > L times in W ms;\n"
      "            --chaos-drill arms a canned scoped fault plan and fails\n"
      "            unless every armed fault point fired)\n"
      "  similarity [--samples N]\n"
      "common flags: --seed S, --dataset-size N, --threads N (0 = auto),\n"
      "  --verbose\n"
      "fault injection (generate/pretrain/evaluate/adapt): --inject-fail R\n"
      "  --inject-timeout R --inject-nan R --inject-garbage R\n"
      "  --inject-persistent R --fault-seed S  (rates in [0,1])\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  install_signal_handlers();
  try {
    Args args(argc, argv, 2);
    apply_threads(args);
    if (cmd == "info") return cmd_info();
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "pretrain") return cmd_pretrain(args);
    if (cmd == "evaluate") return cmd_evaluate(args);
    if (cmd == "adapt") return cmd_adapt(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "plan-dump") return cmd_plan_dump(args);
    if (cmd == "similarity") return cmd_similarity(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    usage();
    return 2;
  } catch (const explore::StopRequested& e) {
    // Cooperative signal stop: durable state was flushed before the throw.
    std::fprintf(stderr, "stopped: %s\n", e.what());
    return kExitStopped;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
  usage();
  return 1;
}
