// bench_e2e — end-to-end benchmark of real MetaDSE sessions.
//
//   bench_e2e --workload W --seed S --seconds N --trace 0|1
//             [--work-dir D] [--out R.json] [--trace-out T.json]
//
// Serving workloads drive serve::ServerCore + serve::MetaDseSessionEngine
// the way `metadse serve` runs them: journaled DSE sessions over a fixture
// checkpoint, each ending when its front is published. A saturation phase
// (blocking admission, queue 8) gives throughput; an open-loop phase
// (submissions at absolute due times, fixed rate) gives latency counted
// from the due time. oneshot_pool runs the designer flow instead: pretrain,
// then adapt_to + run_dse on the main thread with the pool at full width.
//
// Layers are timed only from outside, at this file's calls into public
// functions: the executor wrapper, the template pre_eval_hook (once per
// generation), and serial replays of sampled sessions whose predict_rows,
// simulator, forest, contract and publication legs are timed one by one.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ones and writes the spans as Chrome trace-event JSON.
//
// Every run checks its outputs: the ServerStats partition, and every 25th
// ok session (at least 10) recomputed directly with run_dse must match its
// published front byte for byte. One "name value unit" line per metric is
// printed, then one JSON object as the last line of stdout; the exit code
// is nonzero when a check fails.
#include <spawn.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/ensembles.hpp"
#include "core/io.hpp"
#include "core/metadse.hpp"
#include "core/parallel.hpp"
#include "explore/explorer.hpp"
#include "nn/plan.hpp"
#include "nn/serialize.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tensor/quant.hpp"
#include "trace.hpp"

extern char** environ;

using namespace metadse;
using bench_e2e::now_ns;
using bench_e2e::Span;
using bench_e2e::Tracer;
namespace fs = std::filesystem;

namespace {

using Precision = tensor::quant::Precision;
using Rows = std::vector<std::vector<float>>;
using Engine = serve::MetaDseSessionEngine;
using DseOptions = core::MetaDseFramework::DseOptions;

// -- workloads ----------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool serving;
  size_t candidates;   ///< explorer budget per session
  size_t eval_batch;   ///< candidates per generation (one predict_batch)
  Precision precision;
  bool coalesce;       ///< cross-session batch coalescing
  bool one_workload;   ///< serve 605.mcf_s only, else the whole test split
  double open_rate;    ///< open-loop arrivals per second
};

// Open-loop rates are constants, about half the saturation throughput the
// benchmark measured when it was introduced (4-core host, README.md): a
// faster or slower change is offered exactly the same load.
constexpr WorkloadSpec kWorkloads[] = {
    {"serve_large_fp32", true, 1024, 128, Precision::kFp32, false, false, 35},
    {"serve_large_int8", true, 1024, 128, Precision::kInt8, false, false, 55},
    {"serve_small_disk", true, 128, 16, Precision::kFp32, false, false, 175},
    {"serve_small_coalesced", true, 128, 16, Precision::kFp32, true, true, 70},
    {"oneshot_pool", false, 1024, 128, Precision::kFp32, false, false, 0},
};

constexpr size_t kSupport = 10;  ///< K simulated support points
/// Serving runs the same deployment every time: the fixture checkpoint and
/// K-shot supports simulated from the CLI's default seed. --seed drives the
/// traffic. Per-session cost depends on the adapted models (the int8 tier
/// most), so supports drawn from --seed made run-to-run spread a property
/// of five random supports rather than of the code.
constexpr uint64_t kDeploymentSeed = 2025;
constexpr size_t kReplicas = 4;
constexpr size_t kWorkers = 4;
constexpr size_t kSaturationQueue = 8;
/// Never fills, so an open-loop submit never blocks the generator.
constexpr size_t kOpenQueue = size_t{1} << 16;
constexpr size_t kSetupRepeats = 3;
/// Share of --seconds given to the saturation phase; the open loop gets the
/// rest (oneshot_pool's closed loop gets all of it).
constexpr double kSaturationShare = 0.4;
constexpr size_t kMinOpenSessions = 20;
constexpr size_t kCheckStride = 25;
constexpr size_t kMinChecks = 10;
/// oneshot_pool scores front quality on its first 100 sessions (20 per
/// test workload, each with its own support set).
constexpr size_t kOneshotScored = 100;
/// Open-loop validity: the generator must submit on time.
constexpr double kMaxLagP95Ms = 5.0;
constexpr size_t kMaxSessions = size_t{1} << 17;
constexpr const char* kCoalescedWorkload = "605.mcf_s";

// -- small helpers ------------------------------------------------------------

double ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const size_t j = std::min(i + 1, v.size() - 1);
  return v[i] + (v[j] - v[i]) * (pos - static_cast<double>(i));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// -- command line -------------------------------------------------------------

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  long seconds = 0;
  bool trace = false;
  std::string work_dir = ".bench_build/e2e_work";
  std::string out;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload W --seed S --seconds N "
               "--trace 0|1\n"
               "                 [--work-dir D] [--out R.json] "
               "[--trace-out T.json]\n"
               "workloads:",
               error.c_str());
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

unsigned long long parse_uint(const std::string& flag, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || errno != 0 || *end != '\0') {
    usage("invalid value for " + flag + ": '" + s + "'");
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) o.spec = &w;
      }
      if (o.spec == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const unsigned long long s = parse_uint(flag, value);
      if (s < 1 || s > 120) usage("--seconds must be in 1..120");
      o.seconds = static_cast<long>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--out") {
      o.out = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

// -- host context -------------------------------------------------------------

struct Host {
  long nproc = 0;
  size_t threads = 0;
  std::string cpu;
  std::string build_type = E2E_BUILD_TYPE;
  std::string compiler = E2E_COMPILER;
  bool march_native = E2E_MARCH_NATIVE != 0;
  std::string journal_fs;
  std::string git_commit = E2E_GIT_COMMIT;
};

std::string filesystem_type(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

Host host_context(std::string journal_fs) {
  Host h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.threads = metadse::threads();
  h.cpu = cpu_model();
  h.journal_fs = std::move(journal_fs);
  return h;
}

std::string host_json(const Host& h) {
  std::ostringstream os;
  os << "{\"nproc\": " << h.nproc << ", \"threads\": " << h.threads
     << ", \"cpu\": \"" << json_escape(h.cpu) << "\", \"build_type\": \""
     << json_escape(h.build_type) << "\", \"compiler\": \""
     << json_escape(h.compiler)
     << "\", \"march_native\": " << (h.march_native ? "true" : "false")
     << ", \"journal_fs\": \"" << json_escape(h.journal_fs)
     << "\", \"git_commit\": \"" << json_escape(h.git_commit) << "\"}";
  return os.str();
}

// -- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, size_t>> samples;  ///< sample counts
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

// -- fixture checkpoint -------------------------------------------------------

/// The `metadse pretrain` defaults (tools/metadse_cli.cpp options_from).
core::FrameworkOptions cli_framework_options() {
  core::FrameworkOptions o;
  o.seed = 2025;
  o.samples_per_workload = 1200;
  o.maml.epochs = 6;
  o.maml.tasks_per_workload = 40;
  o.maml.support = 5;
  o.maml.val_tasks_per_workload = 6;
  return o;
}

/// oneshot_pool's in-process pretrain: the CLI schedule cut to about a
/// tenth, so the set-up can be repeated inside one run.
core::FrameworkOptions oneshot_framework_options() {
  core::FrameworkOptions o = cli_framework_options();
  o.samples_per_workload = 400;
  o.maml.epochs = 2;
  o.maml.tasks_per_workload = 12;
  o.maml.val_tasks_per_workload = 4;
  return o;
}

void make_fixture(const std::string& path) {
  core::MetaDseFramework fw(cli_framework_options());
  fw.pretrain();
  fw.save_checkpoint(path);
}

/// CRC-32 of this executable, so a fixture is never shared between builds.
uint32_t self_crc() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  if (!in) throw std::runtime_error("cannot read /proc/self/exe");
  std::vector<char> buf(1 << 20);
  uint32_t crc = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    crc = nn::crc32(buf.data(), static_cast<size_t>(in.gcount()), crc);
  }
  return crc;
}

/// Returns the fixture path, pretraining it in a child process first when
/// it does not exist yet (the serving process's peak RSS never includes
/// training).
std::string ensure_fixture(const std::string& work_dir) {
  char name[64];
  std::snprintf(name, sizeof name, "/fixture_%08x.ckpt", self_crc());
  const std::string path = work_dir + name;
  if (fs::exists(path)) return path;

  std::fprintf(stderr, "bench_e2e: pretraining fixture %s\n", path.c_str());
  const int64_t t0 = now_ns();
  std::string arg0 = "bench_e2e";
  std::string arg1 = "--make-fixture";
  std::string arg2 = path;
  char* child_argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // Keep stdout for the result line: the child's chatter goes to stderr.
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             child_argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error(std::string("cannot spawn fixture child: ") +
                             std::strerror(rc));
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !fs::exists(path)) {
    throw std::runtime_error("fixture child failed");
  }
  std::fprintf(stderr, "bench_e2e: fixture ready in %.1f s\n",
               static_cast<double>(now_ns() - t0) / 1e9);
  return path;
}

// -- shared pieces ------------------------------------------------------------

/// Recovers design points from the surrogate's feature rows: each
/// parameter's normalized values are distinct, so a per-parameter lookup
/// built with DesignSpace::normalize inverts the encoding exactly.
class ConfigLookup {
 public:
  explicit ConfigLookup(const arch::DesignSpace& space)
      : index_(space.num_params()) {
    size_t widest = 0;
    for (const auto& s : space.specs()) {
      widest = std::max(widest, s.cardinality());
    }
    for (size_t k = 0; k < widest; ++k) {
      arch::Config c(space.num_params());
      for (size_t p = 0; p < c.size(); ++p) {
        c[p] = std::min(k, space.spec(p).cardinality() - 1);
      }
      const auto row = space.normalize(c);
      for (size_t p = 0; p < c.size(); ++p) index_[p][bits(row[p])] = c[p];
    }
  }

  arch::Config config(const std::vector<float>& row) const {
    arch::Config c(row.size());
    for (size_t p = 0; p < row.size(); ++p) {
      c[p] = index_.at(p).at(bits(row[p]));
    }
    return c;
  }

 private:
  static uint32_t bits(float f) {
    uint32_t u = 0;
    std::memcpy(&u, &f, sizeof u);
    return u;
  }
  std::vector<std::unordered_map<uint32_t, size_t>> index_;
};

DseOptions dse_template(const WorkloadSpec& w) {
  DseOptions dse;
  dse.precision = w.precision;
  dse.explorer = {.initial_samples = w.candidates / 4,
                  .iterations = w.candidates * 3 / 4,
                  .eval_batch = w.eval_batch};
  return dse;
}

/// Session-shaped predict input: eval_batch Latin-hypercube designs.
Rows session_rows(const arch::DesignSpace& space, size_t n) {
  tensor::Rng rng(0x5E55);
  Rows rows;
  for (const auto& c : space.sample_latin_hypercube(n, rng)) {
    rows.push_back(space.normalize(c));
  }
  return rows;
}

/// The oracle front of one workload: simulator-driven evolutionary search
/// with a large budget (the reference bench_ablation_dse uses).
std::vector<explore::Objective> oracle_front(const core::MetaDseFramework& fw,
                                             const std::string& workload) {
  const auto& wl = fw.suite().by_name(workload);
  data::DatasetGenerator gen(fw.space());
  explore::EvolutionaryExplorer ref(
      {.initial_samples = 400, .iterations = 1100, .seed = 501});
  return ref
      .explore(fw.space(),
               [&](const arch::Config& c) {
                 const auto [ipc, power] = gen.evaluate(c, wl);
                 return explore::Objective{ipc, power};
               })
      .objectives();
}

/// ADRS of a published front (format_front text) against @p reference,
/// with every entry re-simulated on a clean generator. Returns nullopt for
/// an unparseable or empty front.
std::optional<double> front_adrs(const core::MetaDseFramework& fw,
                                 const std::string& workload,
                                 const std::string& front,
                                 const std::vector<explore::Objective>& ref) {
  const auto& wl = fw.suite().by_name(workload);
  data::DatasetGenerator gen(fw.space());
  std::vector<explore::Objective> sim;
  std::istringstream in(front);
  std::string line;
  while (std::getline(in, line)) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long id = std::strtoull(line.c_str(), &end, 10);
    if (errno != 0 || end == line.c_str() || *end != ' ') return std::nullopt;
    const auto [ipc, power] = gen.evaluate(fw.space().decode(id), wl);
    sim.push_back({ipc, power});
  }
  if (sim.empty()) return std::nullopt;
  return explore::adrs(ref, sim);
}

/// Every 25th element of @p ids (at least kMinChecks when there are that
/// many): the deterministic sample that is recomputed and replayed.
std::vector<uint64_t> check_sample(const std::vector<uint64_t>& ids) {
  const size_t stride = std::max<size_t>(
      1, std::min(kCheckStride, ids.size() / kMinChecks));
  std::vector<uint64_t> out;
  for (size_t i = 0; i < ids.size(); i += stride) out.push_back(ids[i]);
  return out;
}

/// What a replayed session runs on.
struct ReplayInput {
  const core::MetaDseFramework& fw;
  const core::AdaptedPredictor& predictor;
  const data::Dataset& support;
  const std::string& workload;
  DseOptions dse;  ///< the session's options (explorer seed set)
};

/// One instrumented run_dse: predict_rows wraps predict_batch, the
/// pre_eval_hook marks generation starts, and the feature rows of every
/// generation are kept for the simulator probe.
struct Replay {
  int64_t run_ns = 0;
  int64_t predict_ns = 0;
  size_t predict_calls = 0;
  size_t predict_rows = 0;
  std::vector<Rows> batches;
  std::vector<int64_t> hooks;
  std::string front;
};

Replay replay(const ReplayInput& in, const std::string& journal_path,
              Tracer& tracer, uint64_t session) {
  Replay r;
  const uint64_t span = tracer.next_id();
  DseOptions dse = in.dse;
  dse.journal_path = journal_path;
  dse.resume = false;
  dse.pre_eval_hook = [&r] { r.hooks.push_back(now_ns()); };
  dse.predict_rows = [&](const Rows& rows) {
    const int64_t t0 = now_ns();
    auto out = in.predictor.predict_batch(rows);
    const int64_t t1 = now_ns();
    r.predict_ns += t1 - t0;
    ++r.predict_calls;
    r.predict_rows += rows.size();
    r.batches.push_back(rows);
    tracer.record("nn.predict_batch", t0, t1, session, span);
    return out;
  };
  if (!journal_path.empty()) {
    fs::remove(journal_path);
    fs::remove(journal_path + ".snapshot");
  }
  data::DatasetGenerator gen(in.fw.space());
  explore::RunReport report;
  const int64_t t0 = now_ns();
  const auto archive =
      in.fw.run_dse(in.predictor, in.support, in.workload, dse, gen, report);
  const int64_t t1 = now_ns();
  tracer.record(
      journal_path.empty() ? "core.run_dse" : "core.run_dse_journaled", t0,
      t1, session, 0, span);
  r.run_ns = t1 - t0;
  r.front = Engine::format_front(in.fw.space(), archive);
  return r;
}

/// Time of the simulator leg of a replay: DatasetGenerator::evaluate over
/// the same designs, recovered from the feature rows.
int64_t time_simulator(const ReplayInput& in, const Replay& r,
                       const ConfigLookup& lookup, size_t* points) {
  const auto& wl = in.fw.suite().by_name(in.workload);
  data::DatasetGenerator gen(in.fw.space());
  std::vector<arch::Config> configs;
  for (const auto& batch : r.batches) {
    for (const auto& row : batch) configs.push_back(lookup.config(row));
  }
  double sink = 0.0;
  const int64_t t0 = now_ns();
  for (const auto& c : configs) sink += gen.evaluate(c, wl).second;
  const int64_t t1 = now_ns();
  if (!std::isfinite(sink)) {
    throw std::runtime_error("simulator probe: non-finite power");
  }
  *points += configs.size();
  return t1 - t0;
}

/// RandomForest::fit on the K-shot support, as run_dse's fallback rung does.
int64_t time_forest_fit(const data::Dataset& support) {
  baselines::FeatureMatrix x;
  std::vector<float> y;
  for (const auto& s : support.samples) {
    x.push_back(s.features);
    y.push_back(s.ipc);
  }
  baselines::RandomForest forest;
  const int64_t t0 = now_ns();
  forest.fit(x, y);
  return now_ns() - t0;
}

/// Replays sampled sessions, checks their fronts, and attributes each
/// replay's run_dse span to the stages under it: predict, simulator,
/// forest fit, quant contract and journal; the rest is unattributed.
class Attribution {
 public:
  /// Replays one session journaled on @p journal_path (when non-empty) and
  /// unjournaled, and returns false unless both reproduce @p expected
  /// byte for byte. The attributed span is the journaled replay's (the
  /// unjournaled one's without a journal); @p publish_path, when
  /// non-empty, gets a timed front publication.
  bool check(const ReplayInput& in, const std::string& expected,
             const std::string& journal_path, const std::string& publish_path,
             const ConfigLookup& lookup, Tracer& tracer, uint64_t session) {
    const Replay plain = replay(in, "", tracer, session);
    const Replay timed = journal_path.empty()
                             ? plain
                             : replay(in, journal_path, tracer, session);
    run_ms_.push_back(ms(timed.run_ns));
    run_ns_ += timed.run_ns;
    predict_ns_ += timed.predict_ns;
    predict_calls_ += timed.predict_calls;
    predict_rows_ += timed.predict_rows;
    for (size_t i = 1; i < timed.hooks.size(); ++i) {
      generation_ms_.push_back(ms(timed.hooks[i] - timed.hooks[i - 1]));
    }
    sim_ns_ += time_simulator(in, timed, lookup, &sim_points_);
    const int64_t forest = time_forest_fit(in.support);
    forest_ns_ += forest;
    forest_ms_.push_back(ms(forest));
    if (in.dse.precision != Precision::kFp32) {
      const int64_t t0 = now_ns();
      core::check_quant_contract(in.predictor, in.fw.space(),
                                 in.dse.precision);
      const int64_t t1 = now_ns();
      contract_ns_ += t1 - t0;
      contract_ms_.push_back(ms(t1 - t0));
      tracer.record("core.quant_contract", t0, t1, session, 0);
    }
    if (!journal_path.empty()) {
      journal_ns_ += timed.run_ns - plain.run_ns;
      journal_ms_.push_back(ms(timed.run_ns - plain.run_ns));
    }
    if (!publish_path.empty()) {
      const int64_t t0 = now_ns();
      core::io::atomic_write_file(publish_path, timed.front, "front.publish");
      const int64_t t1 = now_ns();
      publish_ms_.push_back(ms(t1 - t0));
      tracer.record("serve.front_publish", t0, t1, session, 0);
    }
    return plain.front == expected && timed.front == expected;
  }

  size_t replayed() const { return run_ms_.size(); }
  /// Generation lengths of the attributed replays.
  const std::vector<double>& generation_ms() const { return generation_ms_; }

  void report(Result& res) const {
    const double total = static_cast<double>(run_ns_);
    const int64_t attributed =
        predict_ns_ + sim_ns_ + forest_ns_ + contract_ns_ + journal_ns_;
    res.add("core.run_dse_ms", median(run_ms_), "ms");
    res.add("core.unattributed_share",
            ratio(static_cast<double>(run_ns_ - attributed), total), "ratio");
    res.add("core.quant_contract_ms", median(contract_ms_), "ms");
    res.add("nn.predict_batch_ms",
            ratio(ms(predict_ns_), static_cast<double>(predict_calls_)), "ms");
    res.add("nn.predict_us_per_row",
            ratio(static_cast<double>(predict_ns_) / 1e3,
                  static_cast<double>(predict_rows_)),
            "us");
    res.add("nn.predict_share", ratio(static_cast<double>(predict_ns_), total),
            "ratio");
    res.add("sim.evaluate_us_per_point",
            ratio(static_cast<double>(sim_ns_) / 1e3,
                  static_cast<double>(sim_points_)),
            "us");
    res.add("sim.share", ratio(static_cast<double>(sim_ns_), total), "ratio");
    res.add("baselines.rf_fit_ms", median(forest_ms_), "ms");
    res.add("explore.journal_ms_per_session", median(journal_ms_), "ms");
    res.add("serve.front_publish_ms", median(publish_ms_), "ms");
  }

 private:
  std::vector<double> run_ms_, journal_ms_, forest_ms_, contract_ms_,
      publish_ms_, generation_ms_;
  int64_t run_ns_ = 0, predict_ns_ = 0, sim_ns_ = 0, forest_ns_ = 0,
          contract_ns_ = 0, journal_ns_ = 0;
  size_t predict_calls_ = 0, predict_rows_ = 0, sim_points_ = 0;
};

/// Generation timing of live sessions, from the hook's instants.
struct Generations {
  std::vector<double> per_session, generation_ms, pre_ms, post_ms;

  /// @p hooks: generation-start instants of one session, in order;
  /// @p enter / @p exit: the span the session's run_dse runs in.
  void add(const std::vector<int64_t>& hooks, int64_t enter, int64_t exit) {
    if (hooks.empty()) return;
    per_session.push_back(static_cast<double>(hooks.size()));
    for (size_t i = 1; i < hooks.size(); ++i) {
      generation_ms.push_back(ms(hooks[i] - hooks[i - 1]));
    }
    pre_ms.push_back(ms(hooks.front() - enter));
    post_ms.push_back(ms(exit - hooks.back()));
  }

  void report(Result& res) const {
    res.add("explore.generations_per_session", mean(per_session), "count");
    res.add("explore.generation_p50_ms", quantile(generation_ms, 0.5), "ms");
    res.add("explore.generation_p95_ms", quantile(generation_ms, 0.95), "ms");
    res.add("explore.pre_dse_ms", median(pre_ms), "ms");
    res.add("explore.post_dse_ms", median(post_ms), "ms");
  }
};

/// Groups the tracer's "dse.generation" instants by session.
std::map<uint64_t, std::vector<int64_t>> generation_hooks(const Tracer& t) {
  std::map<uint64_t, std::vector<int64_t>> by_session;
  for (const Span& s : t.collect()) {
    if (std::strcmp(s.name, "dse.generation") == 0) {
      by_session[s.session].push_back(s.start_ns);
    }
  }
  for (auto& [id, v] : by_session) std::sort(v.begin(), v.end());
  return by_session;
}

/// Set-up timings of one repetition, in ms.
struct SetupSample {
  double load = 0, support = 0, add = 0, first_predict = 0, compile = 0;
  double pretrain_data = 0, pretrain = 0;
  double total() const {
    return load + support + add + first_predict + pretrain_data + pretrain;
  }
};

/// The set-up spans, medians over the repetitions.
void report_setup_layers(const std::vector<SetupSample>& samples,
                         Result& res) {
  auto med = [&](double SetupSample::*field) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.*field);
    return median(v);
  };
  res.add("core.load_checkpoint_ms", med(&SetupSample::load), "ms");
  res.add("data.support_generate_ms", med(&SetupSample::support), "ms");
  res.add("serve.add_workload_ms", med(&SetupSample::add), "ms");
  res.add("nn.first_predict_ms", med(&SetupSample::first_predict), "ms");
  res.add("nn.plan_compile_ms", med(&SetupSample::compile), "ms");
  res.add("data.pretrain_datasets_ms", med(&SetupSample::pretrain_data), "ms");
  res.add("meta.pretrain_ms", med(&SetupSample::pretrain), "ms");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The end-to-end metrics of an untraced run.
void report_end_to_end(const std::vector<SetupSample>& setup,
                       double sessions_per_s,
                       const std::vector<double>& latency_ms,
                       const std::vector<double>& adrs, Result& res) {
  std::vector<double> setup_s;
  for (const auto& s : setup) setup_s.push_back(s.total() / 1e3);
  res.add("setup_s", median(setup_s), "s");
  res.add("sessions_per_s", sessions_per_s, "1/s");
  res.add("session_p50_ms", quantile(latency_ms, 0.5), "ms");
  res.add("session_p95_ms", quantile(latency_ms, 0.95), "ms");
  res.add("front_adrs", mean(adrs), "ratio");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_plans(const nn::plan::PlanStats& before,
                  const nn::plan::PlanStats& after, size_t sessions,
                  Result& res) {
  res.add("nn.plan_fallbacks",
          static_cast<double>(after.fallbacks - before.fallbacks), "count");
  res.add("nn.plan_cache_hits_per_session",
          ratio(static_cast<double>(after.cache_hits - before.cache_hits),
                static_cast<double>(sessions)),
          "count");
}

/// Tracing overhead, 1 - traced / untraced throughput, from the session
/// times of interleaved traced and untraced sessions (host drift cancels).
void report_trace_overhead(const std::vector<double>& traced_ms,
                           const std::vector<double>& untraced_ms,
                           Result& res) {
  res.add("bench.trace_overhead_share",
          1.0 - ratio(median(untraced_ms), median(traced_ms)), "ratio");
}

// -- serving workloads --------------------------------------------------------

/// Thread-locals the executor wrapper sets for the template hook; tl_span
/// is 0 while the running session is untraced.
thread_local uint64_t tl_session = 0;
thread_local uint64_t tl_span = 0;

enum class Phase : uint8_t { kWarmup, kSaturation, kOpen };

/// Bench-owned timestamps of one session, preallocated per id. The
/// submitter writes due/submit before submit(); the worker writes
/// enter/exit before the future resolves; the main thread reads them after.
struct Slot {
  int64_t due = 0, submit = 0, enter = 0, exit = 0;
  uint64_t submit_span = 0;  ///< 0 for an untraced session
  uint64_t seed = 0;    ///< explorer seed of the session
  size_t workload = 0;  ///< index into the served workload names
  Phase phase = Phase::kWarmup;
  bool ok = false;
};

struct Serving {
  std::unique_ptr<core::MetaDseFramework> fw;
  std::map<std::string, data::Dataset> supports;  // the engine keeps pointers
  std::unique_ptr<Engine> engine;
  /// The bench's own adapt_to clones (bitwise-identical to the engine's).
  std::map<std::string, core::AdaptedPredictor> clones;
};

std::vector<float> predict_like_session(const core::AdaptedPredictor& p,
                                        const Rows& rows, Precision prec) {
  core::SerialRegionGuard serial;  // sessions run inside the server's guard
  tensor::quant::PrecisionModeGuard guard(prec);
  return p.predict_batch(rows);
}

/// Time to ready to serve: load_checkpoint + support generation +
/// add_workload for every served workload + the first session-shaped
/// predict. The plan registry is emptied first so each repetition pays the
/// plan compiles a fresh process pays.
std::unique_ptr<Serving> set_up_serving(const WorkloadSpec& w,
                                        const std::string& fixture,
                                        const std::vector<std::string>& names,
                                        const Engine::Options& eopts,
                                        Tracer& tracer, SetupSample* sample) {
  nn::plan::PlanRegistry::instance().reset();
  auto s = std::make_unique<Serving>();
  const int64_t t0 = now_ns();
  s->fw = std::make_unique<core::MetaDseFramework>(cli_framework_options());
  if (!s->fw->load_checkpoint(fixture)) {
    throw std::runtime_error("fixture checkpoint vanished: " + fixture);
  }
  const int64_t t1 = now_ns();
  tensor::Rng rng(kDeploymentSeed);
  data::DatasetGenerator gen(s->fw->space());
  for (const auto& name : names) {
    data::Dataset d =
        gen.generate(s->fw->suite().by_name(name), kSupport, rng);
    d.workload = name;
    s->supports[name] = std::move(d);
  }
  const int64_t t2 = now_ns();
  s->engine = std::make_unique<Engine>(*s->fw, kReplicas, eopts);
  for (const auto& [name, support] : s->supports) {
    s->engine->add_workload(name, support);
  }
  const int64_t t3 = now_ns();
  // The clone that serves the first predict is bench overhead, not set-up.
  const std::string& first = names.front();
  s->clones.emplace(first, s->fw->adapt_to(s->supports.at(first)));
  const Rows rows = session_rows(s->fw->space(), w.eval_batch);
  const int64_t t4 = now_ns();
  predict_like_session(s->clones.at(first), rows, w.precision);
  const int64_t t5 = now_ns();
  predict_like_session(s->clones.at(first), rows, w.precision);
  const int64_t t6 = now_ns();

  tracer.record("core.load_checkpoint", t0, t1, 0, 0);
  tracer.record("data.support_generate", t1, t2, 0, 0);
  tracer.record("serve.add_workload", t2, t3, 0, 0);
  tracer.record("nn.first_predict", t4, t5, 0, 0);
  sample->load = ms(t1 - t0);
  sample->support = ms(t2 - t1);
  sample->add = ms(t3 - t2);
  sample->first_predict = ms(t5 - t4);
  sample->compile = ms((t5 - t4) - (t6 - t5));
  return s;
}

class Traffic {
 public:
  Traffic(const std::vector<std::string>& names, uint64_t seed,
          std::string run_dir, Tracer& tracer)
      : names_(names),
        seed_(seed),
        run_dir_(std::move(run_dir)),
        tracer_(tracer),
        slots_(kMaxSessions) {}

  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  /// Wraps the engine's executor to timestamp entry and exit per session.
  serve::SessionExecutor wrap(serve::SessionExecutor inner) {
    return [this, inner = std::move(inner)](const serve::SessionRequest& req,
                                            const serve::ExecContext& ctx) {
      Slot& s = slots_.at(req.id);
      const uint64_t span = s.submit_span != 0 ? tracer_.next_id() : 0;
      tl_session = req.id;
      tl_span = span;
      s.enter = now_ns();
      auto finish = [&] {
        s.exit = now_ns();
        if (span != 0) {
          tracer_.record("serve.session", s.enter, s.exit, req.id,
                         s.submit_span, span);
        }
      };
      try {
        serve::ExecResult r = inner(req, ctx);
        finish();
        return r;
      } catch (...) {
        finish();
        throw;
      }
    };
  }

  /// Submits the next session; blocks under kBlock admission when full.
  /// The k-th open-loop session serves workload k mod n with seed S+k, and
  /// the k-th closed-loop one (warm-up, saturation) seed S+2^32+k: however
  /// many sessions the saturation phase fits, a seed fixes the open-loop
  /// sessions exactly. When tracing, every other saturation session runs
  /// untraced, for the tracing overhead.
  void submit(serve::ServerCore& server, Phase phase, int64_t due) {
    const uint64_t id = futures_.size();
    if (id >= slots_.size()) {
      throw std::runtime_error("session slots exhausted");
    }
    const bool open = phase == Phase::kOpen;
    const uint64_t k = open ? open_issued_++ : closed_issued_++;
    Slot& s = slots_[id];
    s.phase = phase;
    s.due = due;
    s.seed = seed_ + (open ? 0 : uint64_t{1} << 32) + k;
    s.workload = k % names_.size();
    const bool traced =
        tracer_.enabled() && (phase != Phase::kSaturation || k % 2 == 1);
    s.submit_span = traced ? tracer_.next_id() : 0;
    serve::SessionRequest req;
    req.id = id;
    req.workload = names_[s.workload];
    req.seed = s.seed;
    req.journal_path =
        run_dir_ + "/session_" + std::to_string(id) + ".journal";
    s.submit = now_ns();
    futures_.push_back(server.submit(std::move(req)));
    if (traced) {
      tracer_.record("serve.submit", s.submit, now_ns(), id, 0, s.submit_span);
    }
  }

  void wait_all() {
    for (size_t i = resolved_; i < futures_.size(); ++i) {
      const serve::SessionResult r = futures_[i].get();
      slots_[i].ok = r.status == serve::SessionStatus::kOk;
      if (!slots_[i].ok && ++reported_ <= 5) {
        std::fprintf(stderr, "bench_e2e: session %zu %s: %s\n", i,
                     serve::to_string(r.status), r.detail.c_str());
      }
    }
    resolved_ = futures_.size();
  }

  size_t size() const { return futures_.size(); }
  const Slot& slot(uint64_t id) const { return slots_[id]; }
  const std::string& workload_of(uint64_t id) const {
    return names_[slots_[id].workload];
  }

 private:
  const std::vector<std::string>& names_;
  uint64_t seed_;
  std::string run_dir_;
  Tracer& tracer_;
  std::vector<Slot> slots_;
  std::vector<std::future<serve::SessionResult>> futures_;
  uint64_t open_issued_ = 0;
  uint64_t closed_issued_ = 0;
  size_t resolved_ = 0;
  size_t reported_ = 0;
};

serve::ServeOptions serve_options(size_t queue_capacity) {
  serve::ServeOptions so;
  so.replicas = kReplicas;
  so.workers = kWorkers;
  so.queue_capacity = queue_capacity;
  so.admission = serve::AdmissionPolicy::kBlock;
  so.degrade_at = 2.0;  // load-aware degradation off: fronts stay exact
  so.session_deadline_ms = 0;
  return so;
}

/// ServerStats of the two timed phases.
struct Phases {
  serve::ServerStats saturation, open;
};

/// Runs the saturation phase, then the open loop, each on its own server
/// and from this thread.
Phases drive_traffic(const WorkloadSpec& w, const Options& opt,
                     const serve::SessionExecutor& executor,
                     Traffic& traffic) {
  Phases p;
  const double seconds = static_cast<double>(opt.seconds);
  {
    // Closed submitter against blocking admission.
    serve::ServerCore server(serve_options(kSaturationQueue), executor);
    for (size_t i = 0; i < 2 * kWorkers; ++i) {
      traffic.submit(server, Phase::kWarmup, now_ns());
    }
    traffic.wait_all();
    const int64_t end =
        now_ns() + static_cast<int64_t>(kSaturationShare * seconds * 1e9);
    for (int64_t now = now_ns(); now < end; now = now_ns()) {
      traffic.submit(server, Phase::kSaturation, now);
    }
    server.stop(serve::ServerCore::StopMode::kDrain);
    traffic.wait_all();
    p.saturation = server.stats();
  }
  {
    // Open loop: submissions at absolute due times, whatever the server
    // does (the queue never fills, so submit never blocks).
    serve::ServerCore server(serve_options(kOpenQueue), executor);
    const double open_s = (1.0 - kSaturationShare) * seconds;
    const size_t n =
        std::max(kMinOpenSessions,
                 static_cast<size_t>(std::llround(w.open_rate * open_s)));
    const double period_ns = 1e9 / w.open_rate;
    const int64_t t0 = now_ns() + 1000000;
    for (size_t k = 0; k < n; ++k) {
      const int64_t due = t0 + static_cast<int64_t>(std::llround(
                                   static_cast<double>(k) * period_ns));
      std::this_thread::sleep_until(bench_e2e::steady_at(due));
      traffic.submit(server, Phase::kOpen, due);
    }
    server.stop(serve::ServerCore::StopMode::kDrain);
    traffic.wait_all();
    p.open = server.stats();
  }
  return p;
}

void run_serving(const Options& opt, const std::string& run_dir,
                 Tracer& tracer, Result& res) {
  const WorkloadSpec& w = *opt.spec;
  const std::string fixture = ensure_fixture(opt.work_dir);
  const std::vector<std::string> names =
      w.one_workload
          ? std::vector<std::string>{kCoalescedWorkload}
          : workload::SpecSuite().names(workload::SplitRole::kTest);

  Engine::Options eopts;
  eopts.front_dir = run_dir;
  eopts.dse = dse_template(w);
  if (opt.trace) {
    eopts.dse.pre_eval_hook = [&tracer] {
      if (tl_span == 0) return;
      const int64_t t = now_ns();
      tracer.record("dse.generation", t, t, tl_session, tl_span);
    };
  }
  if (w.coalesce) {
    eopts.coalesce = serve::CoalesceOptions{
        .max_batch = 64, .wait_ticks = 2, .tick_ms = 1};
  }

  std::vector<SetupSample> setup(kSetupRepeats);
  std::unique_ptr<Serving> st;
  for (auto& sample : setup) {
    st.reset();
    st = set_up_serving(w, fixture, names, eopts, tracer, &sample);
  }
  std::vector<double> adapt_ms;
  for (const auto& name : names) {
    const int64_t t0 = now_ns();
    auto clone = st->fw->adapt_to(st->supports.at(name));
    adapt_ms.push_back(ms(now_ns() - t0));
    st->clones.insert_or_assign(name, std::move(clone));
  }
  const auto plans_before = nn::plan::PlanRegistry::instance().stats();
  const auto coalesce_before = st->engine->coalesce_stats();

  Traffic traffic(names, opt.seed, run_dir, tracer);
  const Phases phases =
      drive_traffic(w, opt, traffic.wrap(st->engine->executor()), traffic);
  const auto plans_after = nn::plan::PlanRegistry::instance().stats();
  const auto coalesce_after = st->engine->coalesce_stats();

  // -- accounting -------------------------------------------------------------
  for (const auto* s : {&phases.saturation, &phases.open}) {
    res.attempted += s->submitted;
    res.failed += s->submitted - s->ok;
    if (s->submitted !=
        s->ok + s->rejected + s->shed + s->deadline + s->stopped + s->failed) {
      res.fail("ServerStats partition broken");
    }
  }
  std::vector<uint64_t> ok_ids;
  std::vector<double> latency_ms, queue_ms, exec_ms, lag_ms;
  std::vector<double> sat_traced_ms, sat_untraced_ms;
  size_t sat_ok = 0;
  double sat_busy_ns = 0.0;
  int64_t sat_first_submit = INT64_MAX;
  int64_t sat_last_exit = INT64_MIN;
  for (uint64_t id = 0; id < traffic.size(); ++id) {
    const Slot& s = traffic.slot(id);
    if (!s.ok) continue;
    ok_ids.push_back(id);
    if (s.phase == Phase::kSaturation) {
      ++sat_ok;
      sat_first_submit = std::min(sat_first_submit, s.submit);
      sat_last_exit = std::max(sat_last_exit, s.exit);
      sat_busy_ns += static_cast<double>(s.exit - s.enter);
      (s.submit_span != 0 ? sat_traced_ms : sat_untraced_ms)
          .push_back(ms(s.exit - s.enter));
    } else if (s.phase == Phase::kOpen) {
      latency_ms.push_back(ms(s.exit - s.due));
      queue_ms.push_back(ms(s.enter - s.submit));
      exec_ms.push_back(ms(s.exit - s.enter));
      lag_ms.push_back(ms(s.submit - s.due));
    }
  }
  const double sat_wall_ns =
      sat_ok == 0 ? 0.0
                  : static_cast<double>(sat_last_exit - sat_first_submit);
  const double lag_p95 = quantile(lag_ms, 0.95);
  if (lag_p95 > kMaxLagP95Ms) {
    res.fail("open-loop generator lagged (p95 " + std::to_string(lag_p95) +
             " ms): the offered load was not the stated rate");
  }
  res.samples.push_back({"saturation_ok_sessions", sat_ok});
  res.samples.push_back({"open_loop_ok_sessions", latency_ms.size()});
  res.samples.push_back(
      {"quant_fallback_sessions",
       phases.saturation.quant_fallbacks + phases.open.quant_fallbacks});

  // -- correctness and front quality ------------------------------------------
  std::map<std::string, std::vector<explore::Objective>> oracle;
  for (const auto& name : names) oracle[name] = oracle_front(*st->fw, name);
  std::vector<double> adrs;
  for (uint64_t id : ok_ids) {
    if (traffic.slot(id).phase != Phase::kOpen) continue;
    const std::string& wl = traffic.workload_of(id);
    const auto front = read_file(st->engine->front_path(id));
    const auto a =
        front ? front_adrs(*st->fw, wl, *front, oracle.at(wl)) : std::nullopt;
    if (!a) {
      res.fail("session " + std::to_string(id) + ": front missing or empty");
      continue;
    }
    adrs.push_back(*a);
  }
  const ConfigLookup lookup(st->fw->space());
  Attribution attr;
  for (uint64_t id : check_sample(ok_ids)) {
    const std::string& wl = traffic.workload_of(id);
    ReplayInput in{*st->fw, st->clones.at(wl), st->supports.at(wl), wl,
                   dse_template(w)};
    in.dse.explorer.seed = traffic.slot(id).seed;
    const auto published = read_file(st->engine->front_path(id));
    core::SerialRegionGuard serial;  // replays run like a served session
    // Only a traced run pays for the journaled replay and the publication.
    const std::string journal = opt.trace ? run_dir + "/replay.journal" : "";
    const std::string publish = opt.trace ? run_dir + "/probe_front.txt" : "";
    if (!attr.check(in, published.value_or(""), journal, publish, lookup,
                    tracer, id)) {
      res.fail("session " + std::to_string(id) +
               ": published front differs from a direct run_dse");
    }
  }
  res.samples.push_back({"checked_sessions", attr.replayed()});

  if (!opt.trace) {
    report_end_to_end(setup,
                      ratio(static_cast<double>(sat_ok) * 1e9,
                            sat_wall_ns),
                      latency_ms, adrs, res);
    return;
  }

  // -- per-layer metrics (traced run) -----------------------------------------
  report_setup_layers(setup, res);
  res.add("meta.adapt_to_ms", median(adapt_ms), "ms");
  res.add("serve.queue_wait_p50_ms", quantile(queue_ms, 0.5), "ms");
  res.add("serve.queue_wait_p95_ms", quantile(queue_ms, 0.95), "ms");
  res.add("serve.exec_p50_ms", quantile(exec_ms, 0.5), "ms");
  res.add("serve.exec_p95_ms", quantile(exec_ms, 0.95), "ms");
  res.add("serve.worker_busy_share",
          ratio(sat_busy_ns, static_cast<double>(kWorkers) * sat_wall_ns),
          "ratio");
  res.add("serve.queue_high_water",
          static_cast<double>(std::max(phases.saturation.queue_high_water,
                                       phases.open.queue_high_water)),
          "count");
  res.add("serve.generator_lag_p95_ms", lag_p95, "ms");

  const auto hooks = generation_hooks(tracer);
  Generations gens;
  for (uint64_t id : ok_ids) {
    const Slot& s = traffic.slot(id);
    const auto it = hooks.find(id);
    if (s.phase == Phase::kOpen && it != hooks.end()) {
      gens.add(it->second, s.enter, s.exit);
    }
  }
  const size_t batches =
      coalesce_after.coalesced_batches - coalesce_before.coalesced_batches;
  res.add("serve.coalesce_batch_points_mean",
          ratio(static_cast<double>(coalesce_after.coalesced_points -
                                    coalesce_before.coalesced_points),
                static_cast<double>(batches)),
          "count");
  res.add("serve.coalesce_tick_flush_share",
          ratio(static_cast<double>(coalesce_after.flush_tick -
                                    coalesce_before.flush_tick),
                static_cast<double>(batches)),
          "ratio");
  // Served generations wait in the coalescer; replayed ones never do.
  res.add("serve.coalesce_wait_per_generation_ms",
          w.coalesce ? quantile(gens.generation_ms, 0.5) -
                           quantile(attr.generation_ms(), 0.5)
                     : 0.0,
          "ms");
  gens.report(res);
  attr.report(res);
  report_plans(plans_before, plans_after, traffic.size(), res);
  report_trace_overhead(sat_traced_ms, sat_untraced_ms, res);
}

// -- oneshot_pool -------------------------------------------------------------

void run_oneshot(const Options& opt, Tracer& tracer, Result& res) {
  const WorkloadSpec& w = *opt.spec;
  const workload::SpecSuite suite;
  std::vector<std::string> pretrain_names =
      suite.names(workload::SplitRole::kTrain);
  for (const auto& n : suite.names(workload::SplitRole::kValidation)) {
    pretrain_names.push_back(n);
  }
  const std::vector<std::string> names =
      suite.names(workload::SplitRole::kTest);

  // Set-up: the designer's pretrain (datasets + meta-training), repeated.
  std::vector<SetupSample> setup(kSetupRepeats);
  std::unique_ptr<core::MetaDseFramework> fw;
  for (auto& sample : setup) {
    fw.reset();
    nn::plan::PlanRegistry::instance().reset();
    const int64_t t0 = now_ns();
    fw = std::make_unique<core::MetaDseFramework>(oneshot_framework_options());
    fw->datasets(pretrain_names);
    const int64_t t1 = now_ns();
    fw->pretrain();
    const int64_t t2 = now_ns();
    tracer.record("data.pretrain_datasets", t0, t1, 0, 0);
    tracer.record("meta.pretrain", t1, t2, 0, 0);
    sample.pretrain_data = ms(t1 - t0);
    sample.pretrain = ms(t2 - t1);
  }
  const auto plans_before = nn::plan::PlanRegistry::instance().stats();

  // Session j serves test workload j mod 5, with its own K-shot support
  // and explorer seed drawn from S+j.
  auto support_of = [&](uint64_t j) {
    tensor::Rng rng(opt.seed + j);
    data::DatasetGenerator gen(fw->space());
    const std::string& name = names[j % names.size()];
    data::Dataset d = gen.generate(suite.by_name(name), kSupport, rng);
    d.workload = name;
    return d;
  };
  auto dse_of = [&](uint64_t j) {
    DseOptions dse = dse_template(w);
    dse.explorer.seed = opt.seed + j;
    return dse;
  };

  // Closed loop on the main thread, pool at full width. When tracing,
  // every other session runs untraced, for the tracing overhead.
  struct Session {
    int64_t start = 0, adapted = 0, end = 0;  // adapted: run_dse starts
    bool traced = false;
    std::string front;  ///< empty when it failed
  };
  std::vector<Session> sessions;
  const int64_t begin = now_ns();
  const int64_t end = begin + opt.seconds * 1000000000LL;
  for (uint64_t j = 0; j < kOneshotScored || now_ns() < end; ++j) {
    Session s;
    s.traced = tracer.enabled() && j % 2 == 1;
    const uint64_t span = s.traced ? tracer.next_id() : 0;
    DseOptions dse = dse_of(j);
    if (s.traced) {
      dse.pre_eval_hook = [&tracer, j, span] {
        const int64_t t = now_ns();
        tracer.record("dse.generation", t, t, j, span);
      };
    }
    s.start = now_ns();
    try {
      const data::Dataset support = support_of(j);
      const core::AdaptedPredictor adapted = fw->adapt_to(support);
      s.adapted = now_ns();
      s.front = Engine::format_front(
          fw->space(), fw->run_dse(adapted, support, support.workload, dse));
      s.end = now_ns();
      if (s.traced) {
        tracer.record("meta.adapt_to", s.start, s.adapted, j, span);
        tracer.record("oneshot.session", s.start, s.end, j, 0, span);
      }
    } catch (const std::exception& e) {
      ++res.failed;
      std::fprintf(stderr, "bench_e2e: oneshot session %llu failed: %s\n",
                   static_cast<unsigned long long>(j), e.what());
    }
    sessions.push_back(std::move(s));
  }
  const int64_t loop_end = now_ns();
  const auto plans_after = nn::plan::PlanRegistry::instance().stats();
  res.attempted = sessions.size();
  res.samples.push_back({"sessions", sessions.size()});

  std::vector<uint64_t> ok_ids;
  std::vector<double> latency_ms, adapt_ms, traced_ms, untraced_ms;
  for (uint64_t j = 0; j < sessions.size(); ++j) {
    const Session& s = sessions[j];
    if (s.front.empty()) continue;
    ok_ids.push_back(j);
    latency_ms.push_back(ms(s.end - s.start));
    adapt_ms.push_back(ms(s.adapted - s.start));
    (s.traced ? traced_ms : untraced_ms).push_back(latency_ms.back());
  }

  std::map<std::string, std::vector<explore::Objective>> oracle;
  for (const auto& name : names) oracle[name] = oracle_front(*fw, name);
  std::vector<double> adrs;
  for (uint64_t j : ok_ids) {
    if (j >= kOneshotScored) break;
    const std::string& wl = names[j % names.size()];
    const auto a = front_adrs(*fw, wl, sessions[j].front, oracle.at(wl));
    if (!a) {
      res.fail("oneshot session " + std::to_string(j) + ": empty front");
      continue;
    }
    adrs.push_back(*a);
  }
  const ConfigLookup lookup(fw->space());
  Attribution attr;
  for (uint64_t j : check_sample(ok_ids)) {
    const data::Dataset support = support_of(j);
    const core::AdaptedPredictor adapted = fw->adapt_to(support);
    const ReplayInput in{*fw, adapted, support, support.workload, dse_of(j)};
    if (!attr.check(in, sessions[j].front, "", "", lookup, tracer, j)) {
      res.fail("oneshot session " + std::to_string(j) +
               ": front differs from a direct run_dse");
    }
  }
  res.samples.push_back({"checked_sessions", attr.replayed()});

  if (!opt.trace) {
    report_end_to_end(setup,
                      ratio(static_cast<double>(ok_ids.size()) * 1e9,
                            static_cast<double>(loop_end - begin)),
                      latency_ms, adrs, res);
    return;
  }

  report_setup_layers(setup, res);
  res.add("meta.adapt_to_ms", median(adapt_ms), "ms");
  // No server in this flow: its layer metrics read 0.
  const std::pair<const char*, const char*> serve_layer[] = {
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p95_ms", "ms"},
      {"serve.exec_p50_ms", "ms"},
      {"serve.exec_p95_ms", "ms"},
      {"serve.worker_busy_share", "ratio"},
      {"serve.queue_high_water", "count"},
      {"serve.generator_lag_p95_ms", "ms"},
      {"serve.coalesce_batch_points_mean", "count"},
      {"serve.coalesce_tick_flush_share", "ratio"},
      {"serve.coalesce_wait_per_generation_ms", "ms"}};
  for (const auto& [name, unit] : serve_layer) res.add(name, 0.0, unit);
  const auto hooks = generation_hooks(tracer);
  Generations gens;
  for (uint64_t j : ok_ids) {
    const auto it = hooks.find(j);
    if (it != hooks.end()) {
      gens.add(it->second, sessions[j].adapted, sessions[j].end);
    }
  }
  gens.report(res);
  attr.report(res);
  report_plans(plans_before, plans_after, sessions.size(), res);
  report_trace_overhead(traced_ms, untraced_ms, res);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--make-fixture") == 0) {
    try {
      make_fixture(argv[2]);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: fixture pretrain failed: %s\n",
                   e.what());
      return 1;
    }
  }
  const Options opt = parse_options(argc, argv);
  const std::string run_dir =
      opt.work_dir + "/run_" + std::to_string(static_cast<long>(getpid()));
  Tracer tracer(opt.trace);
  Result res;
  std::string journal_fs;
  try {
    fs::create_directories(opt.work_dir);
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    journal_fs = filesystem_type(run_dir);
    if (opt.spec->serving) {
      run_serving(opt, run_dir, tracer, res);
    } else {
      run_oneshot(opt, tracer, res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(run_dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  const Host host = host_context(journal_fs);

  if (opt.trace) {
    const std::string path =
        !opt.trace_out.empty()
            ? opt.trace_out
            : opt.work_dir + "/trace_" + opt.spec->name + "_" +
                  std::to_string(opt.seed) + ".json";
    try {
      Tracer::write_chrome(path, tracer.collect());
      std::fprintf(stderr, "bench_e2e: trace written to %s\n", path.c_str());
    } catch (const std::exception& e) {
      res.fail(e.what());
    }
  }
  for (const auto& p : res.problems) {
    std::fprintf(stderr, "bench_e2e: CHECK FAILED: %s\n", p.c_str());
  }

  std::printf("host %s\n", host_json(host).c_str());
  for (const auto& [name, n] : res.samples) {
    std::printf("samples %s %zu\n", name.c_str(), n);
  }
  for (const auto& m : res.metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string metrics = metrics_json(res.metrics);
  if (!opt.out.empty()) {
    std::ostringstream os;
    os << "{\"workload\": \"" << opt.spec->name << "\", \"seed\": " << opt.seed
       << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"host\": " << host_json(host)
       << ", \"correct\": " << (res.correct ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"samples\": {";
    for (size_t i = 0; i < res.samples.size(); ++i) {
      os << (i ? ", " : "") << "\"" << res.samples[i].first
         << "\": " << res.samples[i].second;
    }
    os << "}, \"metrics\": " << metrics << "}\n";
    try {
      core::io::atomic_write_file(opt.out, os.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: cannot write %s: %s\n",
                   opt.out.c_str(), e.what());
      return 1;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      res.correct ? "true" : "false", res.attempted, res.failed,
      metrics.c_str());
  return res.correct ? 0 : 1;
}
