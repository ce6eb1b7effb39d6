// Wall-clock benchmark of the threaded and distributed engines on the paper
// circuits (README.md has the workloads, metrics and checks).
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//             [--workers <p>] [--deadlock-rounds <n>] [--tmp-dir <dir>]
//
// One process runs one workload: a cold set-up, then timed repetitions until
// --seconds have passed, then with --trace 1 one extra traced repetition.
// Every repetition builds the circuit afresh, runs the workload's engine,
// runs SequentialEngine alone on fresh copies of the design, and checks them
// against each other and against an independent model.  End-to-end metrics
// are medians over the timed repetitions, which run with tracing off.  The
// last line of stdout is the JSON result.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/dct.h"
#include "circuits/fsm.h"
#include "circuits/iir.h"
#include "models.h"
#include "obs/trace.h"
#include "partition/partition.h"
#include "pdes/distributed.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/kernel.h"
#include "vhdl/monitor.h"

namespace {

using namespace vsim;
using Clock = std::chrono::steady_clock;
using obs::Metric;
using vhdl::SignalId;

// Taken during static initialisation, before main(): the closest the
// program gets to its own start, so setup_s includes everything a user
// waits for before the first run() can begin.
const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

enum class Circuit { kFsm, kIir, kDct };

/// Sequential baseline runs per repetition, each pinned to the next CPU of
/// the process's affinity mask in turn.
constexpr std::size_t kSeqRuns = 4;

/// RunConfig::deadlock_rounds for the benchmark's engines.  At the default
/// of 3 the stall counter declares deadlock on healthy threaded runs now and
/// then (ROADMAP's false-deadlock flake; README.md, "Checks").  A real
/// deadlock stalls every round, so it is still caught, a few milliseconds
/// later.
constexpr std::uint32_t kDeadlockRounds = 1000;

/// Event budget of the traced repetition's session.  Beyond it events are
/// dropped, which fails the traced repetition.
constexpr std::size_t kTraceBudget = std::size_t{1} << 23;

enum class EngineKind { kThreaded, kDistributed };

struct Workload {
  const char* name;
  Circuit circuit;
  EngineKind engine;
  pdes::Configuration config;
  PhysTime until;  ///< sized so one engine run() takes about a second
};

const Workload kWorkloads[] = {
    {"fsm-delta-dynamic", Circuit::kFsm, EngineKind::kThreaded,
     pdes::Configuration::kDynamic, 12000},
    {"dct-conservative", Circuit::kDct, EngineKind::kThreaded,
     pdes::Configuration::kAllConservative, 16000},
    {"iir-distributed", Circuit::kIir, EngineKind::kDistributed,
     pdes::Configuration::kDynamic, 10000},
};

/// The circuits' input seeds.  Without --seed they are the generators'
/// defaults; --seed n shifts each by 1,000,000 n.  Repetition i of a run
/// shifts them by 16 i more, past the 16 per-bit streams a circuit seeds
/// from one value, so every repetition runs on inputs of its own: the
/// event rates differ from input to input, and a median over many inputs
/// does not depend on which --seed a run was given.
struct Seeds {
  std::uint64_t fsm = circuits::FsmParams{}.input_seed;
  std::uint64_t iir = circuits::IirParams{}.input_seed;
  std::uint64_t dct = circuits::DctParams{}.input_seed;

  [[nodiscard]] Seeds shifted(std::uint64_t by) const {
    return {fsm + by, iir + by, dct + by};
  }
};

// ---------------------------------------------------------------------------
// Circuit construction and output checks

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<vhdl::TraceRecorder> recorder;
};

/// Builds the workload's circuit with a recorder on the nets the model
/// checks.  Probe order per circuit:
///   FSM: din, state (lane 0 LSB first ... lane 9), parity
///   IIR: x, g0.q, sec0.z.q .. sec3.z.q, y
///   DCT: a0 .. a3, acc(0,0) .. acc(3,3)
Built build(const Workload& w, const Seeds& seeds) {
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  std::vector<SignalId> probes;
  switch (w.circuit) {
    case Circuit::kFsm: {
      circuits::FsmParams p;
      p.input_seed = seeds.fsm;
      const auto c = circuits::build_fsm(*b.design, p);
      probes.push_back(c.input);
      probes.insert(probes.end(), c.state.begin(), c.state.end());
      probes.push_back(c.parity);
      break;
    }
    case Circuit::kIir: {
      circuits::IirParams p;
      p.input_seed = seeds.iir;
      const auto c = circuits::build_iir(*b.design, p);
      probes = c.input;
      for (std::size_t s = 0; s < p.sections; ++s) {
        const std::string bank = s == 0 ? "g0" : "sec" + std::to_string(s - 1) + ".z";
        for (std::size_t i = 0; i < p.width; ++i)
          probes.push_back(
              b.design->find_signal(bank + ".q" + std::to_string(i)));
      }
      probes.insert(probes.end(), c.output.begin(), c.output.end());
      break;
    }
    case Circuit::kDct: {
      circuits::DctParams p;
      p.input_seed = seeds.dct;
      const auto c = circuits::build_dct(*b.design, p);
      for (const auto& row : c.inputs)
        probes.insert(probes.end(), row.begin(), row.end());
      for (const auto& row : c.acc)
        probes.insert(probes.end(), row.begin(), row.end());
      break;
    }
  }
  b.recorder = std::make_unique<vhdl::TraceRecorder>(*b.design, probes);
  return b;
}

/// Probes [first, first + count) of `rec` as model waves.  `initial` is the
/// nets' declared initial value (0 for inputs and registers, -1 for 'U').
perfbench::Bus waves(const vhdl::TraceRecorder& rec, std::size_t first,
                     std::size_t count, int initial, std::string* err) {
  perfbench::Bus bus(count);
  for (std::size_t i = 0; i < count; ++i) {
    perfbench::Wave& wave = bus[i];
    wave.initial = initial;
    for (const vhdl::TraceEntry& e : rec.trace(first + i)) {
      if (!wave.changes.empty() && e.ts.pt < wave.changes.back().first)
        *err = "trace of " + rec.signal_name(first + i) + " not in time order";
      const Logic v = e.value.scalar();
      wave.changes.emplace_back(e.ts.pt,
                                v == Logic::k0 ? 0 : v == Logic::k1 ? 1 : -1);
    }
  }
  return bus;
}

/// Checks the committed traces against the circuit's independent model.
std::string check_model(const Workload& w, const vhdl::TraceRecorder& rec) {
  std::string err;
  std::string model;
  switch (w.circuit) {
    case Circuit::kFsm: {
      const circuits::FsmParams p;
      const std::size_t nstate = p.lanes * p.width;
      const auto din = waves(rec, 0, 1, 0, &err);
      const auto state = waves(rec, 1, nstate, 0, &err);
      const auto parity = waves(rec, 1 + nstate, 1, -1, &err);
      model = perfbench::check_fsm(p.lanes, p.width, {p.clock_half, w.until},
                                   din[0], state, parity[0]);
      break;
    }
    case Circuit::kIir: {
      const circuits::IirParams p;
      const auto x = waves(rec, 0, p.width, 0, &err);
      std::vector<perfbench::Bus> regs;
      for (std::size_t s = 0; s < p.sections; ++s)
        regs.push_back(waves(rec, (1 + s) * p.width, p.width, 0, &err));
      const auto y = waves(rec, (1 + p.sections) * p.width, p.width, -1, &err);
      model = perfbench::check_iir(p.width, p.sections,
                                   {p.clock_half, w.until}, x, regs, y);
      break;
    }
    case Circuit::kDct: {
      const circuits::DctParams p;
      std::vector<perfbench::Bus> a, acc;
      for (std::size_t i = 0; i < p.n; ++i)
        a.push_back(waves(rec, i * p.width, p.width, 0, &err));
      for (std::size_t c = 0; c < p.n * p.n; ++c)
        acc.push_back(waves(rec, (p.n + c) * p.width, p.width, 0, &err));
      model = perfbench::check_dct(p.n, p.width, {p.clock_half, w.until}, a,
                                   acc);
      break;
    }
  }
  return err.empty() ? model : err;
}

/// Run-level failures: the engine did not finish the run it was asked for.
std::string run_error(const pdes::RunStats& st) {
  if (st.config_error) return "config_error: " + st.config_error->str();
  if (st.deadlocked) return "deadlocked";
  if (st.transport_error) return "transport_error: " + st.transport_error->str();
  if (st.recovery_error) return "recovery_error: " + st.recovery_error->str();
  return {};
}

// ---------------------------------------------------------------------------
// Rank-process and socket-file leftovers (distributed engine)

/// Pids of this process's children, live or zombie, from /proc.
std::vector<pid_t> child_pids() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = e.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream stat(e.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    const auto rp = line.rfind(')');
    if (rp == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(line.c_str() + rp + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == self)
      out.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return out;
}

/// Empty when run() left no child process (live or unreaped) and no entry
/// in the engine's socket directory root; otherwise describes the leftovers
/// and removes them, so later repetitions start clean.
std::string leftovers(const std::filesystem::path& sock_root) {
  std::string err;
  const std::vector<pid_t> kids = child_pids();
  if (!kids.empty()) {
    err = std::to_string(kids.size()) + " rank process(es) left behind";
    for (pid_t p : kids) ::kill(p, SIGKILL);
    for (pid_t p : kids) ::waitpid(p, nullptr, 0);
  }
  std::error_code ec;
  std::size_t files = 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(sock_root, ec)) {
    (void)e;
    ++files;
  }
  if (files > 0) {
    if (!err.empty()) err += "; ";
    err += std::to_string(files) + " socket dir entries left behind";
    for (const auto& e : std::filesystem::directory_iterator(sock_root, ec))
      std::filesystem::remove_all(e.path(), ec);
  }
  return err;
}

// ---------------------------------------------------------------------------
// Repetitions

/// The engine under test, behind the two calls the benchmark makes.
struct Engine {
  std::unique_ptr<pdes::ThreadedEngine> threaded;
  std::unique_ptr<pdes::DistributedEngine> distributed;

  void set_commit_hook(std::function<void(const pdes::Event&)> hook) {
    if (threaded) threaded->set_commit_hook(std::move(hook));
    else distributed->set_commit_hook(std::move(hook));
  }
  pdes::RunStats run() {
    return threaded ? threaded->run() : distributed->run();
  }
};

struct SetupTimes {
  double build_s = 0, finalize_s = 0, place_s = 0, construct_s = 0;
};

struct Prepared {
  Built built;
  Engine engine;
  SetupTimes t;
};

/// Circuit build, finalize, placement and engine construction, each timed.
Prepared prepare(const Workload& w, const Seeds& seeds,
                 const pdes::RunConfig& rc) {
  Prepared p;
  auto t0 = Clock::now();
  p.built = build(w, seeds);
  p.t.build_s = since(t0);
  t0 = Clock::now();
  p.built.design->finalize();
  p.t.finalize_s = since(t0);
  t0 = Clock::now();
  pdes::Partition part =
      partition::round_robin(p.built.graph->size(), rc.num_workers);
  p.t.place_s = since(t0);
  t0 = Clock::now();
  if (w.engine == EngineKind::kThreaded)
    p.engine.threaded = std::make_unique<pdes::ThreadedEngine>(
        *p.built.graph, std::move(part), rc);
  else
    p.engine.distributed = std::make_unique<pdes::DistributedEngine>(
        *p.built.graph, std::move(part), rc);
  p.t.construct_s = since(t0);
  return p;
}

struct Rep {
  double run_s = 0;
  double total_s = 0;  ///< the whole repetition, checks included
  std::vector<double> seq_run_s;  ///< one per sequential run
  std::uint64_t committed = 0, seq_committed = 0;
  obs::MetricsSnapshot metrics;
  std::uint64_t trace_dropped = 0;  ///< trace events over the session budget
  std::string failure;        ///< empty when every check passed
  bool wrong_output = false;  ///< the run finished but its outputs are wrong
};

/// Largest resident set so far of this process and of its reaped children
/// (the distributed engine's ranks), in MB.  This process's own peak is
/// VmHWM, not getrusage: ru_maxrss keeps the peak of the image before exec,
/// which is the launching interpreter's when run.py starts the program.
double peak_rss_mb() {
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  struct rusage kids {};
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

void print_rep(const char* label, const Rep& r) {
  std::printf("%s: run %.4f s, committed %llu, gvt_rounds %llu, seq %.4f s, "
              "total %.4f s%s%s\n",
              label, r.run_s, static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(
                  r.metrics.counter(Metric::kGvtRounds)),
              median(r.seq_run_s), r.total_s, r.failure.empty() ? "" : ", FAILED: ",
              r.failure.c_str());
  std::fflush(stdout);
}

struct HookTimer {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

/// The CPUs this process may run on, from its affinity mask.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pins the calling thread to `cpus` (all of them when empty) and returns
/// true on success.  Threads and processes started later inherit the mask,
/// so every pin is undone before the next engine run.
bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

struct Context {
  const Workload* w = nullptr;
  Seeds seeds;
  pdes::RunConfig rc;
  std::vector<int> cpus;  ///< allowed_cpus() at start
  std::filesystem::path sock_root;  ///< $TMPDIR of the distributed engine
};

/// One repetition: the engine's run(), then the sequential baseline on
/// fresh copies of the design, then every check.  `index` counts the
/// repetitions of the run and picks their inputs and the baseline's CPUs.
/// With `session` the engine records into it, and it is flushed while the
/// engine and design its LP labels refer to are still alive; with `hook_timer` the
/// recorder's commit hook is timed call by call.  With `rss_mb`, the peak
/// resident set is read once the engine is gone and before any sequential
/// copy is built.
Rep run_rep(const Context& cx, std::size_t index,
            std::unique_ptr<obs::TraceSession> session, HookTimer* hook_timer,
            double* rss_mb) {
  const Workload& w = *cx.w;
  const auto rep_start = Clock::now();
  Rep r;
  pdes::RunConfig rc = cx.rc;
  rc.trace = session.get();
  const Seeds seeds = cx.seeds.shifted(16 * index);
  Prepared p = prepare(w, seeds, rc);
  auto hook = p.built.recorder->hook();
  if (hook_timer != nullptr) {
    hook = [inner = std::move(hook), hook_timer](const pdes::Event& ev) {
      const auto t0 = Clock::now();
      inner(ev);
      hook_timer->ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count()),
          std::memory_order_relaxed);
      hook_timer->calls.fetch_add(1, std::memory_order_relaxed);
    };
  }
  p.engine.set_commit_hook(std::move(hook));
  auto t0 = Clock::now();
  const pdes::RunStats st = p.engine.run();
  r.run_s = since(t0);
  // The session is flushed first: its LP-label resolver refers to the
  // engine's graph.
  if (session) {
    r.trace_dropped = session->dropped();
    session.reset();
  }
  p.engine = Engine{};  // the distributed engine reaps its ranks here
  if (rss_mb != nullptr) *rss_mb = peak_rss_mb();
  r.metrics = st.metrics;
  r.committed = st.metrics.counter(Metric::kEventsCommitted);

  std::vector<std::string> fails;
  const std::string err = run_error(st);
  if (!err.empty()) fails.push_back(err);
  if (w.engine == EngineKind::kDistributed) {
    const std::string left = leftovers(cx.sock_root);
    if (!left.empty()) fails.push_back(left);
  }

  // The sequential baseline: kSeqRuns runs, each alone on a fresh copy of
  // the design and pinned to the next allowed CPU, round-robin across
  // repetitions.  Single-thread speed differs between the host's cores and
  // drifts over time; the parallel engine averages over its cores, and so
  // does the baseline (README.md, "Steadiness").
  std::uint64_t seq_processed = 0;
  for (std::size_t i = 0; i < kSeqRuns; ++i) {
    const int cpu = cx.cpus[(index * kSeqRuns + i) % cx.cpus.size()];
    const bool pinned = cx.cpus.size() > 1 && pin_to({cpu});
    Built sb = build(w, seeds);
    sb.design->finalize();
    pdes::SequentialEngine seq(*sb.graph);
    seq.set_commit_hook(sb.recorder->hook());
    const auto s0 = Clock::now();
    const pdes::RunStats sst = seq.run(w.until).stats;
    r.seq_run_s.push_back(since(s0));
    if (pinned && !pin_to(cx.cpus)) {
      fails.push_back("could not restore the CPU affinity mask");
      break;
    }
    r.seq_committed = sst.metrics.counter(Metric::kEventsCommitted);
    seq_processed = sst.metrics.counter(Metric::kEventsProcessed);
    const std::string seq_model = check_model(w, *sb.recorder);
    if (!seq_model.empty()) {
      fails.push_back("sequential vs model: " + seq_model);
      r.wrong_output = true;
    }
    if (!err.empty()) continue;
    const std::string diff =
        vhdl::TraceRecorder::diff(*sb.recorder, *p.built.recorder);
    if (!diff.empty()) {
      fails.push_back("trace diff vs sequential: " + diff);
      r.wrong_output = true;
    }
  }

  if (err.empty()) {
    const auto& m = st.metrics;
    const std::uint64_t processed = m.counter(Metric::kEventsProcessed);
    const std::uint64_t undone = m.counter(Metric::kEventsUndone) +
                                 m.counter(Metric::kCheckpointUndone);
    if (processed < undone || processed - undone != r.committed ||
        r.committed != seq_processed) {
      fails.push_back("conservation: processed " + std::to_string(processed) +
                      " - undone " + std::to_string(undone) +
                      ", committed " + std::to_string(r.committed) +
                      ", sequential " + std::to_string(seq_processed));
      r.wrong_output = true;
    }
    const std::string model = check_model(w, *p.built.recorder);
    if (!model.empty()) {
      fails.push_back("engine vs model: " + model);
      r.wrong_output = true;
    }
  }
  r.total_s = since(rep_start);
  for (const std::string& f : fails) r.failure += (r.failure.empty() ? "" : "; ") + f;
  return r;
}

/// Sums the durations of the 'X' spans of category `execute` and `gvt` in
/// a Chrome trace document (one event per line, as obs::Tracer writes it),
/// and counts its lines.
struct SpanSums {
  double execute_us = 0, gvt_us = 0;
  std::size_t lines = 0;
};
SpanSums sum_spans(std::string_view json) {
  SpanSums s;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string_view::npos) end = json.size();
    const std::string_view line = json.substr(pos, end - pos);
    pos = end + 1;
    ++s.lines;
    if (line.find("\"ph\":\"X\"") == std::string_view::npos) continue;
    const bool exec = line.find("\"cat\":\"execute\"") != std::string_view::npos;
    const bool gvt = !exec && line.find("\"cat\":\"gvt\"") != std::string_view::npos;
    if (!exec && !gvt) continue;
    const std::size_t d = line.find("\"dur\":");
    if (d == std::string_view::npos) continue;
    const double dur = std::strtod(std::string(line.substr(d + 6, 32)).c_str(), nullptr);
    (exec ? s.execute_us : s.gvt_us) += dur;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricOut>& metrics) {
  for (const MetricOut& m : metrics)
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed n] "
               "[--seconds s] [--trace 0|1] [--workers p] "
               "[--deadlock-rounds n] [--tmp-dir dir]\n"
               "workloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  Seeds seeds;
  double seconds = 10;
  bool trace = false;
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  std::size_t workers = std::min<std::size_t>(4, nproc);
  std::uint32_t deadlock_rounds = kDeadlockRounds;
  std::filesystem::path tmp_dir = ".bench_build/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const Workload& cand : kWorkloads)
          if (v == cand.name) w = &cand;
        if (w == nullptr) usage(("unknown workload " + v).c_str());
      } else if (a == "--seed") {
        const std::uint64_t n = std::stoull(v);
        seeds = seeds.shifted(1000000 * n);
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = v == "1";
      } else if (a == "--workers") {
        workers = std::stoul(v);
        if (workers < 1 || workers > nproc) usage("--workers must be 1..nproc");
      } else if (a == "--deadlock-rounds") {
        deadlock_rounds = static_cast<std::uint32_t>(std::stoul(v));
        if (deadlock_rounds < 1) usage("--deadlock-rounds must be >= 1");
      } else if (a == "--tmp-dir") {
        tmp_dir = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {  // std::sto* on a malformed number
      usage(("bad value for " + a).c_str());
    }
  }
  if (w == nullptr) usage("--workload is required");

  Context cx;
  cx.w = w;
  cx.seeds = seeds;
  cx.rc.num_workers = workers;
  cx.cpus = allowed_cpus();
  if (cx.cpus.empty()) cx.cpus = {0};
  cx.rc.configuration = w->config;
  cx.rc.until = w->until;
  cx.rc.deadlock_rounds = deadlock_rounds;
  if (w->engine == EngineKind::kDistributed) {
    // The engine makes its socket directory under $TMPDIR.  A relative path
    // inside the checkout keeps the socket paths short and the files local.
    cx.sock_root = tmp_dir / std::to_string(::getpid());
    std::filesystem::create_directories(cx.sock_root);
    ::setenv("TMPDIR", cx.sock_root.c_str(), 1);
  }

  // Cold set-up; on the distributed engine it includes a run() to time 0
  // (fork, mesh-up, go-frame, teardown).
  pdes::RunConfig rc0 = cx.rc;
  double startup_s = 0;
  SetupTimes cold;
  {
    if (w->engine == EngineKind::kDistributed) rc0.until = 0;
    Prepared p = prepare(*w, seeds, rc0);
    cold = p.t;
    if (w->engine == EngineKind::kDistributed) {
      const auto t0 = Clock::now();
      const pdes::RunStats st = p.engine.run();
      p.engine = Engine{};
      startup_s = since(t0);
      std::string err = run_error(st);
      const std::string left = leftovers(cx.sock_root);
      if (!left.empty()) err += (err.empty() ? "" : "; ") + left;
      if (!err.empty()) {
        std::fprintf(stderr, "perfbench: start-up run failed: %s\n",
                     err.c_str());
        return 1;
      }
    }
  }
  const double setup_s = since(g_process_start);

  std::vector<Rep> reps;
  double rss_mb = 0;
  const auto m0 = Clock::now();
  while (since(m0) < seconds || reps.size() < 3) {
    reps.push_back(run_rep(cx, reps.size(), nullptr, nullptr,
                           reps.empty() ? &rss_mb : nullptr));
    print_rep("rep", reps.back());
  }

  std::size_t attempted = reps.size();
  std::size_t failed = 0;
  bool correct = true;
  for (const Rep& r : reps) {
    if (!r.failure.empty()) ++failed;
    if (r.wrong_output) correct = false;
  }
  // Medians over the repetitions that passed every check.
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const Rep& r : reps)
      if (r.failure.empty()) v.push_back(static_cast<double>(f(r)));
    return median(std::move(v));
  };
  auto seq_med = [&](auto f) {
    std::vector<double> v;
    for (const Rep& r : reps)
      if (r.failure.empty())
        for (double t : r.seq_run_s) v.push_back(f(r, t));
    return median(std::move(v));
  };
  std::vector<MetricOut> out;

  if (!trace) {
    // The speedup pairs the engine run with the sequential runs of the same
    // repetition, seconds apart, so most of the host's speed drift (up to
    // 1.5x over minutes) cancels out of it; the two event rates it is made
    // of are per-layer metrics (README.md, "Steadiness").
    out = {
        {"speedup",
         med([](const Rep& r) { return median(r.seq_run_s) / r.run_s; }), "x"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // The traced repetition: an in-memory session on the threaded engine
    // (the distributed engine emits no spans) and a timed commit hook.
    obs::Tracer tracer("", kTraceBudget);
    HookTimer hook_timer;
    const Rep tr = run_rep(cx, reps.size(),
                           w->engine == EngineKind::kThreaded
                               ? tracer.session(w->name, workers)
                               : nullptr,
                           &hook_timer, nullptr);
    print_rep("traced rep", tr);
    const SpanSums spans = sum_spans(tracer.to_json());
    std::printf("traced rep: %zu trace lines, budget %zu events\n",
                spans.lines, kTraceBudget);
    ++attempted;
    if (!tr.failure.empty()) ++failed;
    if (tr.wrong_output) correct = false;
    const std::uint64_t dropped = tr.trace_dropped;
    const double untraced_run_s = med([](const Rep& r) { return r.run_s; });

    auto counter = [&](Metric m) {
      return med([m](const Rep& r) { return r.metrics.counter(m); });
    };
    auto gauge = [&](obs::Gauge g) {
      return med([g](const Rep& r) { return r.metrics.gauge(g); });
    };
    const double execute_s = spans.execute_us * 1e-6;
    const double gvt_s = spans.gvt_us * 1e-6;
    out = {
        {"circuits.build_s", cold.build_s, "s"},
        {"vhdl.finalize_s", cold.finalize_s, "s"},
        {"partition.place_s", cold.place_s, "s"},
        {"pdes.construct_s", cold.construct_s, "s"},
        {"net.startup_s", startup_s, "s"},
        {"pdes.run_s", untraced_run_s, "s"},
        {"committed_events_per_s",
         med([](const Rep& r) { return r.committed / r.run_s; }), "events/s"},
        {"pdes.seq_run_s", seq_med([](const Rep&, double t) { return t; }),
         "s"},
        {"seq_committed_events_per_s",
         seq_med([](const Rep& r, double t) { return r.seq_committed / t; }),
         "events/s"},
        {"engine.events_processed", counter(Metric::kEventsProcessed), "count"},
        {"engine.events_committed", counter(Metric::kEventsCommitted), "count"},
        {"engine.efficiency",
         med([](const Rep& r) {
           return static_cast<double>(r.committed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, r.metrics.counter(Metric::kEventsProcessed)));
         }),
         "ratio"},
        {"engine.gvt_rounds", counter(Metric::kGvtRounds), "count"},
        {"engine.events_per_gvt_round",
         med([](const Rep& r) {
           return static_cast<double>(
                      r.metrics.counter(Metric::kEventsProcessed)) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, r.metrics.counter(Metric::kGvtRounds)));
         }),
         "events"},
        {"engine.blocked_polls", counter(Metric::kBlockedPolls), "count"},
        {"engine.queue_ops", counter(Metric::kQueueOps), "count"},
        {"tw.rollbacks", counter(Metric::kRollbacks), "count"},
        {"tw.events_undone", counter(Metric::kEventsUndone), "count"},
        {"tw.anti_messages", counter(Metric::kAntiMessages), "count"},
        {"tw.state_saves", counter(Metric::kStateSaves), "count"},
        {"tw.peak_history", gauge(obs::Gauge::kPeakHistory), "entries"},
        {"tw.total_history", gauge(obs::Gauge::kTotalHistory), "entries"},
        {"adapt.demotions", counter(Metric::kAdaptDemotions), "count"},
        {"adapt.promotions", counter(Metric::kAdaptPromotions), "count"},
        {"adapt.optimistic_fraction",
         gauge(obs::Gauge::kAdaptOptimisticFraction), "ratio"},
        {"net.messages_remote", counter(Metric::kMessagesRemote), "count"},
        {"net.null_messages", counter(Metric::kNullMessages), "count"},
        {"net.mailbox_batches", counter(Metric::kMailboxBatches), "count"},
        {"net.batch_size",
         med([](const Rep& r) {
           const obs::Histogram& h = r.metrics.histogram(obs::Hist::kBatchSize);
           return h.count ? h.sum / static_cast<double>(h.count) : 0.0;
         }),
         "packets"},
        {"net.frames_sent", counter(Metric::kNetFramesSent), "count"},
        {"net.frames_recv", counter(Metric::kNetFramesRecv), "count"},
        {"transport.data_sent", counter(Metric::kTransportDataSent), "count"},
        {"transport.acks_sent", counter(Metric::kTransportAcksSent), "count"},
        {"transport.retransmits", counter(Metric::kTransportRetransmits),
         "count"},
        {"trace.execute_s", execute_s, "s"},
        {"trace.gvt_s", gvt_s, "s"},
        {"trace.other_s",
         w->engine == EngineKind::kThreaded
             ? static_cast<double>(workers) * tr.run_s - execute_s - gvt_s
             : 0.0,
         "s"},
        {"trace.run_s", tr.run_s, "s"},
        {"trace.overhead_s", tr.run_s - untraced_run_s, "s"},
        {"trace.dropped_events", static_cast<double>(dropped), "count"},
        {"vhdl.commit_hook_s", static_cast<double>(hook_timer.ns.load()) * 1e-9,
         "s"},
        {"vhdl.commit_hook_calls", static_cast<double>(hook_timer.calls.load()),
         "count"},
    };
    if (dropped > 0 && tr.failure.empty()) ++failed;
  }

  if (!cx.sock_root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(cx.sock_root, ec);
  }
  print_result(correct, attempted, failed, out);
  return 0;
}
