// perfbench — end-to-end wall-clock benchmark of miniarc, with an optional
// traced run that splits every operation into per-layer self times.
//
//   perfbench --workload optimize_loop|verify_kernels|serve_mix
//             --seed N --seconds S --trace 0|1
//             [--expected FILE] [--spans-out FILE] [--write-expected FILE]
//
// Workloads (perfbench/README.md records why each was chosen):
//   optimize_loop   one operation = InteractiveOptimizer::optimize on one
//                   unoptimized suite program, then a run of the program it
//                   produced; a pass covers all 12 programs in seed order.
//   verify_kernels  one operation = the sequential host reference run, the
//                   kernel verification of the optimized variant and of its
//                   fault-injected (clauses stripped) twin.
//   serve_mix       one operation = one ServiceCore request, timed from
//                   submit until its future is ready; a pass is a fixed,
//                   seeded batch of requests driven in a closed loop.
//
// Every layer is timed from outside, around calls into public functions; the
// program's own phase spans are not used. Counts (statements, launches,
// bytes, virtual time, rounds, verdicts) come from the first measured pass,
// summed in a fixed order, so they repeat exactly for any seed and any run
// length. Virtual time is checked for equality, never treated as a speed.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status is 0 only when every operation passed its check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "miniarc.h"

extern char** environ;

namespace {

using namespace miniarc;

/// A second seed, kept out of development runs, for checking a claimed gain
/// on inputs the change was not tuned on.
constexpr unsigned long long kHoldoutSeed = 104729;
/// Set-up is repeated at least this many times, and for at least
/// kSetupSeconds, per run; setup_s is the median.
constexpr std::size_t kSetupRepeats = 9;
constexpr double kSetupSeconds = 1.0;
/// Every run measures at least this many passes, however short --seconds.
constexpr int kMinPasses = 3;
/// Cap on virtual-clock trace events per traced run; a harvested run that
/// drops events makes the benchmark fail rather than under-count.
constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 20;

// ---------------------------------------------------------------------------
// Clock, spans and small statistics.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

struct Span {
  const char* name;
  int parent;
  long op;  // operation id; -1 for set-up
  double start_us;
  double end_us;
};

/// In-memory span recorder. Spans on the benchmark thread nest through a
/// stack; concurrent spans (service requests) are added whole under the
/// current top. Off, every call is one branch.
class Tracer {
 public:
  bool on = false;

  int open(const char* name, long op) {
    if (!on) return -1;
    int id = static_cast<int>(spans_.size());
    spans_.push_back({name, top(), op, now_us(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void close(int id, const char* rename = nullptr) {
    if (id < 0) return;
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("perfbench: span closed out of order");
    }
    spans_[id].end_us = now_us();
    if (rename != nullptr) spans_[id].name = rename;
    stack_.pop_back();
  }
  void add(const char* name, long op, double start_us, double end_us) {
    if (!on) return;
    spans_.push_back({name, top(), op, start_us, end_us});
  }

  /// Self time (span minus its children) summed per name, in ms, over the
  /// spans of operations (op >= 0) or of set-up (op < 0).
  [[nodiscard]] std::map<std::string, double> self_ms(bool setup) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if ((s.op < 0) != setup) continue;
      out[s.name] += (s.end_us - s.start_us - child[i]) / 1e3;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"op\":%ld,"
                    "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    i, s.name, s.parent, s.op, s.start_us, s.end_us);
      out << line;
    }
  }

 private:
  [[nodiscard]] int top() const { return stack_.empty() ? -1 : stack_.back(); }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, long op)
      : tracer_(tracer), id_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host-speed reference.
//
// On a shared host, co-tenants slow this benchmark's user-mode code by up to
// 2x for minutes at a time, with no steal time: the process's CPU time
// equals its wall time, so the loss is in cache and core contention. Medians
// within a run cannot remove a slowdown that covers the whole run. So the
// timed figures of a run are rescaled to a fixed host speed: multiplied by
// kReferenceMs and divided by the median time of this reference kernel,
// sampled between the operations of the run (set-up: between set-ups). The
// kernel is built from this file alone, so no change to the program under
// test can move it. It does to the memory system what miniarc's interpreter
// does -- string-keyed unordered_map lookups and updates, a walk over
// heap-scattered expression trees, random reads of a table larger than the
// private caches -- so contention slows it much as it slows the program.
// The raw reference times are printed in the summary line.

/// The host speed figures are rescaled to: a reference-kernel time, in ms,
/// near the kernel's median on the development box (Intel Xeon 2.1 GHz,
/// 4 vCPUs).
constexpr double kReferenceMs = 3.0;

class HostReference {
 public:
  HostReference() {
    std::mt19937 rng(12345);
    for (int i = 0; i < kVars; ++i) {
      names_.push_back("var_" + std::to_string(i * 7919));
    }
    for (int i = 0; i < kTrees; ++i) roots_.push_back(make(rng, kDepth));
    // Scatter the nodes over the heap, as a parsed program's are.
    std::shuffle(nodes_.begin(), nodes_.end(), rng);
    table_.resize(kTableSize);
    for (std::uint32_t& t : table_) t = rng();
  }

  /// Runs the kernel once; its wall time in ms.
  double sample_ms() {
    double t0 = now_us();
    std::unordered_map<std::string, double> env;
    for (int i = 0; i < kVars; ++i) env[names_[i]] = i;
    double acc = 0.0;
    std::uint32_t idx = 1;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (const Node* root : roots_) {
        acc += eval(*root, env);
        for (std::uint32_t j = 0; j < kReadsPerTree; ++j) {
          idx = table_[idx & (kTableSize - 1)] ^ j;
          acc += idx & 1u;
        }
      }
    }
    sink_ = acc;
    return (now_us() - t0) / 1e3;
  }

 private:
  static constexpr int kVars = 96;
  static constexpr int kTrees = 64;
  static constexpr int kDepth = 6;
  static constexpr int kRepeats = 6;
  static constexpr std::uint32_t kReadsPerTree = 64;
  static constexpr std::size_t kTableSize = std::size_t{1} << 21;  // 8 MiB

  struct Node {
    int kind;  // 0 variable, 1 constant, 2 add, 3 sub, 4 assign-and-add
    int var;
    double k;
    const Node* a;
    const Node* b;
  };

  const Node* make(std::mt19937& rng, int depth) {
    auto n = std::make_unique<Node>();
    n->var = static_cast<int>(rng() % kVars);
    if (depth == 0) {
      n->kind = static_cast<int>(rng() % 2);
      n->k = static_cast<double>(rng() % 100) / 10.0;
      n->a = n->b = nullptr;
    } else {
      n->kind = 2 + static_cast<int>(rng() % 3);
      n->k = 0.0;
      n->a = make(rng, depth - 1);
      n->b = make(rng, depth - 1);
    }
    nodes_.push_back(std::move(n));
    return nodes_.back().get();
  }

  double eval(const Node& n, std::unordered_map<std::string, double>& env) {
    switch (n.kind) {
      case 0: return env[names_[n.var]];
      case 1: return n.k;
      case 2: return eval(*n.a, env) + eval(*n.b, env);
      case 3: return eval(*n.a, env) * 0.5 - eval(*n.b, env);
      default: {
        double v = eval(*n.a, env);
        env[names_[n.var]] = v * 0.25 + 1.0;
        return v + eval(*n.b, env);
      }
    }
  }

  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<const Node*> roots_;
  std::vector<std::uint32_t> table_;
  volatile double sink_ = 0.0;
};

/// Factor that rescales times measured among these reference samples to the
/// reference host speed.
double host_scale(const std::vector<double>& ref_ms) {
  return kReferenceMs / median(ref_ms);
}

// ---------------------------------------------------------------------------
// Environment pinning: every MINIARC_* knob that could reshape a workload is
// cleared, then the serial-engine defaults are set explicitly.

constexpr const char* kReportedKnobs[] = {"MINIARC_THREADS", "MINIARC_EXEC",
                                          "MINIARC_FAULTS", "MINIARC_TRACE",
                                          "MINIARC_JOBS"};

void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string entry = *e;
    if (entry.rfind("MINIARC_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("MINIARC_THREADS", "1", 1);
  setenv("MINIARC_EXEC", "bytecode", 1);
  setenv("MINIARC_JOBS", "2", 1);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Expected values recorded at the seed commit (perfbench/expected.txt):
//   optimize <PROGRAM> <rounds> <incorrect rounds> <final virtual time>
//   healthy  <PROGRAM> <kernel verdicts, all passing>
//   detected <PROGRAM> <comma-separated failing kernels, or ->

struct Expected {
  struct Optimize {
    int rounds = 0;
    int incorrect = 0;
    std::string final_vt;  // %.17g text, compared exactly
  };
  std::map<std::string, Optimize> optimize;
  std::map<std::string, std::size_t> healthy;
  std::map<std::string, std::string> detected;
};

std::string format_vt(double vt) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", vt);
  return buf;
}

std::string join_kernels(std::vector<std::string> kernels) {
  if (kernels.empty()) return "-";
  std::sort(kernels.begin(), kernels.end());
  std::string out;
  for (const std::string& k : kernels) out += (out.empty() ? "" : ",") + k;
  return out;
}

Expected read_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected values: " + path);
  Expected expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    std::string program;
    fields >> kind >> program;
    if (kind == "optimize") {
      Expected::Optimize& o = expected.optimize[program];
      fields >> o.rounds >> o.incorrect >> o.final_vt;
    } else if (kind == "healthy") {
      fields >> expected.healthy[program];
    } else if (kind == "detected") {
      fields >> expected.detected[program];
    } else {
      throw std::runtime_error("bad expected-values line: " + line);
    }
    if (fields.fail()) {
      throw std::runtime_error("bad expected-values line: " + line);
    }
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Deterministic per-pass counts of one program (suite) or request (serve).

struct Counts {
  long runs = 0;
  long failed_runs = 0;
  long host_stmts = 0;
  long device_stmts = 0;
  long ref_host_stmts = 0;  // sequential reference runs only
  long launches = 0;
  long chunks = 0;
  long chunk_stmts = 0;
  long long h2d_bytes = 0;
  long long d2h_bytes = 0;
  long long transfers = 0;
  double vt_s = 0.0;
  long rounds = 0;
  long incorrect_rounds = 0;
  long verdicts = 0;
  long long elements_compared = 0;
  long dropped_events = 0;

  void add(const Counts& o) {
    runs += o.runs;
    failed_runs += o.failed_runs;
    host_stmts += o.host_stmts;
    device_stmts += o.device_stmts;
    ref_host_stmts += o.ref_host_stmts;
    launches += o.launches;
    chunks += o.chunks;
    chunk_stmts += o.chunk_stmts;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    transfers += o.transfers;
    vt_s += o.vt_s;
    rounds += o.rounds;
    incorrect_rounds += o.incorrect_rounds;
    verdicts += o.verdicts;
    elements_compared += o.elements_compared;
    dropped_events += o.dropped_events;
  }
};

void add_trace_counts(const std::vector<TraceEvent>& events, Counts& c) {
  TraceMetrics m = aggregate_trace(events);
  for (const KernelRollup& k : m.kernels) {
    c.launches += k.launches;
    c.chunks += k.chunks;
    c.chunk_stmts += k.statements;
  }
}

/// Fold one finished run's statistics into `c`. `reference` marks the
/// sequential host reference run.
void harvest(Interpreter& interp, bool reference, bool traced, Counts& c) {
  AccRuntime& runtime = interp.runtime();
  if (reference) {
    c.ref_host_stmts += interp.host_statements();
  } else {
    c.host_stmts += interp.host_statements();
    c.device_stmts += interp.device_statements();
  }
  TransferTotals t = runtime.profiler().transfers();
  c.h2d_bytes += static_cast<long long>(t.h2d_bytes);
  c.d2h_bytes += static_cast<long long>(t.d2h_bytes);
  c.transfers += static_cast<long long>(t.total_count());
  c.vt_s += runtime.total_time();
  if (traced && runtime.trace().enabled()) {
    add_trace_counts(runtime.trace().events(), c);
    c.dropped_events += static_cast<long>(runtime.trace().dropped());
    runtime.trace().clear();
  }
}

// ---------------------------------------------------------------------------
// Shared run state and the per-run result.

struct Section {
  std::vector<double> pass_s;
  std::vector<double> op_ms;
  std::vector<double> ref_ms;  // reference-kernel samples between operations

  /// Rescales every time to the reference host speed (host_scale).
  void rescale() {
    const double scale = host_scale(ref_ms);
    for (double& s : pass_s) s *= scale;
    for (double& ms : op_ms) ms *= scale;
  }
  std::vector<int> op_program;  // program (suite index / source) of op_ms[i]
  long attempted = 0;
  long failed = 0;
};

struct Bench {
  /// Spans, and the virtual-clock recorder of every run, are on only
  /// while `tracer.on` (the traced half of a --trace 1 run).
  Tracer tracer;
  HostReference host;
  bool record = false;  // current pass records Counts
  long next_op = 0;
  std::vector<std::string> errors;  // first few correctness failures

  void fail(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build every input, expected output and warm state from scratch.
  virtual void setup() = 0;
  /// One pass; appends op samples to `section`.
  virtual void run_pass(Section& section) = 0;
  /// Counts recorded during the recording pass, summed in a fixed order.
  [[nodiscard]] virtual Counts counts() const = 0;
  /// Workload-specific per-layer metrics, given per-pass self times.
  virtual void layer_metrics(std::map<std::string, double>& m,
                             const std::map<std::string, double>& self,
                             int passes) = 0;
  /// Human-readable counts for the summary line (both trace modes).
  virtual void summary(std::map<std::string, double>& out) const {
    (void)out;
  }
};

ExecutorOptions serial_executor() {
  ExecutorOptions exec;
  exec.threads = 1;
  exec.faults = FaultPlan{};
  return exec;
}

// ---------------------------------------------------------------------------
// Suite workloads (optimize_loop, verify_kernels).

class SuiteWorkload : public Workload {
 public:
  SuiteWorkload(Bench& bench, unsigned long long seed, Expected expected)
      : bench_(bench), rng_(seed), expected_(std::move(expected)) {}

  void setup() override {
    programs_.clear();
    for (const BenchmarkDef& def : benchmark_suite()) {
      SuiteEntry p;
      p.def = &def;
      DiagnosticEngine diags;
      {
        ScopedSpan span(bench_.tracer, "parser.parse", -1);
        p.unoptimized = parse_mini_c(def.unoptimized_source, diags);
      }
      if (p.unoptimized == nullptr || diags.has_errors()) {
        throw std::runtime_error("set-up: " + def.name + " does not parse");
      }
      // Warm-up that also computes the suite's native expected outputs (the
      // checkers cache them on first use): run the hand-optimized variant.
      ProgramPtr optimized = parse_mini_c(def.optimized_source, diags);
      LoweredProgram lowered = lower_program(*optimized, diags);
      if (lowered.program == nullptr) {
        throw std::runtime_error("set-up: " + def.name + " does not lower");
      }
      RunResult run = run_lowered(*lowered.program, lowered.sema,
                                  def.bind_inputs, false);
      if (!run.ok || !def.check_output(*run.interp)) {
        throw std::runtime_error("set-up: " + def.name +
                                 " optimized variant is wrong");
      }
      programs_.push_back(std::move(p));
    }
    counts_.assign(programs_.size(), Counts{});
  }

  void run_pass(Section& section) override {
    std::vector<std::size_t> order(programs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    if (bench_.record) counts_.assign(programs_.size(), Counts{});
    section.ref_ms.push_back(bench_.host.sample_ms());
    double pass_ms = 0.0;
    for (std::size_t index : order) {
      Counts scratch;
      Counts& c = bench_.record ? counts_[index] : scratch;
      long op = bench_.next_op++;
      double t0 = now_us();
      bool ok;
      {
        ScopedSpan span(bench_.tracer, "op", op);
        ok = run_op(programs_[index], op, c);
      }
      double ms = (now_us() - t0) / 1e3;
      section.ref_ms.push_back(bench_.host.sample_ms());
      pass_ms += ms;
      section.op_ms.push_back(ms);
      section.op_program.push_back(static_cast<int>(index));
      ++section.attempted;
      if (!ok) ++section.failed;
    }
    section.pass_s.push_back(pass_ms / 1e3);
  }

  [[nodiscard]] Counts counts() const override {
    Counts total;
    for (const Counts& c : counts_) total.add(c);
    return total;
  }

  /// Write the values this commit produces in the expected-values format.
  virtual void write_expected(std::ostream& out) = 0;

 protected:
  struct SuiteEntry {
    const BenchmarkDef* def = nullptr;
    ProgramPtr unoptimized;
  };

  virtual bool run_op(SuiteEntry& program, long op, Counts& c) = 0;

  /// Bind inputs and, in the traced run, arm the virtual-clock recorder.
  void bind(const BenchmarkDef& def, Interpreter& interp, long op) {
    ScopedSpan span(bench_.tracer, "suite.bind", op);
    def.bind_inputs(interp);
    if (bench_.tracer.on) {
      interp.runtime().trace().configure(TraceOptions{true, kMaxTraceEvents});
    }
  }

  Bench& bench_;
  std::mt19937_64 rng_;
  Expected expected_;
  std::vector<SuiteEntry> programs_;
  std::vector<Counts> counts_;  // per suite index, recording pass
};

/// The Figure-2 session. The optimizer runs programs internally; the only
/// points the benchmark sees are the InputBinder (called after a run's
/// interpreter is built, before run()) and the OutputChecker (called after a
/// successful validation run). A run span therefore opens when the binder
/// returns and closes at the next callback: at the checker it is a measured
/// run ("interp.run"); at anything else ("interp.run_unobserved") the run
/// never reached the checker and the span also holds the optimizer's work up
/// to that callback. Only runs that reach the checker are harvested: the
/// runtime of any other run is gone before the benchmark regains control.
class OptimizeLoop : public SuiteWorkload {
 public:
  using SuiteWorkload::SuiteWorkload;

  void write_expected(std::ostream& out) override {
    for (SuiteEntry& p : programs_) {
      Counts c;
      OptimizationOutcome outcome = optimize(p, 0, c);
      out << "optimize " << p.def->name << ' ' << outcome.total_iterations()
          << ' ' << outcome.incorrect_iterations() << ' '
          << format_vt(outcome.final_time) << '\n';
    }
  }

  void layer_metrics(std::map<std::string, double>& m,
                     const std::map<std::string, double>& self,
                     int passes) override {
    (void)passes;
    auto at = [&](const char* k) {
      auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second;
    };
    m["verify.loop_self_ms"] = at("verify.optimize");
    m["interp.run_ms"] = at("interp.run") + at("interp.run_unobserved");
    m["interp.observed_run_ms"] = at("interp.run");
  }

 protected:
  bool run_op(SuiteEntry& p, long op, Counts& c) override {
    const std::string& name = p.def->name;
    OptimizationOutcome outcome = optimize(p, op, c);
    c.rounds += outcome.total_iterations();
    c.incorrect_rounds += outcome.incorrect_iterations();

    // The session ends with the user running the program it produced.
    bool ok = outcome.final_program != nullptr;
    if (ok) {
      DiagnosticEngine diags;
      LoweredProgram lowered;
      {
        ScopedSpan span(bench_.tracer, "translate.lower", op);
        lowered = lower_program(*outcome.final_program, diags);
      }
      ok = lowered.program != nullptr;
      if (ok) {
        RunResult run = run_lowered(*lowered.program, lowered.sema,
                                    binder(*p.def, op, c), false);
        ok = run.ok && checker(*p.def, op, c)(*run.interp);
        close_pending(false, c);
      }
    }
    if (!ok) bench_.fail(name + ": final program fails its output check");

    auto it = expected_.optimize.find(name);
    if (it == expected_.optimize.end()) {
      bench_.fail(name + ": no expected optimize values");
      return false;
    }
    const Expected::Optimize& want = it->second;
    std::string vt = format_vt(outcome.final_time);
    if (outcome.total_iterations() != want.rounds ||
        outcome.incorrect_iterations() != want.incorrect ||
        vt != want.final_vt) {
      bench_.fail(name + ": rounds/incorrect/vt " +
                  std::to_string(outcome.total_iterations()) + "/" +
                  std::to_string(outcome.incorrect_iterations()) + "/" + vt +
                  " != expected " + std::to_string(want.rounds) + "/" +
                  std::to_string(want.incorrect) + "/" + want.final_vt);
      ok = false;
    }
    return ok;
  }

 private:
  OptimizationOutcome optimize(SuiteEntry& p, long op, Counts& c) {
    InteractiveOptimizer optimizer;
    DiagnosticEngine diags;
    ScopedSpan span(bench_.tracer, "verify.optimize", op);
    OptimizationOutcome outcome = optimizer.optimize(
        *p.unoptimized, binder(*p.def, op, c), checker(*p.def, op, c), diags);
    close_pending(true, c);
    return outcome;
  }

  InputBinder binder(const BenchmarkDef& def, long op, Counts& c) {
    return [this, &def, op, &c](Interpreter& interp) {
      close_pending(false, c);
      ++c.runs;
      bind(def, interp, op);
      pending_ = true;
      pending_checked_ = false;
      pending_checker_on_ = interp.runtime().checker().enabled();
      run_span_ = bench_.tracer.open("interp.run_unobserved", op);
    };
  }

  OutputChecker checker(const BenchmarkDef& def, long op, Counts& c) {
    return [this, &def, op, &c](Interpreter& interp) {
      bench_.tracer.close(run_span_, "interp.run");
      run_span_ = -1;
      pending_checked_ = true;
      harvest(interp, false, bench_.tracer.on, c);
      ScopedSpan span(bench_.tracer, "suite.check", op);
      return def.check_output(interp);
    };
  }

  /// Close the open run at a callback. A checker-off run that never reached
  /// the checker failed (BFS's runaway trial); checker-on verification runs
  /// and the optimizer's closing statistics run (`final_run`) never reach it
  /// by design.
  void close_pending(bool final_run, Counts& c) {
    if (!pending_) return;
    bench_.tracer.close(run_span_);
    run_span_ = -1;
    if (!pending_checked_ && !pending_checker_on_ && !final_run) {
      ++c.failed_runs;
    }
    pending_ = false;
  }

  bool pending_ = false;
  bool pending_checked_ = false;
  bool pending_checker_on_ = false;
  int run_span_ = -1;
};

/// Compare hook that times each comparison and forwards it to the verifier.
class TimedCompareHook : public CompareHook {
 public:
  TimedCompareHook(KernelVerifier& inner, Tracer& tracer, long op)
      : inner_(inner), tracer_(tracer), op_(op) {}
  void on_compare(const ResultCompareStmt& stmt, Interpreter& interp) override {
    ScopedSpan span(tracer_, "verify.compare", op_);
    inner_.on_compare(stmt, interp);
  }

 private:
  KernelVerifier& inner_;
  Tracer& tracer_;
  long op_;
};

class VerifyKernels : public SuiteWorkload {
 public:
  using SuiteWorkload::SuiteWorkload;

  void write_expected(std::ostream& out) override {
    for (SuiteEntry& p : programs_) {
      Counts c;
      Outcome o = verify(p, 0, c);
      out << "healthy " << p.def->name << ' ' << o.healthy_verdicts << '\n';
      out << "detected " << p.def->name << ' ' << o.detected << '\n';
    }
  }

  void layer_metrics(std::map<std::string, double>& m,
                     const std::map<std::string, double>& self,
                     int passes) override {
    (void)passes;
    auto at = [&](const char* k) {
      auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second;
    };
    m["interp.run_ms"] = at("interp.run");
    m["interp.observed_run_ms"] = at("interp.run");
  }

 protected:
  struct Outcome {
    bool ok = true;
    std::size_t healthy_verdicts = 0;
    bool healthy_passed = false;
    std::string detected;
  };

  bool run_op(SuiteEntry& p, long op, Counts& c) override {
    const std::string& name = p.def->name;
    Outcome o = verify(p, op, c);
    bool ok = o.ok;
    if (!ok) bench_.fail(name + ": a run failed or the reference is wrong");
    auto healthy = expected_.healthy.find(name);
    auto detected = expected_.detected.find(name);
    if (healthy == expected_.healthy.end() ||
        detected == expected_.detected.end()) {
      bench_.fail(name + ": no expected verification values");
      return false;
    }
    if (!o.healthy_passed || o.healthy_verdicts != healthy->second) {
      bench_.fail(name + ": healthy verification " +
                  std::to_string(o.healthy_verdicts) + " verdicts, passed=" +
                  (o.healthy_passed ? "yes" : "no") + ", expected " +
                  std::to_string(healthy->second) + " passing");
      ok = false;
    }
    if (o.detected != detected->second) {
      bench_.fail(name + ": fault-injected detected set " + o.detected +
                  " != expected " + detected->second);
      ok = false;
    }
    return ok;
  }

 private:
  /// Run a prepared verification program with the verifier as compare hook.
  bool run_verified(const BenchmarkDef& def, KernelVerifier::Prepared& prepared,
                    KernelVerifier& verifier, long op, Counts& c) {
    if (prepared.program == nullptr) return false;
    AccRuntime runtime(MachineModel::m2090(), serial_executor());
    Interpreter interp(*prepared.program, prepared.sema, runtime);
    TimedCompareHook hook(verifier, bench_.tracer, op);
    interp.set_compare_hook(&hook);
    bind(def, interp, op);
    ++c.runs;
    bool ok = true;
    try {
      ScopedSpan span(bench_.tracer, "interp.run", op);
      interp.run();
    } catch (const std::exception&) {
      ok = false;
      ++c.failed_runs;
    }
    harvest(interp, false, bench_.tracer.on, c);
    for (const KernelVerdict& v : verifier.report().verdicts) {
      ++c.verdicts;
      c.elements_compared += v.elements_compared;
    }
    return ok;
  }

  Outcome verify(SuiteEntry& p, long op, Counts& c) {
    const BenchmarkDef& def = *p.def;
    Outcome o;
    DiagnosticEngine diags;
    ProgramPtr source;
    {
      ScopedSpan span(bench_.tracer, "parser.parse", op);
      source = parse_mini_c(def.optimized_source, diags);
    }
    if (source == nullptr || diags.has_errors()) {
      o.ok = false;
      return o;
    }
    ProgramPtr faulty = clone_program(*source);

    // 1. Sequential host reference run (directives ignored).
    SemaInfo sema;
    {
      ScopedSpan span(bench_.tracer, "sema.analyze", op);
      sema = analyze_program(*source, diags);
    }
    {
      AccRuntime runtime(MachineModel::m2090(), serial_executor());
      Interpreter interp(*source, sema, runtime);
      bind(def, interp, op);
      ++c.runs;
      try {
        ScopedSpan span(bench_.tracer, "interp.host_ref", op);
        interp.run();
      } catch (const std::exception&) {
        o.ok = false;
        ++c.failed_runs;
      }
      harvest(interp, true, bench_.tracer.on, c);
      ScopedSpan span(bench_.tracer, "suite.check", op);
      if (o.ok && !def.check_output(interp)) o.ok = false;
    }

    // 2. Kernel verification of the healthy optimized variant.
    KernelVerifier healthy;
    KernelVerifier::Prepared prepared;
    {
      ScopedSpan span(bench_.tracer, "translate.prepare", op);
      prepared = healthy.prepare(*source, diags);
    }
    if (!run_verified(def, prepared, healthy, op, c)) o.ok = false;
    o.healthy_verdicts = healthy.report().verdicts.size();
    o.healthy_passed = healthy.report().all_passed();

    // 3. Fault injection: strip private/reduction clauses with automatic
    // privatization and reduction recognition off, then verify again.
    strip_parallelism_clauses(*faulty, diags);
    LoweringOptions no_auto;
    no_auto.auto_privatize = false;
    no_auto.auto_reduction = false;
    KernelVerifier injured;
    KernelVerifier::Prepared faulty_prepared;
    {
      ScopedSpan span(bench_.tracer, "translate.prepare", op);
      faulty_prepared = injured.prepare(*faulty, diags, no_auto);
    }
    if (!run_verified(def, faulty_prepared, injured, op, c)) o.ok = false;
    o.detected = join_kernels(injured.report().failing_kernels());
    return o;
  }
};

// ---------------------------------------------------------------------------
// serve_mix: a closed loop through ServiceCore.

constexpr int kServeWorkers = 2;
constexpr std::size_t kServeOutstanding = 2 * kServeWorkers;
constexpr int kServeSources = 12;
/// Each source is requested as run, run and advise.
constexpr int kServeSpecs = 3 * kServeSources;
/// One pass submits every spec this many times, in seeded order.
constexpr int kServeRepeats = 7;
constexpr std::size_t kServeBatch = kServeSpecs * kServeRepeats;

/// A compute-dense program: one or two kernels of a few thousand
/// iterations, each running an inner loop, inside one data region. The
/// shape (and so the work) is fixed by `index`; the seeded coefficients make
/// each seed's sources distinct texts.
std::string dense_source(int index, std::mt19937_64& rng, std::size_t* elems) {
  const int n = 1024 * (2 + index % 5);
  const int k = 8 + (index * 7) % 17;
  const bool second = index % 2 == 0;
  const int k2 = 4 + index % 9;
  auto coeff = [&rng](double lo) {
    return lo + static_cast<double>(rng() % 1024) / 4096.0;
  };
  char buf[2048];
  std::string src;
  std::snprintf(buf, sizeof buf, R"(extern double a[];
extern double b[];
void main(void) {
  int i;
#pragma acc data copy(a) copyin(b)
  {
#pragma acc kernels loop gang worker
    for (i = 0; i < %d; i++) {
      double acc;
      double scale;
      int k;
      acc = 0.0;
      scale = %.6f;
      for (k = 0; k < %d; k++) {
        acc = acc + b[i] * scale + k * %.6f;
        scale = scale * %.6f + 0.0001220703125;
      }
      a[i] = acc;
    }
)",
                n, coeff(0.25), k, coeff(0.0), coeff(0.75));
  src += buf;
  if (second) {
    std::snprintf(buf, sizeof buf, R"(#pragma acc kernels loop gang worker
    for (i = 0; i < %d; i++) {
      double t;
      int k;
      t = a[i];
      for (k = 0; k < %d; k++) {
        t = t * %.6f + b[i] * %.6f;
      }
      a[i] = t;
    }
)",
                  n, k2, coeff(0.5), coeff(0.0));
    src += buf;
  }
  src += "  }\n}\n";
  *elems = static_cast<std::size_t>(n);
  return src;
}

class ServeMix : public Workload {
 public:
  ServeMix(Bench& bench, unsigned long long seed) : bench_(bench), seed_(seed) {}

  void setup() override {
    std::mt19937_64 rng(seed_);
    std::vector<std::string> sources(kServeSources);
    std::vector<std::size_t> elems(kServeSources);
    for (int s = 0; s < kServeSources; ++s) {
      sources[s] = dense_source(s, rng, &elems[s]);
    }
    // A quarter of the specs arm the profiler and a quarter carry a
    // transient-fault plan; the seed picks which.
    std::vector<int> profiled(kServeSpecs);
    std::vector<int> faulted(kServeSpecs);
    for (int i = 0; i < kServeSpecs; ++i) {
      profiled[i] = i < kServeSpecs / 4 ? 1 : 0;
      faulted[i] = i < kServeSpecs / 4 ? 1 : 0;
    }
    std::shuffle(profiled.begin(), profiled.end(), rng);
    std::shuffle(faulted.begin(), faulted.end(), rng);
    requests_.clear();
    request_source_.clear();
    for (int i = 0; i < kServeSpecs; ++i) {
      ServiceRequest r;
      int s = i % kServeSources;
      r.id = "spec-" + std::to_string(i);
      r.program_name = "tenant-" + std::to_string(s);
      r.source = sources[s];
      r.buffer_size = elems[s];
      r.threads = 1;
      r.command = i / kServeSources == 2 ? "advise" : "run";
      r.include_profile = profiled[i] != 0;
      if (faulted[i] != 0) {
        r.faults = FaultPlan::parse("transient=0.1,seed=" +
                                    std::to_string(rng() % 1000));
      }
      requests_.push_back(std::move(r));
      request_source_.push_back(s);
    }
    sequence_.clear();
    for (int r = 0; r < kServeRepeats; ++r) {
      for (int i = 0; i < kServeSpecs; ++i) sequence_.push_back(i);
    }
    std::shuffle(sequence_.begin(), sequence_.end(), rng);

    // Solo references: each distinct program compiled once, each request
    // executed alone. The cache ceiling is half the pool's footprint.
    std::map<std::pair<std::string, int>, std::shared_ptr<const CompiledProgram>>
        compiled;
    std::size_t total_bytes = 0;
    std::size_t max_bytes = 0;
    references_.clear();
    for (const ServiceRequest& r : requests_) {
      CompileMode mode =
          r.command == "advise" ? CompileMode::kAdvise : CompileMode::kRun;
      auto key = std::make_pair(r.source, static_cast<int>(mode));
      auto it = compiled.find(key);
      if (it == compiled.end()) {
        std::string error;
        std::shared_ptr<const CompiledProgram> program;
        {
          ScopedSpan span(bench_.tracer, "service.compile", -1);
          program = build_compiled_program(r.source, mode, &error);
        }
        if (program == nullptr) {
          throw std::runtime_error("set-up: request source fails to compile: " +
                                   error);
        }
        total_bytes += program->footprint_bytes;
        max_bytes = std::max(max_bytes, program->footprint_bytes);
        it = compiled.emplace(key, program).first;
      }
      ServiceResponse ref;
      {
        ScopedSpan span(bench_.tracer, "service.solo", -1);
        ref = execute_service_request(r, it->second);
      }
      if (ref.status != ServiceStatus::kOk) {
        throw std::runtime_error("set-up: solo reference of " + r.id +
                                 " did not succeed: " + ref.error);
      }
      references_.push_back(std::move(ref));
    }
    distinct_programs_ = compiled.size();
    cache_bytes_ = std::max(max_bytes, total_bytes / 2);
    counts_.assign(kServeBatch, Counts{});

    // Warm-up through a short-lived service.
    auto service = make_service();
    Section warm;
    run_batch(*service, warm, kServeSpecs, false);
  }

  /// A fresh service per measured section, so its registry covers only it.
  void begin_section() {
    service_ = make_service();
  }

  void run_pass(Section& section) override {
    run_batch(*service_, section, kServeBatch, true);
  }

  [[nodiscard]] Counts counts() const override {
    Counts total;
    for (const Counts& c : counts_) total.add(c);
    return total;
  }

  void layer_metrics(std::map<std::string, double>& m,
                     const std::map<std::string, double>& self,
                     int passes) override {
    (void)self;
    ServiceStats stats = service_->stats();
    long lookups = stats.cache.hits + stats.cache.misses;
    m["service.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0;
    m["service.cache_lookups"] = static_cast<double>(lookups) / passes;
    m["service.cache_evictions"] =
        static_cast<double>(stats.cache.evictions) / passes;
    m["service.shed"] = static_cast<double>(stats.shed_budget +
                                            stats.shed_overload +
                                            stats.shed_shutdown);
    for (const MetricInfo& info : service_->metrics_registry().snapshot()) {
      if (info.histogram == nullptr) continue;
      if (info.name == "miniarc_service_queue_wait_ms") {
        m["service.queue_wait_ms.p50"] = info.histogram->percentile(0.5);
      } else if (info.name == "miniarc_service_execute_ms") {
        m["service.exec_ms.p50"] = info.histogram->percentile(0.5);
        m["interp.run_ms"] = info.histogram->sum() / passes;
        m["interp.observed_run_ms"] = info.histogram->sum() / passes;
      }
    }
  }

  void summary(std::map<std::string, double>& out) const override {
    out["serve.distinct_programs"] = static_cast<double>(distinct_programs_);
    out["serve.cache_bytes"] = static_cast<double>(cache_bytes_);
    out["serve.batch"] = static_cast<double>(kServeBatch);
  }

 private:
  std::unique_ptr<ServiceCore> make_service() const {
    ServiceOptions options;
    options.jobs = kServeWorkers;
    options.queue_depth = 64;
    options.cache_bytes = cache_bytes_;
    options.exec_engine = ExecEngine::kBytecode;
    return std::make_unique<ServiceCore>(options);
  }

  struct InFlight {
    std::future<ServiceResponse> future;
    std::size_t slot;  // position in the batch
    long op;
    double start_us;
  };

  /// Submit `count` requests of the batch sequence with at most
  /// kServeOutstanding in flight, checking every response.
  void run_batch(ServiceCore& service, Section& section, std::size_t count,
                 bool measured) {
    std::vector<InFlight> in_flight;
    section.ref_ms.push_back(bench_.host.sample_ms());
    double start = now_us();
    auto finish = [&](InFlight& f, double end_us) {
      ServiceResponse response = f.future.get();
      std::size_t spec = sequence_[f.slot];
      const ServiceResponse& ref = references_[spec];
      bool ok = response.status == ref.status &&
                response.report_json == ref.report_json &&
                response.advice_json == ref.advice_json;
      if (!ok) {
        bench_.fail("request " + requests_[spec].id + ": status " +
                    to_string(response.status) +
                    " or report differs from its solo reference");
      }
      bench_.tracer.add("service.request", f.op, f.start_us, end_us);
      section.op_ms.push_back((end_us - f.start_us) / 1e3);
      section.op_program.push_back(request_source_[spec]);
      ++section.attempted;
      if (!ok) ++section.failed;
      if (bench_.record) {
        Counts& c = counts_[f.slot];
        c = Counts{};
        c.runs = 1;
        c.host_stmts = response.rollup.host_statements;
        c.device_stmts = response.rollup.device_statements;
        c.h2d_bytes = response.rollup.h2d_bytes;
        c.d2h_bytes = response.rollup.d2h_bytes;
        c.vt_s = response.rollup.vt_seconds;
        if (bench_.tracer.on) {
          add_trace_counts(response.trace_events, c);
          for (const TraceEvent& e : response.trace_events) {
            if (e.kind == TraceEventKind::kTransfer) ++c.transfers;
          }
        }
      }
    };
    auto reap = [&]() {
      in_flight.front().future.wait_for(std::chrono::microseconds(100));
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(*it, now_us());
          it = in_flight.erase(it);
        } else {
          ++it;
        }
      }
    };
    for (std::size_t slot = 0; slot < count; ++slot) {
      while (in_flight.size() >= kServeOutstanding) reap();
      ServiceRequest request = requests_[sequence_[slot]];
      request.collect_trace_events = bench_.tracer.on;
      long op = measured ? bench_.next_op++ : -1;
      double t0 = now_us();
      in_flight.push_back({service.submit(std::move(request)), slot, op, t0});
    }
    while (!in_flight.empty()) reap();
    section.pass_s.push_back((now_us() - start) / 1e6);
    section.ref_ms.push_back(bench_.host.sample_ms());
  }

  Bench& bench_;
  unsigned long long seed_;
  std::vector<ServiceRequest> requests_;
  std::vector<int> request_source_;
  std::vector<std::size_t> sequence_;
  std::vector<ServiceResponse> references_;
  std::size_t distinct_programs_ = 0;
  std::size_t cache_bytes_ = 0;
  std::unique_ptr<ServiceCore> service_;
  std::vector<Counts> counts_;  // per batch slot, recording pass
};

// ---------------------------------------------------------------------------
// Command line and main loop.

struct Args {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string spans_out;
  std::string write_expected;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--write-expected") {
      args.write_expected = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return args;
}

/// Passes until `seconds` elapsed (at least `min_passes`).
Section measure(Workload& w, Bench& bench, double seconds, int min_passes) {
  Section section;
  double start = now_us();
  for (int pass = 0;
       pass < min_passes || (now_us() - start) / 1e6 < seconds; ++pass) {
    bench.record = pass == 0;
    w.run_pass(section);
  }
  bench.record = false;
  return section;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<std::pair<std::string, std::pair<double, const char*>>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].second.first;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(), v,
                  metrics[i].second.second);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  pin_environment();
  Bench bench;

  std::unique_ptr<Workload> workload;
  SuiteWorkload* suite = nullptr;
  ServeMix* serve = nullptr;
  if (args.workload == "optimize_loop" || args.workload == "verify_kernels") {
    Expected expected;
    if (args.write_expected.empty()) {
      if (args.expected.empty()) {
        throw std::runtime_error("--expected is required for " + args.workload);
      }
      expected = read_expected(args.expected);
    }
    if (args.workload == "optimize_loop") {
      workload = std::make_unique<OptimizeLoop>(bench, args.seed, expected);
    } else {
      workload = std::make_unique<VerifyKernels>(bench, args.seed, expected);
    }
    suite = static_cast<SuiteWorkload*>(workload.get());
  } else if (args.workload == "serve_mix") {
    auto s = std::make_unique<ServeMix>(bench, args.seed);
    serve = s.get();
    workload = std::move(s);
  } else {
    throw std::runtime_error("unknown workload " + args.workload);
  }

  // Header: the seed and the pinned environment actually in effect.
  std::string env_json;
  for (const char* knob : kReportedKnobs) {
    const char* value = std::getenv(knob);
    env_json += std::string(env_json.empty() ? "" : ", ") + "\"" + knob +
                "\": \"" + json_escape(value == nullptr ? "" : value) + "\"";
  }
  std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"holdout_seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
              "\"env\": {%s}}}\n",
              args.workload.c_str(), args.seed, kHoldoutSeed, args.seconds,
              args.trace ? 1 : 0, env_json.c_str());
  std::fflush(stdout);

  if (!args.write_expected.empty()) {
    if (suite == nullptr) throw std::runtime_error("nothing to write for serve_mix");
    suite->setup();
    std::ofstream out(args.write_expected);
    suite->write_expected(out);
    return out ? 0 : 1;
  }

  // Set-up, several times; the state of the last one is used.
  bench.tracer.on = args.trace;
  std::vector<double> setup_s;
  std::vector<double> setup_ref_ms = {bench.host.sample_ms()};
  const double setup_start = now_us();
  while (setup_s.size() < kSetupRepeats ||
         (now_us() - setup_start) / 1e6 < kSetupSeconds) {
    double t0 = now_us();
    workload->setup();
    setup_s.push_back((now_us() - t0) / 1e6);
    setup_ref_ms.push_back(bench.host.sample_ms());
  }
  const double setup_scale = host_scale(setup_ref_ms);
  std::map<std::string, double> setup_self = bench.tracer.self_ms(true);
  bench.tracer.on = false;

  std::map<std::string, double> summary;
  workload->summary(summary);
  summary["samples.setups"] = static_cast<double>(setup_s.size());
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  Section section;

  if (!args.trace) {
    if (serve != nullptr) serve->begin_section();
    section = measure(*workload, bench, args.seconds, kMinPasses);
    section.rescale();
    std::map<int, std::vector<double>> by_program;
    for (std::size_t i = 0; i < section.op_ms.size(); ++i) {
      by_program[section.op_program[i]].push_back(section.op_ms[i]);
    }
    double log_sum = 0.0;
    for (const auto& [program, samples] : by_program) {
      log_sum += std::log(median(samples));
    }
    const auto programs = static_cast<double>(by_program.size());
    double total_s = 0.0;
    for (double s : section.pass_s) total_s += s;
    metrics = {
        {"setup_s", {median(setup_s) * setup_scale, "s"}},
        {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
        {"pass_s", {median(section.pass_s), "s"}},
        {"program_ms.geomean",
         {programs > 0 ? std::exp(log_sum / programs) : 0.0, "ms"}},
        {"req_per_s",
         {total_s > 0 ? static_cast<double>(section.op_ms.size()) / total_s
                      : 0.0,
          "1/s"}},
        {"req_ms.p50", {percentile(section.op_ms, 0.50), "ms"}},
        {"req_ms.p99", {percentile(section.op_ms, 0.99), "ms"}},
    };
    summary["samples.ops"] = static_cast<double>(section.op_ms.size());
    summary["samples.passes"] = static_cast<double>(section.pass_s.size());
    summary["pass_s.min"] = percentile(section.pass_s, 1e-9);
    summary["pass_s.q1"] = percentile(section.pass_s, 0.25);
    summary["pass_s.q3"] = percentile(section.pass_s, 0.75);
    summary["pass_s.max"] = percentile(section.pass_s, 1.0);
    summary["samples.programs"] = programs;
  } else {
    // Untraced then traced halves; the per-layer numbers come from the
    // traced half, and their pass-time ratio is the tracing overhead.
    if (serve != nullptr) serve->begin_section();
    Section plain = measure(*workload, bench, args.seconds / 2, 2);
    bench.tracer.on = true;
    if (serve != nullptr) serve->begin_section();
    section = measure(*workload, bench, args.seconds / 2, 2);
    bench.tracer.on = false;
    // Span self times stay raw; the halves' pass times are rescaled so that
    // the tracing overhead does not carry a change of host speed.
    plain.rescale();
    section.rescale();
    section.attempted += plain.attempted;
    section.failed += plain.failed;

    const int passes = static_cast<int>(section.pass_s.size());
    std::map<std::string, double> self = bench.tracer.self_ms(false);
    for (auto& [name, ms] : self) ms /= passes;
    auto at = [&](const char* k) {
      auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second;
    };
    std::map<std::string, double> layer;
    workload->layer_metrics(layer, self, passes);
    auto get = [&](const char* k) {
      auto it = layer.find(k);
      return it == layer.end() ? 0.0 : it->second;
    };
    Counts c = workload->counts();
    if (c.dropped_events > 0) {
      bench.fail("trace recorder dropped " + std::to_string(c.dropped_events) +
                 " events; device counts would be short");
    }
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double observed_run_ms = get("interp.observed_run_ms");
    const double compile_ms =
        setup_self.count("service.compile") != 0
            ? setup_self["service.compile"] /
                  static_cast<double>(setup_s.size())
            : 0.0;
    const long attempted = section.attempted;
    metrics = {
        {"device.launches", {static_cast<double>(c.launches), "count"}},
        {"device.chunks", {static_cast<double>(c.chunks), "count"}},
        {"device.stmts_per_chunk",
         {ratio(static_cast<double>(c.chunk_stmts), c.chunks), "stmt"}},
        {"device.us_per_launch",
         {ratio(observed_run_ms * 1e3, c.launches), "us"}},
        {"interp.ns_per_device_stmt",
         {ratio(observed_run_ms * 1e6, c.device_stmts), "ns"}},
        {"interp.host_ref_ms", {at("interp.host_ref"), "ms"}},
        {"interp.ns_per_host_stmt",
         {ratio(at("interp.host_ref") * 1e6, c.ref_host_stmts), "ns"}},
        {"interp.run_ms", {get("interp.run_ms"), "ms"}},
        {"interp.runs", {static_cast<double>(c.runs), "count"}},
        {"interp.failed_runs", {static_cast<double>(c.failed_runs), "count"}},
        {"interp.host_stmts",
         {static_cast<double>(c.host_stmts + c.ref_host_stmts), "count"}},
        {"interp.device_stmts", {static_cast<double>(c.device_stmts), "count"}},
        {"parser.parse_ms", {at("parser.parse"), "ms"}},
        {"sema.analyze_ms", {at("sema.analyze"), "ms"}},
        {"translate.prepare_ms", {at("translate.prepare"), "ms"}},
        {"translate.lower_ms", {at("translate.lower"), "ms"}},
        {"service.compile_ms", {compile_ms, "ms"}},
        {"service.cache_hit_ratio", {get("service.cache_hit_ratio"), "ratio"}},
        {"service.cache_evictions", {get("service.cache_evictions"), "count"}},
        {"service.queue_wait_ms.p50", {get("service.queue_wait_ms.p50"), "ms"}},
        {"service.exec_ms.p50", {get("service.exec_ms.p50"), "ms"}},
        {"service.shed", {get("service.shed"), "count"}},
        {"verify.loop_self_ms", {get("verify.loop_self_ms"), "ms"}},
        {"verify.compare_ms", {at("verify.compare"), "ms"}},
        {"verify.rounds", {static_cast<double>(c.rounds), "count"}},
        {"verify.incorrect_rounds",
         {static_cast<double>(c.incorrect_rounds), "count"}},
        {"verify.kernel_verdicts", {static_cast<double>(c.verdicts), "count"}},
        {"verify.elements_compared",
         {static_cast<double>(c.elements_compared), "count"}},
        {"runtime.h2d_bytes", {static_cast<double>(c.h2d_bytes), "bytes"}},
        {"runtime.d2h_bytes", {static_cast<double>(c.d2h_bytes), "bytes"}},
        {"runtime.transfers", {static_cast<double>(c.transfers), "count"}},
        {"runtime.vt_s", {c.vt_s, "s"}},
        {"bench.trace_overhead_pct",
         {(median(section.pass_s) / median(plain.pass_s) - 1.0) * 100.0, "%"}},
        {"bench.fail_ratio",
         {ratio(static_cast<double>(section.failed), attempted), "ratio"}},
        {"bench.host_ref_ms", {median(section.ref_ms), "ms"}},
    };
    summary["service.cache_lookups"] = get("service.cache_lookups");
    summary["samples.traced_passes"] = passes;
    summary["samples.untraced_passes"] = static_cast<double>(plain.pass_s.size());
    if (!args.spans_out.empty()) bench.tracer.write(args.spans_out);
  }

  // Counts available in both modes, for the traced/untraced identity check.
  Counts c = workload->counts();
  summary["count.runs"] = static_cast<double>(c.runs);
  summary["count.failed_runs"] = static_cast<double>(c.failed_runs);
  summary["count.host_stmts"] = static_cast<double>(c.host_stmts + c.ref_host_stmts);
  summary["count.device_stmts"] = static_cast<double>(c.device_stmts);
  summary["count.h2d_bytes"] = static_cast<double>(c.h2d_bytes);
  summary["count.d2h_bytes"] = static_cast<double>(c.d2h_bytes);
  summary["count.vt_s"] = c.vt_s;
  summary["count.rounds"] = static_cast<double>(c.rounds);
  summary["count.incorrect_rounds"] = static_cast<double>(c.incorrect_rounds);
  summary["count.kernel_verdicts"] = static_cast<double>(c.verdicts);
  summary["count.elements_compared"] = static_cast<double>(c.elements_compared);
  summary["fail_ratio"] = section.attempted > 0
                              ? static_cast<double>(section.failed) /
                                    static_cast<double>(section.attempted)
                              : 0.0;
  summary["fail_ratio.base"] = static_cast<double>(section.attempted);
  summary["host.setup_ref_ms.median"] = median(setup_ref_ms);
  summary["host.ref_ms.median"] = median(section.ref_ms);
  summary["host.ref_ms.q1"] = percentile(section.ref_ms, 0.25);
  summary["host.ref_ms.q3"] = percentile(section.ref_ms, 0.75);
  summary["host.reference_ms"] = kReferenceMs;
  std::string line = "{\"summary\": {";
  char buf[160];
  bool first = true;
  for (const auto& [name, value] : summary) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  name.c_str(), value);
    line += buf;
    first = false;
  }
  line += ", \"pass_s.samples\": [";
  for (std::size_t i = 0; i < section.pass_s.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6f", i == 0 ? "" : ", ",
                  section.pass_s[i]);
    line += buf;
  }
  line += "]}}";
  std::printf("%s\n", line.c_str());
  for (const std::string& e : bench.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  bool correct = section.failed == 0 && bench.errors.empty();
  print_result(correct, section.attempted,
               section.failed > 0 ? section.failed : (correct ? 0 : 1),
               metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
