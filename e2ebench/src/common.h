// Shared pieces of the end-to-end benchmark: options, the result every
// workload fills in, span tracing, the makespan digest, and small
// statistics helpers.
//
// Tracing is off unless the run was started with --trace 1. A Span then
// records its name, start, end, parent and request id into the in-memory
// Tracer; with tracing off a Span costs one null-pointer test. Spans are
// opened and closed on one thread only (every traced pass is
// single-threaded), so they nest strictly and a span's self time is its
// duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tgs/graph/task_graph.h"
#include "tgs/sched/scheduler.h"
#include "tgs/sched/validate.h"
#include "tgs/util/mem.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// CPU seconds the calling thread has run. On a virtual machine this
/// leaves out the time the host ran other guests on its CPU (steal time),
/// which wall time counts; on a dedicated machine the two agree for
/// single-threaded work.
double cpu_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;            // reduced-size mode (the benchmark's tests)
  bool bounded_dsc = false;      // add DSC on 4 processors to serve_mix
  std::string digest_path;       // committed makespan digest to check
  std::string record_digest;     // write a digest for every pool instead
  std::string serve_bin;         // tgs_serve binary for serve_mix
  std::string work_dir;          // per-checkout scratch: run dirs, traces
};

/// What a workload reports. Metrics keep insertion order.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;  // first few failure messages

  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one failed operation and keeps its message (up to a cap).
  void fail(const std::string& message);
};

// ------------------------------------------------------------- tracing --

struct SpanRecord {
  std::string name;
  double start = 0;   // seconds, now_s() clock
  double end = 0;
  int parent = -1;    // index into the span list, -1 = root
  std::int64_t request = -1;
};

class Tracer {
 public:
  int open(const std::string& name, std::int64_t request);
  void close(int index);
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Sum of durations (inclusive) and self times per span name, in ms.
  std::map<std::string, double> total_ms() const;
  std::map<std::string, double> self_ms() const;
  /// Number of spans with this name.
  std::int64_t count(const std::string& name) const;

  /// Chrome trace-event JSON (complete "X" events), which Perfetto and
  /// chrome://tracing open. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// The active tracer, or nullptr when tracing is off.
extern Tracer* g_tracer;

class Span {
 public:
  explicit Span(const std::string& name, std::int64_t request = -1)
      : index_(g_tracer != nullptr ? g_tracer->open(name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) g_tracer->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// A metric that BENCHMARK.json declares.
struct MetricDef {
  const char* name;
  const char* unit;
  /// Per-layer metrics derived from spans: the total over all spans named
  /// `name` minus "_ms", or the mean per span (a unit cost).
  enum Kind { kTotal, kMean, kOther } kind = kOther;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Prints the per-span-name self-time table of `tracer` to stderr and adds
/// the trace.* metrics: traced wall, untraced wall, overhead, the part of
/// the traced wall no layer span covers (the root span's self time) and
/// the span count, and every span-derived per-layer metric. `root` is
/// the name of the span around the traced pass.
void report_trace(const Tracer& tracer, const std::string& root,
                  double untraced_s, const Options& opt, Outcome& out);

/// Span name of a scheduler: "bnp.MCP", "unc.EZ", "apn.BSA",
/// "param.cp-static-insert".
std::string layer_of(const tgs::Scheduler& algo);

// -------------------------------------------------------------- digest --

/// Makespans recorded per (graph, algorithm) for every input a seed can
/// produce. One line per graph:
///   <graph-id> <fingerprint-hex> <algo>=<value> <algo>=<value> ...
/// A run compares every schedule it makes against it, so a valid but
/// changed schedule counts as a failure.
class Digest {
 public:
  /// Loads `path`; an unreadable file leaves the digest empty (every check
  /// then fails, which is the point).
  static Digest load(const std::string& path);
  /// Empty string when (graph, algo) is recorded with exactly this value
  /// and fingerprint; otherwise a description of the mismatch.
  std::string check(const std::string& graph_id, const std::string& fp,
                    const std::string& algo, std::int64_t value) const;
  void record(const std::string& graph_id, const std::string& fp,
              const std::string& algo, std::int64_t value);
  bool save(const std::string& path) const;

 private:
  struct Entry {
    std::string fp;
    std::vector<std::pair<std::string, std::int64_t>> values;
  };
  std::map<std::string, Entry> graphs_;
};

/// The correctness gate of one schedule: counts the operation, fails it
/// when the schedule is invalid or its value differs from the digest, or
/// records the value when `record` is set (digest regeneration).
struct DigestGate {
  const Digest& digest;
  Digest* record;
  Outcome& out;

  void operator()(const std::string& graph_id, const std::string& fp,
                  const std::string& algo, std::int64_t value,
                  const tgs::ValidationResult& valid) const;
};

/// Hex fingerprint of a graph's scheduling-relevant content.
std::string fingerprint_of(const tgs::TaskGraph& g);

// -------------------------------------------------------------- inputs --

/// The same DAG as `g` with every node weight replaced by node(old) and
/// every edge cost by edge(old), drawn in node-id order.
tgs::TaskGraph reweigh(const tgs::TaskGraph& g,
                       const std::function<tgs::Cost(tgs::Cost)>& node,
                       const std::function<tgs::Cost(tgs::Cost)>& edge);

/// An RGNOS graph (parallelism 3) whose structure is fixed by
/// `structure_seed` and whose weights are drawn afresh, from RGNOS's own
/// distributions, by `weight_seed` (0 keeps the generator's weights). The
/// benchmark's seed only picks weights, so the work per seed barely moves
/// while every seed still schedules different inputs.
tgs::TaskGraph rgnos_variant(tgs::NodeId v, double ccr,
                             std::uint64_t structure_seed,
                             std::uint64_t weight_seed);

// ---------------------------------------------------------- statistics --

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
double median(std::vector<double> xs);
double sum(const std::vector<double>& xs);

/// Per-operation minimum over repetitions: runs[k][i] is operation i's
/// time in repetition k (every repetition runs the same operations in the
/// same order). Noise on a shared machine only ever adds time, so the
/// fastest repetition is the steadiest estimate of an operation's cost;
/// the paper's table6 protocol (tgs_bench --reps) does the same.
std::vector<double> per_op_min(const std::vector<std::vector<double>>& runs);

/// Repeats `pass` (which returns its per-operation times in ms) while
/// another pass of the last one's length still fits in `seconds`; at
/// least `min_passes` passes.
template <typename F>
std::vector<std::vector<double>> repeat_passes(double seconds, int min_passes,
                                               F&& pass) {
  std::vector<std::vector<double>> runs;
  const double start = now_s();
  double last = 0;
  while (static_cast<int>(runs.size()) < min_passes ||
         now_s() - start + last <= seconds) {
    const double t0 = now_s();
    runs.push_back(pass());
    last = now_s() - t0;
  }
  return runs;
}

/// Sets up `runs` times and returns the median CPU time; the caller
/// keeps the last repetition's state.
template <typename F>
double median_setup_s(int runs, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) {
    const double t0 = cpu_s();
    setup();
    times.push_back(cpu_s() - t0);
  }
  return median(times);
}

// ------------------------------------------------ repeated workloads --

/// Set-up repetitions whose median is setup_s. A serve_mix set-up starts
/// a daemon (about 1 s); the others only generate graphs (0.04-0.15 s),
/// so they take more repetitions for a steadier median.
inline constexpr int kSetupRuns = 7;
inline constexpr int kGraphSetupRuns = 21;

/// A graph ready for timed scheduling: its fingerprint, and a workspace
/// bound to it with the shared attributes prewarmed (as table6 does, so no
/// algorithm is charged for filling the cache the others reuse).
struct PreparedGraph {
  std::string id;
  std::unique_ptr<const tgs::TaskGraph> graph;  // stable address: ws binds it
  std::string fp;
  std::unique_ptr<tgs::SchedWorkspace> ws;
};
PreparedGraph prepare(std::string id, tgs::TaskGraph g);

/// Heap allocations made by the scheduling calls of a pass.
struct AllocTotals {
  std::uint64_t count = 0, bytes = 0, calls = 0;
};

/// What one pass of a repeated workload returns; workloads extend it.
struct PassStats {
  std::vector<double> op_ms;  // per operation, in a fixed order
  AllocTotals alloc;
};

template <typename S>
struct Checked {
  S schedule;
  tgs::ValidationResult valid;
};

/// One scheduling call: `run()` under a span named `layer` and an
/// allocation meter, then `validate(schedule)` under "sched.validate".
template <typename Run, typename Validate>
auto run_checked(const std::string& layer, AllocTotals& alloc, Run&& run,
                 Validate&& validate) {
  using S = decltype(run());
  std::optional<S> s;
  {
    Span span(layer);
    const tgs::AllocMeter meter;
    s.emplace(run());
    alloc.count += meter.count();
    alloc.bytes += meter.bytes();
    ++alloc.calls;
  }
  tgs::ValidationResult valid;
  {
    Span span("sched.validate");
    valid = validate(*s);
  }
  return Checked<S>{std::move(*s), std::move(valid)};
}

/// The mem.alloc_count and mem.alloc_mb metrics: means per scheduling call.
void report_alloc(const AllocTotals& alloc, Outcome& out);

template <typename Input, typename Result>
struct Repeated {
  std::uint64_t pool = 0;
  Input input;                 // the last set-up's inputs
  Result first;                // the first (traced: the traced) pass
  std::vector<double> best;    // each operation's fastest time, ms
  std::vector<double> pass_s;  // wall time of every pass
};

/// The driver of the workloads that schedule a fixed set repeatedly
/// (paper_sweep, giant_list). A seed selects one of `pools` input pools;
/// `setup(pool, small)` builds the inputs, `pass(input, gate, probes)`
/// schedules and checks them once and returns a PassStats.
///
/// --record-digest: runs every pool once and writes the digest; returns
/// nothing. --trace 1: a set-up and pass untraced, then the same under
/// spans inside a root span named after the workload; adds the trace and
/// mem.alloc_* metrics. Otherwise: setup_s is the median CPU time of
/// kGraphSetupRuns set-ups; passes repeat while --seconds of wall time
/// last (at least `min_passes`) and each operation keeps its fastest CPU
/// time; work_s is their sum, peak_rss_mb the process's.
template <typename Setup, typename Pass>
auto run_repeated(const Options& opt, Outcome& out, std::uint64_t pools,
                  int min_passes, Setup&& setup, Pass&& pass) {
  using Input = decltype(setup(std::uint64_t{0}, false));
  using Result =
      decltype(pass(std::declval<Input&>(), std::declval<DigestGate&>(), false));
  std::optional<Repeated<Input, Result>> r;
  const Digest digest = Digest::load(opt.digest_path);
  if (!opt.record_digest.empty()) {
    Digest rec;
    const DigestGate gate{digest, &rec, out};
    for (std::uint64_t pool = 0; pool < pools; ++pool) {
      Input in = setup(pool, false);
      pass(in, gate, false);
    }
    if (!rec.save(opt.record_digest)) out.fail("cannot write digest");
    return r;
  }
  r.emplace();
  r->pool = opt.seed % pools;
  const DigestGate gate{digest, nullptr, out};

  if (opt.trace) {
    const double t0 = now_s();
    {
      Input in = setup(r->pool, opt.small);
      pass(in, gate, true);
    }
    const double untraced_s = now_s() - t0;
    Tracer tracer;
    g_tracer = &tracer;
    {
      Span root(opt.workload);
      r->input = setup(r->pool, opt.small);
      r->first = pass(r->input, gate, true);
    }
    g_tracer = nullptr;
    report_trace(tracer, opt.workload, untraced_s, opt, out);
    report_alloc(r->first.alloc, out);
    return r;
  }

  const double setup_s = median_setup_s(kGraphSetupRuns, [&] {
    r->input = Input{};  // peak RSS: never hold two copies of the set
    r->input = setup(r->pool, opt.small);
  });
  const auto runs = repeat_passes(opt.seconds, min_passes, [&] {
    const double t0 = now_s();
    Result res = pass(r->input, gate, false);
    r->pass_s.push_back(now_s() - t0);
    if (r->pass_s.size() == 1) r->first = res;
    return res.op_ms;
  });
  r->best = per_op_min(runs);
  out.metric("setup_s", setup_s, "s");
  out.metric("work_s", sum(r->best) / 1e3, "s");
  out.metric("peak_rss_mb",
             static_cast<double>(tgs::peak_rss_bytes()) / 1048576.0, "MB");
  return r;
}

/// Workload entry points. A failed operation is counted in `out`; an
/// exception means the workload could not run at all (no result).
void run_paper_sweep(const Options& opt, Outcome& out);
void run_giant_list(const Options& opt, Outcome& out);
void run_serve_mix(const Options& opt, Outcome& out);

}  // namespace e2e
