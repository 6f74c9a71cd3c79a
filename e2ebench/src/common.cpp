#include "common.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "tgs/gen/random_core.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/util/rng.h"

namespace e2e {

Tracer* g_tracer = nullptr;

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double cpu_s() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Outcome::fail(const std::string& message) {
  ++failed;
  correct = false;
  if (errors.size() < 20) errors.push_back(message);
}

// ------------------------------------------------------------- tracing --

int Tracer::open(const std::string& name, std::int64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.request = request;
  rec.start = now_s();
  spans_.push_back(std::move(rec));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  stack_.pop_back();
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) out[s.name] += (s.end - s.start) * 1e3;
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += (spans_[i].end - spans_[i].start - child[i]) * 1e3;
  return out;
}

std::int64_t Tracer::count(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const SpanRecord& s) { return s.name == name; });
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::size_t dot = s.name.find('.');
    const std::string cat =
        dot == std::string::npos ? s.name : s.name.substr(0, dot);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), cat.c_str(),
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void report_trace(const Tracer& tracer, const std::string& root,
                  double untraced_s, const Options& opt, Outcome& out) {
  const std::map<std::string, double> total = tracer.total_ms();
  const std::map<std::string, double> self = tracer.self_ms();
  const auto root_it = total.find(root);
  const double wall_s = root_it == total.end() ? 0.0 : root_it->second / 1e3;
  const double uncovered_s = self.count(root) ? self.at(root) / 1e3 : 0.0;

  std::vector<std::pair<double, std::string>> rows;
  double self_sum_ms = 0;
  for (const auto& [name, ms] : self) {
    rows.push_back({ms, name});
    self_sum_ms += ms;
  }
  std::sort(rows.rbegin(), rows.rend());
  std::fprintf(stderr, "\nper-layer self time (traced pass, %s):\n",
               opt.workload.c_str());
  std::fprintf(stderr, "  %-32s %8s %12s %12s %7s\n", "span", "count",
               "total_ms", "self_ms", "self%");
  for (const auto& [ms, name] : rows)
    std::fprintf(stderr, "  %-32s %8lld %12.3f %12.3f %6.2f%%\n",
                 name == root ? (name + " (uncovered)").c_str() : name.c_str(),
                 static_cast<long long>(tracer.count(name)), total.at(name),
                 ms, wall_s > 0 ? 100.0 * ms / (wall_s * 1e3) : 0.0);
  std::fprintf(stderr,
               "  self times sum to %.3f ms; traced wall %.3f ms; untraced "
               "wall %.3f ms; tracing overhead %.3f ms\n",
               self_sum_ms, wall_s * 1e3, untraced_s * 1e3,
               (wall_s - untraced_s) * 1e3);

  const std::string path = opt.work_dir + "/traces/" + opt.workload +
                           "-seed" + std::to_string(opt.seed) + ".json";
  if (tracer.write_chrome(path))
    std::fprintf(stderr, "  trace written to %s\n", path.c_str());
  else
    out.fail("cannot write trace file " + path);

  for (const MetricDef& m : per_layer_metrics()) {
    if (m.kind == MetricDef::kOther) continue;
    std::string span = m.name;
    span.resize(span.size() - 3);  // strip "_ms"
    const auto it = total.find(span);
    double value = it == total.end() ? 0.0 : it->second;
    if (m.kind == MetricDef::kMean && value > 0)
      value /= static_cast<double>(tracer.count(span));
    out.metric(m.name, value, m.unit);
  }
  out.metric("trace.wall_s", wall_s, "s");
  out.metric("trace.untraced_s", untraced_s, "s");
  out.metric("trace.overhead_s", wall_s - untraced_s, "s");
  out.metric("trace.uncovered_s", uncovered_s, "s");
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"work_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  using K = MetricDef::Kind;
  static const std::vector<MetricDef> defs = {
      {"gen.graph_ms", "ms", K::kTotal},
      {"graph.parse_ms", "ms", K::kTotal},
      {"graph.parse_bytes", "count"},
      {"graph.fingerprint_ms", "ms", K::kTotal},
      {"graph.attributes_ms", "ms", K::kTotal},
      {"bnp.HLFET_ms", "ms", K::kTotal},
      {"bnp.ISH_ms", "ms", K::kTotal},
      {"bnp.MCP_ms", "ms", K::kTotal},
      {"bnp.ETF_ms", "ms", K::kTotal},
      {"bnp.DLS_ms", "ms", K::kTotal},
      {"bnp.LAST_ms", "ms", K::kTotal},
      {"param.cp-static-insert_ms", "ms", K::kTotal},
      {"mem.alloc_count", "count"},
      {"mem.alloc_mb", "MB"},
      {"unc.EZ_ms", "ms", K::kTotal},
      {"unc.LC_ms", "ms", K::kTotal},
      {"unc.DSC_ms", "ms", K::kTotal},
      {"unc.MD_ms", "ms", K::kTotal},
      {"unc.DCP_ms", "ms", K::kTotal},
      {"unc.ez_clusters_ms", "ms", K::kTotal},
      {"unc.assignment_makespan_ms", "ms", K::kMean},
      {"apn.MH_ms", "ms", K::kTotal},
      {"apn.DLS_ms", "ms", K::kTotal},
      {"apn.BU_ms", "ms", K::kTotal},
      {"apn.BSA_ms", "ms", K::kTotal},
      {"apn.rebuild_ms", "ms", K::kMean},
      {"net.routing_ms", "ms", K::kMean},
      {"optimal.bb_ms", "ms", K::kTotal},
      {"optimal.nodes_expanded", "count"},
      {"optimal.nodes_per_s", "1/s"},
      {"optimal.proven", "count"},
      {"sched.validate_ms", "ms", K::kTotal},
      {"sched.to_text_ms", "ms", K::kTotal},
      {"serve.parse_request_ms", "ms", K::kTotal},
      {"serve.cache_lookup_ms", "ms", K::kTotal},
      {"serve.cache_insert_ms", "ms", K::kTotal},
      {"serve.journal_append_ms", "ms", K::kTotal},
      {"serve.render_ms", "ms", K::kTotal},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.compute_p50_ms", "ms"},
      {"serve.noncompute_p50_ms", "ms"},
      {"serve.rejected", "count"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.wall_s", "s"},
      {"trace.untraced_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.uncovered_s", "s"},
  };
  return defs;
}

std::string layer_of(const tgs::Scheduler& algo) {
  std::string name = algo.name();
  if (name.rfind("param:", 0) == 0) {
    name = name.substr(6);
    const std::string none = "/none";
    if (name.size() > none.size() &&
        name.compare(name.size() - none.size(), none.size(), none) == 0)
      name.resize(name.size() - none.size());
    std::replace(name.begin(), name.end(), '/', '-');
    return "param." + name;
  }
  const char* cls = algo.algo_class() == tgs::AlgoClass::kUNC ? "unc" : "bnp";
  return std::string(cls) + "." + name;
}

// -------------------------------------------------------------- digest --

Digest Digest::load(const std::string& path) {
  Digest d;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string id;
    Entry e;
    ls >> id >> e.fp;
    std::string field;
    while (ls >> field) {
      const std::size_t eq = field.rfind('=');
      if (eq == std::string::npos) continue;
      e.values.push_back(
          {field.substr(0, eq), std::stoll(field.substr(eq + 1))});
    }
    d.graphs_[id] = std::move(e);
  }
  return d;
}

std::string Digest::check(const std::string& graph_id, const std::string& fp,
                          const std::string& algo, std::int64_t value) const {
  const auto it = graphs_.find(graph_id);
  if (it == graphs_.end()) return graph_id + ": not in the digest";
  if (it->second.fp != fp)
    return graph_id + ": input changed (fingerprint " + fp + ", digest " +
           it->second.fp + ")";
  for (const auto& [name, recorded] : it->second.values) {
    if (name != algo) continue;
    if (recorded == value) return "";
    return graph_id + " " + algo + ": " + std::to_string(value) +
           " differs from the digest's " + std::to_string(recorded);
  }
  return graph_id + " " + algo + ": not in the digest";
}

void Digest::record(const std::string& graph_id, const std::string& fp,
                    const std::string& algo, std::int64_t value) {
  Entry& e = graphs_[graph_id];
  e.fp = fp;
  for (auto& [name, recorded] : e.values)
    if (name == algo) {
      recorded = value;
      return;
    }
  e.values.push_back({algo, value});
}

bool Digest::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# <graph-id> <fingerprint> <algo>=<makespan> ... "
         "(written by tgs_e2e --record-digest)\n";
  for (const auto& [id, e] : graphs_) {
    out << id << ' ' << e.fp;
    for (const auto& [name, value] : e.values) out << ' ' << name << '=' << value;
    out << '\n';
  }
  return static_cast<bool>(out);
}

void DigestGate::operator()(const std::string& graph_id, const std::string& fp,
                            const std::string& algo, std::int64_t value,
                            const tgs::ValidationResult& valid) const {
  ++out.attempted;
  if (!valid.ok)
    return out.fail(graph_id + " " + algo + ": invalid schedule: " +
                    valid.error);
  if (record != nullptr) return record->record(graph_id, fp, algo, value);
  const std::string err = digest.check(graph_id, fp, algo, value);
  if (!err.empty()) out.fail(err);
}

std::string fingerprint_of(const tgs::TaskGraph& g) {
  return tgs::graph_fingerprint(g).hex();
}

// -------------------------------------------------------------- inputs --

tgs::TaskGraph reweigh(const tgs::TaskGraph& g,
                       const std::function<tgs::Cost(tgs::Cost)>& node,
                       const std::function<tgs::Cost(tgs::Cost)>& edge) {
  tgs::TaskGraphBuilder b(g.name());
  b.reserve(g.num_nodes(), g.num_edges());
  for (tgs::NodeId n = 0; n < g.num_nodes(); ++n) b.add_node(node(g.weight(n)));
  for (tgs::NodeId n = 0; n < g.num_nodes(); ++n)
    for (const tgs::Adj& a : g.children(n)) b.add_edge(n, a.node, edge(a.cost));
  return b.finalize();
}

tgs::TaskGraph rgnos_variant(tgs::NodeId v, double ccr,
                             std::uint64_t structure_seed,
                             std::uint64_t weight_seed) {
  tgs::RgnosParams p;
  p.num_nodes = v;
  p.ccr = ccr;
  p.parallelism = 3;
  p.seed = structure_seed;
  tgs::TaskGraph g = tgs::rgnos_graph(p);
  if (weight_seed == 0) return g;
  tgs::Rng rng(weight_seed);
  return reweigh(
      g, [&](tgs::Cost) { return tgs::draw_comp_cost(rng, p.mean_weight); },
      [&](tgs::Cost) { return tgs::draw_comm_cost(rng, p.mean_weight, ccr); });
}

// -------------------------------------------------- repeated workloads --

PreparedGraph prepare(std::string id, tgs::TaskGraph g) {
  PreparedGraph c{std::move(id),
                  std::make_unique<const tgs::TaskGraph>(std::move(g)), "",
                  std::make_unique<tgs::SchedWorkspace>()};
  {
    Span span("graph.fingerprint");
    c.fp = fingerprint_of(*c.graph);
  }
  Span span("graph.attributes");
  c.ws->begin_graph(*c.graph);
  c.ws->attrs().static_levels();
  c.ws->attrs().alap_times();  // also fills b-levels and the critical path
  return c;
}

void report_alloc(const AllocTotals& alloc, Outcome& out) {
  const double calls = static_cast<double>(std::max<std::uint64_t>(1, alloc.calls));
  out.metric("mem.alloc_count", static_cast<double>(alloc.count) / calls,
             "count");
  out.metric("mem.alloc_mb",
             static_cast<double>(alloc.bytes) / calls / 1048576.0, "MB");
}

// ---------------------------------------------------------- statistics --

std::vector<double> per_op_min(const std::vector<std::vector<double>>& runs) {
  std::vector<double> out = runs.front();
  for (const std::vector<double>& r : runs)
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], r[i]);
  return out;
}

double sum(const std::vector<double>& xs) {
  double s = 0;
  for (const double x : xs) s += x;
  return s;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

}  // namespace e2e
