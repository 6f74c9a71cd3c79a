// Deterministic differential fuzzer for request ingress: seeded mutations
// of tgs1 graph text and of JSON request lines go through the live parsers
// and through the frozen copies in reference_graph_io.h. Both must accept
// and reject the same inputs -- same exception type, same what() -- and,
// for accepted input, produce the same graph (CSR arrays, topological
// order, totals, tgs1 text, fingerprint) or the same JSON document.
//
// A bounded sample of the accepted mutated graphs is then scheduled by all
// 15 algorithms (the 4 APN ones on hypercube(3) and ring(4)), and every
// schedule is validated.
//
// No libFuzzer: a fixed seed and a bounded iteration count keep the run
// reproducible and a few seconds long even under ASan+UBSan. A failing
// input is printed escaped, with its iteration number.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "reference_graph_io.h"
#include "reference_schedulers.h"
#include "tgs/exec/jsonl.h"
#include "tgs/gen/psg.h"
#include "tgs/gen/rgbos.h"
#include "tgs/gen/rgnos.h"
#include "tgs/graph/fingerprint.h"
#include "tgs/graph/graph_io.h"
#include "tgs/harness/registry.h"
#include "tgs/net/net_validate.h"
#include "tgs/serve/json.h"
#include "tgs/sched/validate.h"
#include "tgs/serve/protocol.h"
#include "tgs/util/rng.h"

namespace tgs {
namespace {

constexpr int kGraphIterations = 14000;
constexpr int kJsonIterations = 6000;
// Every kScheduleStride-th accepted mutated graph with at most
// kScheduleMaxNodes tasks is scheduled by every algorithm.
constexpr int kScheduleStride = 8;
constexpr NodeId kScheduleMaxNodes = 64;

std::string escaped(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20 || c >= 0x7f || c == '\\') {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

/// The outcome of one parse: the value, or the exception's type and text.
template <class T>
struct Outcome {
  std::optional<T> value;
  std::string error_type;
  std::string error;
};

template <class T, class F>
Outcome<T> attempt(F&& parse) {
  Outcome<T> o;
  try {
    o.value.emplace(parse());
  } catch (const std::exception& e) {
    o.error_type = typeid(e).name();
    o.error = e.what();
  }
  return o;
}

// ------------------------------------------------------------------ tgs1 --

std::vector<std::string> graph_seeds() {
  RgnosParams p;
  p.num_nodes = 24;
  p.ccr = 1.0;
  p.parallelism = 3;
  p.seed = 5;
  return {
      graph_to_string(psg_canonical9()),
      graph_to_string(rgnos_graph(p)),
      graph_to_string(rgbos_graph(10.0, 12, 3)),
      // Comments, CRLF ends, tabs, an unlabelled node among labelled ones,
      // and trailing text after the last record (never read).
      "# header comment\r\ntgs1 mini 3 2\r\nnode 0 4 a\r\n#\r\nnode\t1\t6\r\n"
      "node 2 +7 c\r\nedge 0 1 3\r\nedge 1 2 0\r\ntrailing junk\n",
      "tgs1 empty 0 0\n",
  };
}

/// A byte the tgs1 scanner treats specially, else a random one.
char graph_byte(Rng& rng) {
  static const char kBytes[] = "0123456789 +-\v\f\r\t#\nnodeg";
  if (rng.bernoulli(0.2)) return '\0';
  if (rng.bernoulli(0.15))
    return static_cast<char>(rng.uniform_int(0, 255));
  return kBytes[rng.uniform_int(0, sizeof kBytes - 2)];
}

std::size_t pick(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size)));
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) nl = s.size();
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string s;
  for (const std::string& l : lines) s += l + '\n';
  return s;
}

/// Adds `delta` to the header's edge count, when the header is intact.
void bump_edge_count(std::vector<std::string>& lines, int delta) {
  for (std::string& l : lines) {
    if (l.rfind("tgs1 ", 0) != 0) continue;
    const std::size_t sp = l.rfind(' ');
    try {
      const long long m = std::stoll(l.substr(sp + 1));
      if (m < std::numeric_limits<long long>::max() - delta)
        l = l.substr(0, sp + 1) + std::to_string(m + delta);
    } catch (const std::exception&) {
    }
    return;
  }
}

std::vector<std::size_t> lines_starting(const std::vector<std::string>& lines,
                                        const char* prefix) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind(prefix, 0) == 0) idx.push_back(i);
  return idx;
}

std::string mutate_graph(std::string s, Rng& rng) {
  static const char* kNumbers[] = {
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "281474976710656",     "140737488355328",     "4611686018427387904",
      "4294967295",          "4294967294",          "99999999999999999999",
      "+7",                  "+",                   "-0",
      "007",                 "0x10",                "1e3",
      "-1",                  "0",                   "\v\f5"};
  const int steps = static_cast<int>(rng.uniform_int(1, 3));
  for (int step = 0; step < steps; ++step) {
    std::vector<std::string> lines = split_lines(s);
    switch (rng.uniform_int(0, 9)) {
      case 0:  // flip a byte
        if (!s.empty()) s[pick(rng, s.size() - 1)] = graph_byte(rng);
        break;
      case 1:  // insert a byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(rng, s.size())),
                 graph_byte(rng));
        break;
      case 2: {  // delete a short run
        const std::size_t at = pick(rng, s.size());
        s.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 4)));
        break;
      }
      case 3:  // truncate
        s.resize(pick(rng, s.size()));
        break;
      case 4: {  // edit a header count
        for (std::string& l : lines) {
          if (l.rfind("tgs1 ", 0) != 0) continue;
          std::istringstream is(l);
          std::string magic, name, n, m;
          is >> magic >> name >> n >> m;
          (rng.bernoulli(0.5) ? n : m) =
              rng.bernoulli(0.5)
                  ? kNumbers[rng.uniform_int(0, std::size(kNumbers) - 1)]
                  : std::to_string(rng.uniform_int(-1, 40));
          l = magic + ' ' + name + ' ' + n + ' ' + m;
          break;
        }
        s = join_lines(lines);
        break;
      }
      case 5: {  // duplicate an edge, possibly with another cost
        const auto edges = lines_starting(lines, "edge ");
        if (edges.empty()) break;
        std::string dup = lines[edges[pick(rng, edges.size() - 1)]];
        if (rng.bernoulli(0.5)) dup += '1';
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, lines.size() - 1) + 1),
                     dup);
        bump_edge_count(lines, 1);
        s = join_lines(lines);
        break;
      }
      case 6: {  // close a cycle by reversing an edge
        const auto edges = lines_starting(lines, "edge ");
        if (edges.empty()) break;
        std::istringstream is(lines[edges[pick(rng, edges.size() - 1)]]);
        std::string kind, u, v, c;
        is >> kind >> u >> v >> c;
        lines.push_back("edge " + v + ' ' + u + ' ' + c);
        bump_edge_count(lines, 1);
        s = join_lines(lines);
        break;
      }
      case 7: {  // an extreme or odd number in a record field
        const auto recs = rng.bernoulli(0.5) ? lines_starting(lines, "node ")
                                             : lines_starting(lines, "edge ");
        if (recs.empty()) break;
        std::string& l = lines[recs[pick(rng, recs.size() - 1)]];
        std::vector<std::string> fields;
        std::istringstream is(l);
        for (std::string f; is >> f;) fields.push_back(f);
        if (fields.size() < 2) break;
        fields[1 + pick(rng, fields.size() - 2)] =
            kNumbers[rng.uniform_int(0, std::size(kNumbers) - 1)];
        l.clear();
        for (const std::string& f : fields) l += (l.empty() ? "" : " ") + f;
        s = join_lines(lines);
        break;
      }
      case 8: {  // a comment, blank, whitespace-only or CR line
        static const char* kLines[] = {"#", "# note", "", " ", "\r", "\t"};
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, lines.size())),
                     kLines[rng.uniform_int(0, std::size(kLines) - 1)]);
        s = join_lines(lines);
        break;
      }
      case 9: {  // swap two lines
        if (lines.size() < 2) break;
        std::swap(lines[pick(rng, lines.size() - 1)],
                  lines[pick(rng, lines.size() - 1)]);
        s = join_lines(lines);
        break;
      }
    }
  }
  return s;
}

/// The frozen graph rebuilt through the live builder, for fingerprinting.
TaskGraph rebuild(const reference::FrozenGraph& f) {
  TaskGraphBuilder b(f.name);
  for (std::size_t i = 0; i < f.weights.size(); ++i)
    b.add_node(f.weights[i], f.labels.empty() ? std::string() : f.labels[i]);
  for (NodeId u = 0; u + 1 < f.succ_off.size(); ++u)
    for (std::size_t k = f.succ_off[u]; k < f.succ_off[u + 1]; ++k)
      b.add_edge(u, f.succ[k].node, f.succ[k].cost);
  return b.finalize();
}

/// Empty when `g` holds exactly what the frozen finalize computed.
std::string graph_mismatch(const TaskGraph& g, const reference::FrozenGraph& f) {
  if (g.name() != f.name) return "name";
  if (g.num_nodes() != f.weights.size()) return "num_nodes";
  if (g.num_edges() != f.num_edges) return "num_edges";
  if (g.total_weight() != f.total_weight) return "total_weight";
  if (g.total_edge_cost() != f.total_edge_cost) return "total_edge_cost";
  if (g.has_labels() != !f.labels.empty()) return "has_labels";
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.weight(n) != f.weights[n]) return "weight";
    if (g.has_labels() && g.label(n) != f.labels[n]) return "label";
    const auto kids = g.children(n);
    if (!std::equal(kids.begin(), kids.end(), f.succ.begin() + f.succ_off[n],
                    f.succ.begin() + f.succ_off[n + 1]))
      return "children";
    const auto pars = g.parents(n);
    if (!std::equal(pars.begin(), pars.end(), f.pred.begin() + f.pred_off[n],
                    f.pred.begin() + f.pred_off[n + 1]))
      return "parents";
  }
  if (g.entry_nodes() != f.entries) return "entries";
  if (g.exit_nodes() != f.exits) return "exits";
  if (g.topological_order() != f.topo) return "topological order";
  if (graph_to_string(g) != reference::graph_to_string(f)) return "tgs1 text";
  if (graph_fingerprint(g) != graph_fingerprint(rebuild(f))) return "fingerprint";
  return {};
}

/// Empty when live and frozen agree on `text`; else what differs.
std::string graph_disagreement(const std::string& text, bool via_stream) {
  const auto ref = attempt<reference::FrozenGraph>(
      [&] { return reference::graph_from_string(text); });
  const auto live = attempt<TaskGraph>([&] {
    if (!via_stream) return graph_from_string(text);
    std::istringstream is(text);
    return read_graph(is);
  });
  if (ref.value.has_value() != live.value.has_value())
    return ref.value
               ? "live rejects (" + escaped(live.error) + "), frozen accepts"
               : "live accepts, frozen rejects (" + escaped(ref.error) + ")";
  if (!ref.value) {
    if (ref.error_type != live.error_type) return "exception types differ";
    if (ref.error != live.error)
      return "what() differs: live '" + escaped(live.error) + "' frozen '" +
             escaped(ref.error) + "'";
    return {};
  }
  return graph_mismatch(*live.value, *ref.value);
}

TEST(FuzzInputs, SeedGraphsParseIdentically) {
  for (const std::string& text : graph_seeds()) {
    EXPECT_EQ(graph_disagreement(text, false), "") << escaped(text);
    EXPECT_EQ(graph_disagreement(text, true), "") << escaped(text);
  }
}

TEST(FuzzInputs, HandPickedEdgesParseIdentically) {
  using namespace std::string_literals;  // the cases hold NUL bytes
  const std::string cases[] = {
      ""s,
      "# only a comment\n"s,
      "tgs1"s,
      "tgs1 g"s,
      "tgs1 g 1"s,
      "tgs1 g 1 0"s,
      "tgs1 g 1 0\nnode 0 5"s,
      "tgs1 g 0 0\nnode 0 5\n"s,             // counts met before any record
      "tgs1 g 0 0\ngarbage\n"s,
      "tgs1 g 1 0\nnode 0 5\ngarbage"s,      // text after the last record
      "tgs1 g +1 +0\nnode +0 +5\n"s,
      "tgs1 g 1 0\nnode 0 +\n"s,
      "tgs1 g 1 0\nnode 0 \v\f5\n"s,
      "tgs1 g 1 0\nnode\v0 5\n"s,            // \v ends no token
      "tgs1 g 1 0\nnode 0 5\0label\n"s,
      "tgs1 g\0 1 0\nnode 0 5\n"s,
      "\0tgs1 g 1 0\n"s,
      "tgs1 g 1 0\nnode 0 5 lab\0el extra\n"s,
      "tgs1 g 1 0\nnode 0 5abc\n"s,          // number then label, no space
      "tgs1 g 1 0\nnode 0 9223372036854775808\n"s,
      "tgs1 g 1 0\nnode 0 -9223372036854775809\n"s,
      "tgs1 g 1 0\nnode 4294967295 5\n"s,
      "tgs1 g 2 1\nnode 0 1\nnode 1 1\nedge 0 1 -0\n"s,
      "tgs1 g 2 2\nnode 0 1\nnode 1 1\nedge 0 1 3\nedge 0 1 4\n"s,
      "tgs1 g 2 2\nnode 0 1\nnode 1 1\nedge 0 1 3\nedge 1 0 4\n"s,
      "tgs1 g 2 1\nnode 0 1\nnode 1 1\nedge 1 1 3\n"s,
      "tgs1 g 2 1\nnode 0 1\nnode 1 1\nedge 0 2 3\n"s,
      "tgs1 g 3 0\nnode 0 4611686018427387904\nnode 1 4611686018427387904\n"
      "node 2 4611686018427387904\n"s,
      "tgs1 g 2 1\nnode 0 140737488355328\nnode 1 140737488355328\n"
      "edge 0 1 1\n"s,                        // one past the domain
      "tgs1 g 2 1\nnode 0 140737488355328\nnode 1 140737488355327\n"
      "edge 0 1 1\n"s,                        // exactly at the domain bound
      "tgs1 g 2 3\nnode 0 1\nnode 1 1\nedge 0 1 3\nedge 0 1 281474976710656\n"
      "edge 1 0 1\n"s,                        // duplicate before domain/cycle
      "tgs1 g 2 2\nnode 0 1\nnode 1 1\nedge 0 1 281474976710656\n"
      "edge 1 0 1\n"s,                        // domain before cycle
  };
  for (const std::string& text : cases) {
    EXPECT_EQ(graph_disagreement(text, false), "") << escaped(text);
    EXPECT_EQ(graph_disagreement(text, true), "") << escaped(text);
  }
}

TEST(FuzzInputs, MutatedGraphTextParsesIdentically) {
  const std::vector<std::string> seeds = graph_seeds();
  Rng rng(20260101);
  int accepted = 0;
  for (int it = 0; it < kGraphIterations; ++it) {
    const std::string text =
        mutate_graph(seeds[pick(rng, seeds.size() - 1)], rng);
    const std::string diff = graph_disagreement(text, it % 8 == 0);
    ASSERT_EQ(diff, "") << "iteration " << it << ": " << escaped(text);
    try {
      graph_from_string(text);
      ++accepted;
    } catch (const std::invalid_argument&) {
    }
  }
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(accepted, kGraphIterations / 20);
  EXPECT_LT(accepted, kGraphIterations - kGraphIterations / 20);
}

/// Empty when two NetSchedules place every task and route every message,
/// hop by hop, the same; else the first difference.
std::string net_difference(const NetSchedule& a, const NetSchedule& b) {
  for (NodeId n = 0; n < a.graph().num_nodes(); ++n)
    if (a.tasks().proc(n) != b.tasks().proc(n) ||
        a.tasks().start(n) != b.tasks().start(n))
      return "task " + std::to_string(n);
  const std::vector<Message>& ma = a.messages();
  const std::vector<Message>& mb = b.messages();
  if (ma.size() != mb.size()) return "message count";
  for (std::size_t i = 0; i < ma.size(); ++i) {
    const bool same =
        ma[i].src == mb[i].src && ma[i].dst == mb[i].dst &&
        ma[i].arrival == mb[i].arrival && ma[i].hops.size() == mb[i].hops.size() &&
        std::equal(ma[i].hops.begin(), ma[i].hops.end(), mb[i].hops.begin(),
                   [](const MsgHop& x, const MsgHop& y) {
                     return x.link == y.link && x.start == y.start;
                   });
    if (!same) return "message " + std::to_string(i);
  }
  return {};
}

TEST(FuzzInputs, AcceptedGraphsScheduleValidly) {
  // The graph mutation stream again (its own seed), now scheduling a
  // sample of what the parser accepts: weights anywhere in the cost
  // domain, zero-cost edges, empty and edge-free graphs.
  const std::vector<std::string> seeds = graph_seeds();
  const auto fully_connected = make_unc_and_bnp_schedulers();
  const auto apn = make_apn_schedulers();
  const RoutingTable hypercube{Topology::hypercube(3)};
  const RoutingTable ring{Topology::ring(4)};
  Rng rng(20261017);
  int accepted = 0;
  int scheduled = 0;
  for (int it = 0; it < kGraphIterations; ++it) {
    const std::string text =
        mutate_graph(seeds[pick(rng, seeds.size() - 1)], rng);
    std::optional<TaskGraph> parsed;
    try {
      parsed.emplace(graph_from_string(text));
    } catch (const std::invalid_argument&) {
      continue;
    }
    const TaskGraph& g = *parsed;
    if (accepted++ % kScheduleStride != 0 || g.num_nodes() > kScheduleMaxNodes)
      continue;
    ++scheduled;
    const std::string where = "iteration " + std::to_string(it) + ": " + escaped(text);
    SchedWorkspace ws;
    ws.begin_graph(g);
    for (const auto& algo : fully_connected) {
      const Schedule s = algo->run(g, SchedOptions{}, ws);
      const ValidationResult v = validate_schedule(s);
      ASSERT_TRUE(v.ok) << algo->name() << ": " << v.error << "\n" << where;
    }
    for (const RoutingTable* routes : {&hypercube, &ring}) {
      for (const auto& algo : apn) {
        const NetSchedule ns = algo->run(g, *routes, ws);
        const ValidationResult v = validate_net_schedule(ns);
        ASSERT_TRUE(v.ok) << algo->name() << " on "
                          << routes->topology().name() << ": " << v.error
                          << "\n" << where;
        if (algo->name() == "BSA") {
          ASSERT_EQ(net_difference(ns, reference::full_rebuild_bsa(g, *routes)),
                    "")
              << "BSA vs its frozen rebuild on " << routes->topology().name()
              << "\n" << where;
        }
      }
    }
  }
  EXPECT_GT(scheduled, 200);
}

// ------------------------------------------------------------------ JSON --

std::string number_text(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string dump(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return v.as_bool() ? "true" : "false";
    case JsonValue::Type::kNumber: return number_text(v.as_number());
    case JsonValue::Type::kString:
      return "s" + std::to_string(v.as_string().size()) + ":" + v.as_string();
    case JsonValue::Type::kArray: {
      std::string s = "[";
      for (const JsonValue& e : v.as_array()) s += dump(e) + ",";
      return s + "]";
    }
    case JsonValue::Type::kObject: {
      std::string s = "{";
      for (const auto& [k, e] : v.as_object())
        s += "s" + std::to_string(k.size()) + ":" + k + "=" + dump(e) + ",";
      return s + "}";
    }
  }
  return "?";
}

std::string dump(const reference::JsonNode& v) {
  using T = reference::JsonNode::Type;
  switch (v.type) {
    case T::kNull: return "null";
    case T::kBool: return v.b ? "true" : "false";
    case T::kNumber: return number_text(v.num);
    case T::kString: return "s" + std::to_string(v.str.size()) + ":" + v.str;
    case T::kArray: {
      std::string s = "[";
      for (const reference::JsonNode& e : v.arr) s += dump(e) + ",";
      return s + "]";
    }
    case T::kObject: {
      std::string s = "{";
      for (const auto& [k, e] : v.obj)
        s += "s" + std::to_string(k.size()) + ":" + k + "=" + dump(e) + ",";
      return s + "}";
    }
  }
  return "?";
}

std::vector<std::string> json_seeds() {
  std::vector<std::string> seeds;
  JsonObject a;
  a.add("id", "r1").add("graph", graph_to_string(psg_canonical9()))
      .add("algo", "MCP").add_int("procs", 4);
  seeds.push_back(a.str());
  JsonObject b;
  b.add("graph", graph_to_string(rgbos_graph(1.0, 8, 2))).add("algo", "MH")
      .add("topology", "ring4").add("schedule", true).add("cache", false)
      .add("priority", "low");
  seeds.push_back(b.str());
  seeds.push_back(
      R"({"op":"schedule","id":"é中\"\\\/\b\f\n\r\t","algo":"ETF",)"
      R"("graph":"tgs1 g 1 0\nnode 0 5\n","deadline_ms":1.5e3,"retry":-0,)"
      R"("x":[1,-2.25E-2,[true,false,null],{}],"y":{"z":{"w":[]}}})");
  seeds.push_back(R"(  {"op":"ping"}  )");
  // Graph strings with every escape the tgs1 text can meet: '\t' between
  // fields, "\u000a" or "\n" line ends, and labels holding '\\', '/' and
  // '"' (sent as "\/" and "\""). A k-byte comment line in front shifts
  // every escape by k, so over k = 0..7 each one sits at every offset
  // modulo the parser's 8-byte word.
  for (int k = 0; k < 8; ++k) {
    std::string text = "#" + std::string(static_cast<std::size_t>(k), '~') +
                       "\ntgs1 esc/\"g\\ 6 7\n";
    const char* labels[] = {"a\\", "/b", "\"c\"", "d\\/\"", "", "x/\\\"\"y"};
    for (int i = 0; i < 6; ++i)
      text += "node\t" + std::to_string(i) + "\t" + std::to_string(3 + i) +
              "\t" + labels[i] + "\n";
    text +=
        "edge 0\t1 2\nedge 0 2\t3\nedge\t1 3 4\nedge 2 3 1\nedge 3 4 0\n"
        "edge 3 5 7\nedge 4 5 2\n";
    std::string body;
    for (const char c : text) {
      switch (c) {
        case '\n': body += k % 2 == 0 ? "\\u000a" : "\\n"; break;
        case '\t': body += "\\t"; break;
        case '\\': body += "\\\\"; break;
        case '/': body += "\\/"; break;
        case '"': body += "\\\""; break;
        default: body += c;
      }
    }
    seeds.push_back(R"({"algo":"MCP","graph":")" + body + "\"}");
  }
  // A request at the largest size of the RGNOS suite: v=500.
  RgnosParams p;
  p.num_nodes = 500;
  p.ccr = 10.0;
  p.parallelism = 3;
  p.seed = 9;
  JsonObject big;
  big.add("id", "v500").add("graph", graph_to_string(rgnos_graph(p)))
      .add("algo", "DCP").add_int("procs", 0);
  seeds.push_back(big.str());
  return seeds;
}

char json_byte(Rng& rng) {
  static const char kBytes[] = "\"\\u{}[],:0123456789.eE+-tfn \n\t\r/bafAF";
  if (rng.bernoulli(0.1)) return static_cast<char>(rng.uniform_int(0, 0x1f));
  if (rng.bernoulli(0.1)) return static_cast<char>(rng.uniform_int(0, 255));
  return kBytes[rng.uniform_int(0, sizeof kBytes - 2)];
}

std::string mutate_json(std::string s, Rng& rng) {
  const int steps = static_cast<int>(rng.uniform_int(1, 3));
  for (int step = 0; step < steps; ++step) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        if (!s.empty()) s[pick(rng, s.size() - 1)] = json_byte(rng);
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(rng, s.size())),
                 json_byte(rng));
        break;
      case 2:
        s.erase(pick(rng, s.size()), static_cast<std::size_t>(rng.uniform_int(1, 4)));
        break;
      case 3:
        s.resize(pick(rng, s.size()));
        break;
      case 4: {  // an escape sequence inside the text
        static const char* kEscapes[] = {"\\u", "\\u00", "\\u12G4", "\\uD83D",
                                         "\\x", "\\", "\\\"", "\\n"};
        s.insert(pick(rng, s.size()),
                 kEscapes[rng.uniform_int(0, std::size(kEscapes) - 1)]);
        break;
      }
    }
  }
  return s;
}

std::string json_disagreement(const std::string& line) {
  const auto ref =
      attempt<reference::JsonNode>([&] { return reference::json_parse(line); });
  const auto live = attempt<JsonValue>([&] { return json_parse(line); });
  if (ref.value.has_value() != live.value.has_value())
    return ref.value
               ? "live rejects (" + escaped(live.error) + "), frozen accepts"
               : "live accepts, frozen rejects (" + escaped(ref.error) + ")";
  if (!ref.value) {
    if (ref.error_type != live.error_type) return "exception types differ";
    if (ref.error != live.error)
      return "what() differs: live '" + escaped(live.error) + "' frozen '" +
             escaped(ref.error) + "'";
    return {};
  }
  if (dump(*live.value) != dump(*ref.value)) return "documents differ";
  // parse_request moves the graph text out of the document: it must be
  // the text the frozen parser decoded.
  try {
    const ServeRequest req = parse_request(line);
    const auto it = ref.value->obj.find("graph");
    const std::string want =
        it != ref.value->obj.end() &&
                it->second.type == reference::JsonNode::Type::kString
            ? it->second.str
            : "";
    if (req.graph_text != want) return "parse_request graph text differs";
  } catch (const ProtocolError&) {
  }
  return {};
}

TEST(FuzzInputs, EscapedGraphStringsParseLikeTheirText) {
  // Every seed's graph string decodes to tgs1 text that the live and the
  // frozen reader accept alike, into the same graph.
  int graphs = 0;
  for (const std::string& line : json_seeds()) {
    const ServeRequest req = parse_request(line);
    if (req.graph_text.empty()) continue;
    EXPECT_EQ(graph_disagreement(req.graph_text, false), "") << escaped(line);
    EXPECT_NO_THROW(graph_from_string(req.graph_text)) << escaped(line);
    ++graphs;
  }
  EXPECT_EQ(graphs, 12);
}

TEST(FuzzInputs, MutatedRequestLinesParseIdentically) {
  const std::vector<std::string> seeds = json_seeds();
  for (const std::string& line : seeds)
    ASSERT_EQ(json_disagreement(line), "") << escaped(line);
  // The last seed, the v=500 line, is checked whole but not mutated: at
  // 300 KB a line it would take most of the run's time, and the escape
  // seeds put the same string scan at every word offset.
  const std::size_t mutated = seeds.size() - 1;
  Rng rng(20260202);
  int accepted = 0;
  for (int it = 0; it < kJsonIterations; ++it) {
    const std::string line = mutate_json(seeds[pick(rng, mutated - 1)], rng);
    ASSERT_EQ(json_disagreement(line), "")
        << "iteration " << it << ": " << escaped(line);
    try {
      json_parse(line);
      ++accepted;
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(accepted, kJsonIterations / 20);
  EXPECT_LT(accepted, kJsonIterations - kJsonIterations / 20);
}

}  // namespace
}  // namespace tgs
