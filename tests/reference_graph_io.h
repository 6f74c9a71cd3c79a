// Frozen copies of the request-ingress code as it stood before the
// one-pass parser: the getline + LineScanner tgs1 reader, the sort-based
// TaskGraphBuilder::finalize, and the JSON parser's per-byte string scan.
// tests/test_fuzz_inputs.cpp feeds mutated inputs to these and to the live
// code and requires the same accepts, the same rejects (exception type
// and what()) and, for accepted input, the same graph or document.
//
// Deliberately straight-line copies -- do not refactor or "optimize";
// fidelity to the retired code is the point. The one addition is the cost
// domain check (util/types.h, kMaxGraphCost) in FrozenBuilder::finalize, at
// the point the live finalize makes it: between the duplicate-edge and the
// cycle check, where the totals are summed.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tgs/graph/task_graph.h"

namespace tgs::reference {

/// Everything the sort-based finalize computed, in TaskGraph's layout.
struct FrozenGraph {
  std::string name;
  std::vector<Cost> weights;
  std::vector<std::string> labels;
  std::vector<std::size_t> succ_off, pred_off;
  std::vector<Adj> succ, pred;
  std::vector<NodeId> entries, exits, topo;
  std::size_t num_edges = 0;
  Cost total_weight = 0;
  Cost total_edge_cost = 0;
};

/// TaskGraphBuilder with the sort-based finalize.
class FrozenBuilder {
 public:
  explicit FrozenBuilder(std::string name = "graph") : name_(std::move(name)) {}

  void reserve(std::size_t nodes, std::size_t edges) {
    weights_.reserve(nodes);
    labels_.reserve(nodes);
    edges_.reserve(edges);
  }

  NodeId add_node(Cost weight, std::string label = {}) {
    if (weight <= 0) throw std::invalid_argument("node weight must be positive");
    const NodeId id = static_cast<NodeId>(weights_.size());
    weights_.push_back(weight);
    if (!label.empty()) any_label_ = true;
    labels_.push_back(std::move(label));
    return id;
  }

  void add_edge(NodeId u, NodeId v, Cost cost) {
    if (u >= weights_.size() || v >= weights_.size())
      throw std::invalid_argument("edge endpoint out of range");
    if (u == v) throw std::invalid_argument("self loop");
    if (cost < 0) throw std::invalid_argument("edge cost must be >= 0");
    edges_.push_back({u, v, cost});
  }

  FrozenGraph finalize() {
    const NodeId n = static_cast<NodeId>(weights_.size());
    FrozenGraph g;
    g.name = std::move(name_);
    g.weights = std::move(weights_);
    if (any_label_) {
      g.labels = std::move(labels_);
      for (NodeId i = 0; i < n; ++i)
        if (g.labels[i].empty()) g.labels[i] = "n" + std::to_string(i + 1);
    }

    // Detect duplicate edges.
    std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    for (std::size_t i = 1; i < edges_.size(); ++i)
      if (edges_[i].u == edges_[i - 1].u && edges_[i].v == edges_[i - 1].v)
        throw std::invalid_argument("duplicate edge");

    // CSR construction (succ: already sorted by (u, v)).
    g.succ_off.assign(n + 1, 0);
    g.pred_off.assign(n + 1, 0);
    for (const Edge& e : edges_) {
      ++g.succ_off[e.u + 1];
      ++g.pred_off[e.v + 1];
    }
    for (NodeId i = 0; i < n; ++i) {
      g.succ_off[i + 1] += g.succ_off[i];
      g.pred_off[i + 1] += g.pred_off[i];
    }
    g.succ.resize(edges_.size());
    g.pred.resize(edges_.size());
    {
      std::vector<std::size_t> pos(g.succ_off.begin(), g.succ_off.end() - 1);
      for (const Edge& e : edges_) g.succ[pos[e.u]++] = {e.v, e.cost};
    }
    {
      // Re-sort by (v, u) for pred CSR.
      std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
        return a.v != b.v ? a.v < b.v : a.u < b.u;
      });
      std::vector<std::size_t> pos(g.pred_off.begin(), g.pred_off.end() - 1);
      for (const Edge& e : edges_) g.pred[pos[e.v]++] = {e.u, e.cost};
    }
    g.num_edges = edges_.size();
    // The cost domain check (the one addition to the frozen code).
    Cost total = 0;
    const auto add = [&total](Cost& subtotal, Cost x) {
      if (__builtin_add_overflow(total, x, &total) || total > kMaxGraphCost)
        throw std::invalid_argument(
            "graph cost out of domain: total weight + total edge cost "
            "exceeds 2^48");
      subtotal += x;
    };
    for (Cost w : g.weights) add(g.total_weight, w);
    for (const Edge& e : edges_) add(g.total_edge_cost, e.cost);

    // Entries / exits.
    for (NodeId i = 0; i < n; ++i) {
      if (g.pred_off[i + 1] == g.pred_off[i]) g.entries.push_back(i);
      if (g.succ_off[i + 1] == g.succ_off[i]) g.exits.push_back(i);
    }

    // Kahn topological sort with a min-id heap.
    std::vector<std::size_t> indeg(n);
    for (NodeId i = 0; i < n; ++i) indeg[i] = g.pred_off[i + 1] - g.pred_off[i];
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
        ready;
    for (NodeId i = 0; i < n; ++i)
      if (indeg[i] == 0) ready.push(i);
    g.topo.reserve(n);
    while (!ready.empty()) {
      const NodeId u = ready.top();
      ready.pop();
      g.topo.push_back(u);
      for (std::size_t k = g.succ_off[u]; k < g.succ_off[u + 1]; ++k)
        if (--indeg[g.succ[k].node] == 0) ready.push(g.succ[k].node);
    }
    if (g.topo.size() != n) throw std::invalid_argument("graph has a cycle");
    return g;
  }

 private:
  struct Edge {
    NodeId u, v;
    Cost cost;
  };
  std::string name_;
  std::vector<Cost> weights_;
  std::vector<std::string> labels_;
  std::vector<Edge> edges_;
  bool any_label_ = false;
};

// strtoll-based field scanner over one line.
struct LineScanner {
  const char* p;
  const std::string& line;

  explicit LineScanner(const std::string& l) : p(l.c_str()), line(l) {}

  void skip_ws() {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  }

  /// Next whitespace-delimited token, empty when the line is exhausted.
  std::string token() {
    skip_ws();
    const char* start = p;
    while (*p != '\0' && *p != ' ' && *p != '\t' && *p != '\r') ++p;
    return std::string(start, p);
  }

  std::int64_t int64(const char* what) {
    skip_ws();
    errno = 0;
    char* end = nullptr;
    const long long x = std::strtoll(p, &end, 10);
    if (end == p || errno == ERANGE)
      throw std::invalid_argument(std::string("bad ") + what +
                                  " line: " + line);
    p = end;
    return x;
  }

  NodeId node_id(const char* what) {
    const std::int64_t x = int64(what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      throw std::invalid_argument(std::string("bad ") + what +
                                  " line (id out of range): " + line);
    return static_cast<NodeId>(x);
  }
};

/// Upper bound on the records left in `is` (8 bytes per record).
inline std::size_t max_records_left(std::istream& is) {
  constexpr std::size_t kMinRecordBytes = 8;
  if (!is.good()) return 0;
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(here);
  if (end == std::istream::pos_type(-1)) return 0;
  return static_cast<std::size_t>(end - here) / kMinRecordBytes;
}

inline FrozenGraph read_graph(std::istream& is) {
  std::string line;
  std::string magic, name;
  NodeId n = 0;
  std::size_t m = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    LineScanner hs(line);
    magic = hs.token();
    if (magic != "tgs1") throw std::invalid_argument("bad tgs1 header: " + line);
    name = hs.token();
    if (name.empty()) throw std::invalid_argument("bad tgs1 header: " + line);
    const std::int64_t n64 = hs.int64("tgs1 header");
    const std::int64_t m64 = hs.int64("tgs1 header");
    if (n64 < 0 || n64 > static_cast<std::int64_t>(kNoNode - 1) || m64 < 0)
      throw std::invalid_argument("bad tgs1 header (counts): " + line);
    n = static_cast<NodeId>(n64);
    m = static_cast<std::size_t>(m64);
    break;
  }
  if (magic != "tgs1") throw std::invalid_argument("missing tgs1 header");

  FrozenBuilder b(name);
  const std::size_t max_records = max_records_left(is);
  const std::size_t node_cap =
      std::min(static_cast<std::size_t>(n), max_records);
  b.reserve(node_cap, std::min(m, max_records - node_cap));
  NodeId nodes_seen = 0;
  std::size_t edges_seen = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    LineScanner ls(line);
    const std::string kind = ls.token();
    if (kind == "node") {
      const NodeId id = ls.node_id("node");
      const Cost w = ls.int64("node");
      const std::string label = ls.token();  // optional
      if (id != nodes_seen)
        throw std::invalid_argument("node ids must be dense and in order");
      b.add_node(w, label);
      ++nodes_seen;
    } else if (kind == "edge") {
      const NodeId u = ls.node_id("edge");
      const NodeId v = ls.node_id("edge");
      const Cost c = ls.int64("edge");
      b.add_edge(u, v, c);
      ++edges_seen;
    } else {
      throw std::invalid_argument("unknown record: " + line);
    }
    if (nodes_seen == n && edges_seen == m) break;
  }
  if (nodes_seen != n || edges_seen != m)
    throw std::invalid_argument("truncated tgs1 stream");
  return b.finalize();
}

inline FrozenGraph graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_graph(is);
}

/// write_graph over a FrozenGraph.
inline std::string graph_to_string(const FrozenGraph& g) {
  std::ostringstream os;
  const NodeId n = static_cast<NodeId>(g.weights.size());
  os << "tgs1 " << (g.name.empty() ? "graph" : g.name) << ' ' << n << ' '
     << g.num_edges << '\n';
  for (NodeId i = 0; i < n; ++i) {
    os << "node " << i << ' ' << g.weights[i];
    if (!g.labels.empty()) os << ' ' << g.labels[i];
    os << '\n';
  }
  for (NodeId u = 0; u < n; ++u)
    for (std::size_t k = g.succ_off[u]; k < g.succ_off[u + 1]; ++k)
      os << "edge " << u << ' ' << g.succ[k].node << ' ' << g.succ[k].cost
         << '\n';
  return os.str();
}

/// JSON value tree of the frozen parser (JsonValue's fields, public).
struct JsonNode {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonNode> arr;
  std::map<std::string, JsonNode> obj;
};

/// The JSON parser with the per-byte string scan.
class FrozenJsonParser {
 public:
  explicit FrozenJsonParser(const std::string& text) : text_(text) {}

  JsonNode parse_document() {
    JsonNode v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonNode parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonNode v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.type = JsonNode::Type::kString;
        v.str = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type = JsonNode::Type::kBool;
        v.b = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type = JsonNode::Type::kBool;
        v.b = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.type = JsonNode::Type::kNull;
        break;
      default:
        v.type = JsonNode::Type::kNumber;
        v.num = parse_number();
        break;
    }
    --depth_;
    return v;
  }

  void parse_object(JsonNode& v) {
    v.type = JsonNode::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(JsonNode& v) {
    v.type = JsonNode::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      switch (peek()) {
        case '"': out.push_back('"'); ++pos_; break;
        case '\\': out.push_back('\\'); ++pos_; break;
        case '/': out.push_back('/'); ++pos_; break;
        case 'b': out.push_back('\b'); ++pos_; break;
        case 'f': out.push_back('\f'); ++pos_; break;
        case 'n': out.push_back('\n'); ++pos_; break;
        case 'r': out.push_back('\r'); ++pos_; break;
        case 't': out.push_back('\t'); ++pos_; break;
        case 'u': {
          ++pos_;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = peek();
            unsigned d;
            if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a') + 10;
            else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A') + 10;
            else fail("invalid \\u escape");
            cp = cp * 16 + d;
            ++pos_;
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    return std::strtod(text_.c_str() + start, nullptr);
  }

  static constexpr int kMaxDepth = 64;
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

inline JsonNode json_parse(const std::string& text) {
  FrozenJsonParser p(text);
  return p.parse_document();
}

}  // namespace tgs::reference
