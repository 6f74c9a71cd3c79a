#include "tgs/graph/graph_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tgs {

void write_graph(std::ostream& os, const TaskGraph& g) {
  os << "tgs1 " << (g.name().empty() ? "graph" : g.name()) << ' '
     << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    os << "node " << i << ' ' << g.weight(i);
    if (g.has_labels()) os << ' ' << g.label(i);
    os << '\n';
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u))
      os << "edge " << u << ' ' << c.node << ' ' << c.cost << '\n';
}

std::string graph_to_string(const TaskGraph& g) {
  std::ostringstream os;
  write_graph(os, g);
  return os.str();
}

namespace {

// strtoll-based field scanner over one line. istringstream-per-line costs a
// heap-backed stream object and locale-aware extraction per record, which at
// giant-tier sizes (100k nodes / 200k+ edges) dominates read_graph; this
// cursor touches each byte once.
struct LineScanner {
  const char* p;
  const std::string& line;

  explicit LineScanner(const std::string& l) : p(l.c_str()), line(l) {}

  void skip_ws() {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  }

  bool at_end() {
    skip_ws();
    return *p == '\0';
  }

  /// Next whitespace-delimited token, empty when the line is exhausted.
  std::string token() {
    skip_ws();
    const char* start = p;
    while (*p != '\0' && *p != ' ' && *p != '\t' && *p != '\r') ++p;
    return std::string(start, p);
  }

  /// Next signed 64-bit integer; throws with `what` context on malformed or
  /// out-of-range fields (ERANGE from strtoll, not a silent wrap).
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

  /// int64 narrowed to NodeId with an explicit range check: a node id that
  /// does not fit NodeId is a corrupt/hostile stream, never a wraparound.
  NodeId node_id(const char* what) {
    const std::int64_t x = int64(what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      throw std::invalid_argument(std::string("bad ") + what +
                                  " line (id out of range): " + line);
    return static_cast<NodeId>(x);
  }
};

/// Upper bound on the records left in `is`: every node or edge record is
/// at least 8 bytes ("node 0 1"). Header counts are untrusted -- reserving
/// straight from them lets a 20-byte header demand gigabytes -- so
/// read_graph reserves no more than the input can hold. A stream that
/// cannot seek (a pipe) reports 0: its vectors grow as records arrive.
std::size_t max_records_left(std::istream& is) {
  constexpr std::size_t kMinRecordBytes = 8;
  if (!is.good()) return 0;  // at EOF: tellg would set failbit
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();  // a failed seek to the end must not end the parse
  is.seekg(here);
  if (end == std::istream::pos_type(-1)) return 0;
  return static_cast<std::size_t>(end - here) / kMinRecordBytes;
}

}  // namespace

TaskGraph read_graph(std::istream& is) {
  std::string line;
  std::string magic, name;
  NodeId n = 0;
  std::size_t m = 0;
  // Header (skipping comments/blank lines). Counts are parsed as 64-bit and
  // validated before narrowing so a giant (or corrupt) header fails loudly.
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

  TaskGraphBuilder b(name);
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

TaskGraph graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_graph(is);
}

void save_graph(const std::string& path, const TaskGraph& g) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  write_graph(f, g);
}

TaskGraph load_graph(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  return read_graph(f);
}

}  // namespace tgs
