#include "tgs/graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
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

// Field cursor over one record (a line without its '\n'). Tokens are
// separated by ' ', '\t' and '\r'. Integers follow strtoll in the C
// locale: leading " \t\v\f\r" skipped (strtoll's '\n' never occurs in a
// record), an optional sign that must be followed by a digit, base 10,
// out of range an error. Fields end at the first NUL byte, as they did
// when records were scanned as C strings: no scan below steps over a NUL,
// so after one every token is empty and every integer malformed.
class Record {
 public:
  explicit Record(std::string_view line)
      : line_(line), p_(line.data()), end_(line.data() + line.size()) {}

  /// Next whitespace-delimited token, empty when the fields are exhausted.
  std::string_view token() {
    while (p_ != end_ && is_separator(*p_)) ++p_;
    const char* start = p_;
    while (p_ != end_ && *p_ != '\0' && !is_separator(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// Next signed 64-bit integer; throws with `what` context on malformed or
  /// out-of-range fields (never a silent wrap).
  std::int64_t int64(const char* what) {
    while (p_ != end_ && (is_separator(*p_) || *p_ == '\v' || *p_ == '\f'))
      ++p_;
    const char* digits = p_;
    if (digits != end_ && *digits == '+' && digits + 1 != end_ &&
        digits[1] >= '0' && digits[1] <= '9')
      ++digits;  // from_chars takes '-' but not '+'
    std::int64_t x = 0;
    const auto [next, ec] = std::from_chars(digits, end_, x);
    if (ec != std::errc()) fail(std::string("bad ") + what + " line: ");
    p_ = next;
    return x;
  }

  /// int64 narrowed to NodeId with an explicit range check: a node id that
  /// does not fit NodeId is a corrupt/hostile stream, never a wraparound.
  NodeId node_id(const char* what) {
    const std::int64_t x = int64(what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      fail(std::string("bad ") + what + " line (id out of range): ");
    return static_cast<NodeId>(x);
  }

  /// Throws std::invalid_argument with `prefix` followed by the full line.
  [[noreturn]] void fail(std::string prefix) const {
    throw std::invalid_argument(prefix.append(line_));
  }

 private:
  static bool is_separator(char c) {
    return c == ' ' || c == '\t' || c == '\r';
  }

  std::string_view line_;
  const char* p_;
  const char* end_;
};

/// Cursor over the records of a tgs1 text: one line per call (its end
/// found by memchr), comment ('#') and empty lines skipped.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  bool next(std::string_view* line) {
    while (!rest_.empty()) {
      const std::size_t len = std::min(rest_.find('\n'), rest_.size());
      *line = rest_.substr(0, len);
      rest_.remove_prefix(std::min(len + 1, rest_.size()));
      if (!line->empty() && (*line)[0] != '#') return true;
    }
    return false;
  }

  std::size_t bytes_left() const { return rest_.size(); }

 private:
  std::string_view rest_;
};

/// Bytes between the read position of `is` and its end; 0 when the stream
/// cannot seek (a pipe).
std::size_t stream_bytes_left(std::istream& is) {
  if (!is.good()) return 0;  // at EOF: tellg would set failbit
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();  // a failed seek to the end must not end the read
  is.seekg(here);
  if (end == std::istream::pos_type(-1)) return 0;
  return static_cast<std::size_t>(end - here);
}

}  // namespace

TaskGraph graph_from_string(std::string_view text) {
  Lines lines(text);
  std::string_view line;
  // Header (after comments/blank lines). Counts are parsed as 64-bit and
  // validated before narrowing so a giant (or corrupt) header fails loudly.
  if (!lines.next(&line)) throw std::invalid_argument("missing tgs1 header");
  Record hs(line);
  if (hs.token() != "tgs1") hs.fail("bad tgs1 header: ");
  const std::string_view name = hs.token();
  if (name.empty()) hs.fail("bad tgs1 header: ");
  const std::int64_t n64 = hs.int64("tgs1 header");
  const std::int64_t m64 = hs.int64("tgs1 header");
  if (n64 < 0 || n64 > static_cast<std::int64_t>(kNoNode - 1) || m64 < 0)
    hs.fail("bad tgs1 header (counts): ");
  const NodeId n = static_cast<NodeId>(n64);
  const std::size_t m = static_cast<std::size_t>(m64);

  // Header counts are untrusted -- reserving straight from them lets a
  // 20-byte header demand gigabytes -- so reserve no more records than the
  // remaining text can hold (every record is at least 8 bytes, "node 0 1").
  constexpr std::size_t kMinRecordBytes = 8;
  const std::size_t max_records = lines.bytes_left() / kMinRecordBytes;
  const std::size_t node_cap =
      std::min(static_cast<std::size_t>(n), max_records);
  TaskGraphBuilder b{std::string(name)};
  b.reserve(node_cap, std::min(m, max_records - node_cap));

  NodeId nodes_seen = 0;
  std::size_t edges_seen = 0;
  while (lines.next(&line)) {
    Record r(line);
    const std::string_view kind = r.token();
    if (kind == "node") {
      const NodeId id = r.node_id("node");
      const Cost w = r.int64("node");
      const std::string_view label = r.token();  // optional
      if (id != nodes_seen)
        throw std::invalid_argument("node ids must be dense and in order");
      b.add_node(w, std::string(label));
      ++nodes_seen;
    } else if (kind == "edge") {
      const NodeId u = r.node_id("edge");
      const NodeId v = r.node_id("edge");
      const Cost c = r.int64("edge");
      b.add_edge(u, v, c);
      ++edges_seen;
    } else {
      r.fail("unknown record: ");
    }
    if (nodes_seen == n && edges_seen == m) break;
  }
  if (nodes_seen != n || edges_seen != m)
    throw std::invalid_argument("truncated tgs1 stream");
  return b.finalize();
}

TaskGraph read_graph(std::istream& is) {
  // One buffer, sized up front when the stream can seek, so a legitimate
  // graph costs the same number of allocations at any size.
  std::string text;
  text.reserve(stream_bytes_left(is));
  std::copy(std::istreambuf_iterator<char>(is), {}, std::back_inserter(text));
  return graph_from_string(text);
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
