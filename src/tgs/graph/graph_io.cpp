#include "tgs/graph/graph_io.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
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

// Cursor over the records of a tgs1 text, scanning fields straight off the
// text: a record is a line, '\n' ends its fields, and nothing looks for the
// line end ahead of time. Comment ('#') and empty lines are skipped.
// Tokens are separated by ' ', '\t' and '\r'. Integers follow strtoll in the
// C locale: leading " \t\v\f\r" skipped, an optional sign that must be
// followed by a digit, base 10, out of range an error. Fields end at the
// first NUL byte, as they did when records were scanned as C strings: no
// scan below steps over a NUL, so after one every token is empty and every
// integer malformed.
class Records {
 public:
  explicit Records(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Moves to the next record; false at the end of the text.
  bool next() {
    while (p_ != end_) {
      if (*p_ == '\n') {
        ++p_;
      } else if (*p_ == '#') {
        skip_line();
      } else {
        line_ = p_;
        return true;
      }
    }
    return false;
  }

  /// Skips what the record's fields did not read, and its '\n'.
  void finish() {
    if (p_ != end_ && *p_ == '\n') {
      ++p_;
    } else {
      skip_line();
    }
  }

  /// Next whitespace-delimited token of the record, empty when its fields
  /// are exhausted.
  std::string_view token() {
    skip(kSeparator);
    const char* start = p_;
    while (p_ != end_ && !is(kTokenEnd, *p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// Whether the record's next token is `word`; consumes it if so.
  bool token_is(std::string_view word) {
    skip(kSeparator);
    const std::size_t left = static_cast<std::size_t>(end_ - p_);
    if (left < word.size() ||
        std::memcmp(p_, word.data(), word.size()) != 0 ||
        (left > word.size() && !is(kTokenEnd, p_[word.size()])))
      return false;
    p_ += word.size();
    return true;
  }

  /// Next signed 64-bit integer; throws with `what` context on malformed or
  /// out-of-range fields (never a silent wrap).
  std::int64_t int64(const char* what) {
    skip(kSpace);
    const char* q = p_;
    const bool negative = q != end_ && *q == '-';
    if (q != end_ && (*q == '-' || *q == '+')) ++q;
    if (q == end_ || !is_digit(*q)) bad(what, " line: ");
    // Below this, ten times the value plus a digit fits 64 bits; above it
    // the value is out of range whatever follows.
    constexpr std::uint64_t kMaxBeforeDigit = (std::uint64_t{1} << 63) / 10;
    std::uint64_t x = 0;
    do {
      if (x > kMaxBeforeDigit) bad(what, " line: ");
      x = x * 10 + static_cast<unsigned char>(*q++ - '0');
    } while (q != end_ && is_digit(*q));
    // INT64_MIN's magnitude is one more than INT64_MAX.
    if (x > (std::uint64_t{1} << 63) - (negative ? 0 : 1)) bad(what, " line: ");
    p_ = q;
    return static_cast<std::int64_t>(negative ? 0 - x : x);
  }

  /// int64 narrowed to NodeId with an explicit range check: a node id that
  /// does not fit NodeId is a corrupt/hostile stream, never a wraparound.
  NodeId node_id(const char* what) {
    const std::int64_t x = int64(what);
    if (x < 0 || x > static_cast<std::int64_t>(kNoNode - 1))
      bad(what, " line (id out of range): ");
    return static_cast<NodeId>(x);
  }

  /// Throws std::invalid_argument with `prefix` followed by the record's
  /// full line.
  [[noreturn]] void fail(std::string prefix) const {
    const std::size_t left = static_cast<std::size_t>(end_ - line_);
    const void* nl = std::memchr(line_, '\n', left);
    const char* line_end = nl != nullptr ? static_cast<const char*>(nl) : end_;
    throw std::invalid_argument(
        prefix.append(line_, static_cast<std::size_t>(line_end - line_)));
  }

  std::size_t bytes_left() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  // Byte classes: a token separator, the blanks strtoll skips, a byte that
  // ends a token.
  enum : std::uint8_t { kSeparator = 1, kSpace = 2, kTokenEnd = 4 };
  static constexpr std::array<std::uint8_t, 256> kClass = [] {
    std::array<std::uint8_t, 256> c{};
    for (const unsigned char b : {' ', '\t', '\r'})
      c[b] = kSeparator | kSpace | kTokenEnd;
    c['\v'] = c['\f'] = kSpace;
    c['\n'] = c['\0'] = kTokenEnd;
    return c;
  }();

  static bool is(std::uint8_t cls, char c) {
    return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
  }

  static bool is_digit(char c) {
    return static_cast<unsigned char>(c - '0') < 10;
  }

  void skip(std::uint8_t cls) {
    while (p_ != end_ && is(cls, *p_)) ++p_;
  }

  [[noreturn]] void bad(const char* what, const char* problem) const {
    fail(std::string("bad ") + what + problem);
  }

  void skip_line() {
    const void* nl = std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
    p_ = nl != nullptr ? static_cast<const char*>(nl) + 1 : end_;
  }

  const char* p_;
  const char* end_;
  const char* line_ = nullptr;  // start of the current record
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
  Records r(text);
  // Header (after comments/blank lines). Counts are parsed as 64-bit and
  // validated before narrowing so a giant (or corrupt) header fails loudly.
  if (!r.next()) throw std::invalid_argument("missing tgs1 header");
  if (!r.token_is("tgs1")) r.fail("bad tgs1 header: ");
  const std::string_view name = r.token();
  if (name.empty()) r.fail("bad tgs1 header: ");
  const std::int64_t n64 = r.int64("tgs1 header");
  const std::int64_t m64 = r.int64("tgs1 header");
  if (n64 < 0 || n64 > static_cast<std::int64_t>(kNoNode - 1) || m64 < 0)
    r.fail("bad tgs1 header (counts): ");
  r.finish();
  const NodeId n = static_cast<NodeId>(n64);
  const std::size_t m = static_cast<std::size_t>(m64);

  // Header counts are untrusted -- reserving straight from them lets a
  // 20-byte header demand gigabytes -- so reserve no more records than the
  // remaining text can hold (every record is at least 8 bytes, "node 0 1").
  constexpr std::size_t kMinRecordBytes = 8;
  const std::size_t max_records = r.bytes_left() / kMinRecordBytes;
  const std::size_t node_cap =
      std::min(static_cast<std::size_t>(n), max_records);
  TaskGraphBuilder b{std::string(name)};
  b.reserve(node_cap, std::min(m, max_records - node_cap));

  NodeId nodes_seen = 0;
  std::size_t edges_seen = 0;
  while (r.next()) {
    if (r.token_is("edge")) {
      const NodeId u = r.node_id("edge");
      const NodeId v = r.node_id("edge");
      const Cost c = r.int64("edge");
      b.add_edge(u, v, c);
      ++edges_seen;
    } else if (r.token_is("node")) {
      const NodeId id = r.node_id("node");
      const Cost w = r.int64("node");
      const std::string_view label = r.token();  // optional
      if (id != nodes_seen)
        throw std::invalid_argument("node ids must be dense and in order");
      b.add_node(w, std::string(label));
      ++nodes_seen;
    } else {
      r.fail("unknown record: ");
    }
    r.finish();
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
