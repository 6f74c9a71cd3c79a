// Unit tests for graph/task_graph.h: builder validation, CSR adjacency,
// topological order, serialization round-trip, DOT export.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "tgs/gen/psg.h"
#include "tgs/graph/dot.h"
#include "tgs/graph/graph_io.h"
#include "tgs/graph/task_graph.h"
#include "tgs/util/mem.h"

namespace tgs {
namespace {

TaskGraph small_graph() {
  TaskGraphBuilder b("small");
  const NodeId a = b.add_node(2, "a");
  const NodeId c = b.add_node(3, "c");
  const NodeId d = b.add_node(4, "d");
  b.add_edge(a, c, 5);
  b.add_edge(a, d, 1);
  b.add_edge(c, d, 7);
  return b.finalize();
}

TEST(TaskGraphBuilder, BasicConstruction) {
  const TaskGraph g = small_graph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.weight(0), 2);
  EXPECT_EQ(g.total_weight(), 9);
  EXPECT_EQ(g.total_edge_cost(), 13);
  EXPECT_EQ(g.name(), "small");
}

TEST(TaskGraphBuilder, AdjacencyBothDirections) {
  const TaskGraph g = small_graph();
  ASSERT_EQ(g.children(0).size(), 2u);
  EXPECT_EQ(g.children(0)[0].node, 1u);
  EXPECT_EQ(g.children(0)[0].cost, 5);
  EXPECT_EQ(g.children(0)[1].node, 2u);
  ASSERT_EQ(g.parents(2).size(), 2u);
  EXPECT_EQ(g.parents(2)[0].node, 0u);
  EXPECT_EQ(g.parents(2)[1].node, 1u);
  EXPECT_EQ(g.parents(2)[1].cost, 7);
}

TEST(TaskGraphBuilder, EdgeCostLookup) {
  const TaskGraph g = small_graph();
  EXPECT_EQ(g.edge_cost(0, 1), 5);
  EXPECT_EQ(g.edge_cost(1, 2), 7);
  EXPECT_EQ(g.edge_cost(2, 0), TaskGraph::kNoEdge);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
}

TEST(TaskGraphBuilder, EntriesAndExits) {
  const TaskGraph g = small_graph();
  ASSERT_EQ(g.entry_nodes().size(), 1u);
  EXPECT_EQ(g.entry_nodes()[0], 0u);
  ASSERT_EQ(g.exit_nodes().size(), 1u);
  EXPECT_EQ(g.exit_nodes()[0], 2u);
}

TEST(TaskGraphBuilder, TopologicalOrderRespectsEdges) {
  const TaskGraph g = small_graph();
  const auto& topo = g.topological_order();
  ASSERT_EQ(topo.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u)) EXPECT_LT(pos[u], pos[c.node]);
}

TEST(TaskGraphBuilder, RejectsCycle) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  b.add_edge(x, y, 0);
  b.add_edge(y, x, 0);
  EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsSelfLoop) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  EXPECT_THROW(b.add_edge(x, x, 0), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsDuplicateEdge) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  b.add_edge(x, y, 1);
  b.add_edge(x, y, 2);
  EXPECT_THROW(b.finalize(), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsNonPositiveWeight) {
  TaskGraphBuilder b;
  EXPECT_THROW(b.add_node(0), std::invalid_argument);
  EXPECT_THROW(b.add_node(-3), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsNegativeEdgeCost) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  EXPECT_THROW(b.add_edge(x, y, -1), std::invalid_argument);
}

TEST(TaskGraphBuilder, RejectsOutOfRangeEndpoint) {
  TaskGraphBuilder b;
  b.add_node(1);
  EXPECT_THROW(b.add_edge(0, 5, 1), std::invalid_argument);
}

TEST(TaskGraphBuilder, ZeroCostEdgeAllowed) {
  TaskGraphBuilder b;
  const NodeId x = b.add_node(1);
  const NodeId y = b.add_node(1);
  b.add_edge(x, y, 0);
  const TaskGraph g = b.finalize();
  EXPECT_EQ(g.edge_cost(0, 1), 0);
}

// The cost domain (util/types.h): total weight + total edge cost must not
// exceed kMaxGraphCost. Three weights of 2^62 would wrap a 64-bit total.
TEST(TaskGraphBuilder, RejectsCostTotalsOutsideTheDomain) {
  TaskGraphBuilder wraps;
  for (int i = 0; i < 3; ++i) wraps.add_node(Cost{1} << 62);
  EXPECT_THROW(wraps.finalize(), std::invalid_argument);

  const auto two_nodes = [](Cost w0, Cost cost) {
    TaskGraphBuilder b;
    b.add_node(w0);
    b.add_node(1);
    b.add_edge(0, 1, cost);
    return b.finalize();
  };
  const TaskGraph at_bound = two_nodes(kMaxGraphCost - 2, 1);
  EXPECT_EQ(at_bound.total_weight() + at_bound.total_edge_cost(),
            kMaxGraphCost);
  EXPECT_THROW(two_nodes(kMaxGraphCost - 1, 1), std::invalid_argument);
  EXPECT_THROW(two_nodes(1, kMaxGraphCost), std::invalid_argument);
}

// Children come out sorted by id whatever order the edges were added in,
// and parents sorted by id too.
TEST(TaskGraphBuilder, CsrIsSortedWhateverTheEdgeOrder) {
  TaskGraphBuilder b;
  for (int i = 0; i < 5; ++i) b.add_node(1);
  b.add_edge(0, 4, 1);
  b.add_edge(2, 3, 2);
  b.add_edge(0, 2, 3);
  b.add_edge(1, 4, 4);
  b.add_edge(0, 3, 5);
  b.add_edge(2, 4, 6);
  const TaskGraph g = b.finalize();
  const std::vector<Adj> kids0(g.children(0).begin(), g.children(0).end());
  EXPECT_EQ(kids0, (std::vector<Adj>{{2, 3}, {3, 5}, {4, 1}}));
  const std::vector<Adj> pars4(g.parents(4).begin(), g.parents(4).end());
  EXPECT_EQ(pars4, (std::vector<Adj>{{0, 1}, {1, 4}, {2, 6}}));
  EXPECT_EQ(g.topological_order(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

// A duplicate edge is reported before a cycle in the same graph.
TEST(TaskGraphBuilder, DuplicateEdgeReportedBeforeCycle) {
  TaskGraphBuilder b;
  b.add_node(1);
  b.add_node(1);
  b.add_edge(1, 0, 1);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 1, 2);
  try {
    b.finalize();
    FAIL() << "finalize accepted a duplicate edge";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "duplicate edge");
  }
}

TEST(TaskGraph, CcrComputation) {
  const TaskGraph g = small_graph();
  // avg comm = 13/3, avg comp = 9/3 -> ccr = 13/9.
  EXPECT_NEAR(g.ccr(), 13.0 / 9.0, 1e-12);
}

TEST(TaskGraph, LabelsPreserved) {
  const TaskGraph g = small_graph();
  ASSERT_TRUE(g.has_labels());
  EXPECT_EQ(g.label(0), "a");
  EXPECT_EQ(g.label(2), "d");
}

TEST(GraphIo, RoundTrip) {
  const TaskGraph g = psg_canonical9();
  const std::string text = graph_to_string(g);
  const TaskGraph h = graph_from_string(text);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(h.weight(n), g.weight(n));
    EXPECT_EQ(h.label(n), g.label(n));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const Adj& c : g.children(u))
      EXPECT_EQ(h.edge_cost(u, c.node), c.cost);
}

TEST(GraphIo, RejectsMalformed) {
  EXPECT_THROW(graph_from_string("not a graph"), std::invalid_argument);
  EXPECT_THROW(graph_from_string("tgs1 g 2 0\nnode 1 5\n"),
               std::invalid_argument);  // non-dense ids
  EXPECT_THROW(graph_from_string("tgs1 g 1 1\nnode 0 5\n"),
               std::invalid_argument);  // truncated (missing edge)
}

// Header counts are untrusted: the reserve is bounded by the bytes the
// stream still holds, so a tiny header cannot demand gigabytes.
TEST(GraphIo, HugeHeaderCountsFailAsTruncated) {
  EXPECT_THROW(graph_from_string("tgs1 g 2 28000000000\n"),
               std::invalid_argument);
  EXPECT_THROW(graph_from_string("tgs1 g 2 28000000000"),
               std::invalid_argument);
}

TEST(GraphIo, HugeHeaderCountsReserveNothing) {
  const AllocMeter meter;
  EXPECT_THROW(graph_from_string("tgs1 g 2 100000000\n"),
               std::invalid_argument);
  EXPECT_LT(meter.bytes(), 1u << 20);
}

/// A stream buffer over a string that cannot seek, like a pipe.
class NoSeekBuf : public std::streambuf {
 public:
  explicit NoSeekBuf(std::string& s) {
    setg(s.data(), s.data(), s.data() + s.size());
  }
};

std::string chain_text(NodeId nodes) {
  TaskGraphBuilder b("chain");
  for (NodeId i = 0; i < nodes; ++i) b.add_node(1 + i % 7);
  for (NodeId i = 0; i + 1 < nodes; ++i) b.add_edge(i, i + 1, i % 5);
  return graph_to_string(b.finalize());
}

// A legitimate graph still reserves its full header counts: parsing does
// a fixed number of allocations whatever the graph size (no vector growth).
TEST(GraphIo, LegitimateGraphReservesFullCounts) {
  std::vector<std::uint64_t> allocs;
  for (NodeId nodes : {NodeId{50}, NodeId{5000}}) {
    std::istringstream is(chain_text(nodes));
    const AllocMeter meter;
    const TaskGraph g = read_graph(is);
    allocs.push_back(meter.count());
    EXPECT_EQ(g.num_nodes(), nodes);
  }
  EXPECT_EQ(allocs[0], allocs[1]);
}

TEST(GraphIo, UnseekableStreamParsesIdentically) {
  std::string text = chain_text(500);
  NoSeekBuf buf(text);
  std::istream pipe(&buf);
  EXPECT_EQ(graph_to_string(read_graph(pipe)),
            graph_to_string(graph_from_string(text)));
}

TEST(GraphIo, CommentsSkipped) {
  const TaskGraph g = graph_from_string(
      "# comment\ntgs1 mini 2 1\nnode 0 4\n# mid\nnode 1 6\nedge 0 1 3\n");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.edge_cost(0, 1), 3);
}

TEST(Dot, ContainsNodesAndEdges) {
  const TaskGraph g = small_graph();
  const std::string dot = to_dot(g, {0, 2});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1"), std::string::npos);
  EXPECT_NE(dot.find("lightcoral"), std::string::npos);
}

TEST(TaskGraph, EmptyGraph) {
  TaskGraphBuilder b("empty");
  const TaskGraph g = b.finalize();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.topological_order().empty());
}

}  // namespace
}  // namespace tgs
