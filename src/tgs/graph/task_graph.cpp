#include "tgs/graph/task_graph.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <iterator>
#include <queue>
#include <stdexcept>
#include <utility>

namespace tgs {

Cost TaskGraph::edge_cost(NodeId u, NodeId v) const {
  const auto kids = children(u);
  // Children are sorted by id: binary search.
  auto it = std::lower_bound(
      kids.begin(), kids.end(), v,
      [](const Adj& a, NodeId id) { return a.node < id; });
  if (it != kids.end() && it->node == v) return it->cost;
  return kNoEdge;
}

const std::string& TaskGraph::label(NodeId n) const {
  static const std::string kEmpty;
  if (labels_.empty()) return kEmpty;
  return labels_[n];
}

double TaskGraph::ccr() const {
  if (num_edges_ == 0 || num_nodes() == 0) return 0.0;
  const double avg_comm =
      static_cast<double>(total_edge_cost_) / static_cast<double>(num_edges_);
  const double avg_comp =
      static_cast<double>(total_weight_) / static_cast<double>(num_nodes());
  return avg_comp == 0.0 ? 0.0 : avg_comm / avg_comp;
}

TaskGraphBuilder::TaskGraphBuilder(std::string name) : name_(std::move(name)) {}

void TaskGraphBuilder::reserve(std::size_t nodes, std::size_t edges) {
  weights_.reserve(nodes);
  labels_.reserve(nodes);
  succ_off_.reserve(nodes + 2);
  pred_off_.reserve(nodes + 2);
  sources_.reserve(edges);
  targets_.reserve(edges);
}

void TaskGraphBuilder::reject(const char* what) {
  throw std::invalid_argument(what);
}

TaskGraph TaskGraphBuilder::finalize() {
  // Take the builder's state first: it is left empty even if a check
  // below throws.
  const NodeId n = num_nodes();
  const std::vector<NodeId> sources = std::exchange(sources_, {});
  const std::size_t m = sources.size();
  const Cost weight_total = std::exchange(weight_total_, 0);
  const Cost edge_total = std::exchange(edge_total_, 0);
  TaskGraph g;
  g.name_ = std::move(name_);
  g.weights_ = std::exchange(weights_, {});
  if (std::exchange(any_label_, false)) {
    g.labels_ = std::exchange(labels_, {});
    for (NodeId i = 0; i < n; ++i) {
      if (!g.labels_[i].empty()) continue;
      char buf[16] = {'n'};
      char* const end = std::to_chars(buf + 1, std::end(buf), i + 1).ptr;
      g.labels_[i].assign(buf, end);
    }
  }
  labels_.clear();

  // CSR by counting sort. add_edge counted node i's degrees at [i + 2]; a
  // prefix sum turns [i + 1] into the start of i's range (reading off the
  // entries, the exits and Kahn's in-degrees on the way), and the scatter
  // advances [u + 1] to the end of u's range, which is the start of
  // u + 1's. Edges are bucketed by u in insertion order, each child list
  // is ordered by v, and walking the child lists in u order leaves every
  // parent list sorted by u as well.
  g.succ_off_ = std::exchange(succ_off_, {0, 0});
  g.pred_off_ = std::exchange(pred_off_, {0, 0});
  std::size_t* const so = g.succ_off_.data();
  std::size_t* const po = g.pred_off_.data();
  std::vector<NodeId> indeg(n);
  for (NodeId i = 0; i < n; ++i) {
    if (po[i + 2] == 0) g.entries_.push_back(i);
    if (so[i + 2] == 0) g.exits_.push_back(i);
    indeg[i] = static_cast<NodeId>(po[i + 2]);
    so[i + 2] += so[i + 1];
    po[i + 2] += po[i + 1];
  }
  g.succ_off_.pop_back();
  g.pred_off_.pop_back();
  // The edges' targets are scattered out of what becomes the parent
  // array, which the walk below then overwrites slot by slot.
  g.pred_ = std::exchange(targets_, {});
  g.succ_.resize(m);
  for (std::size_t k = 0; k < m; ++k)
    g.succ_[so[sources[k] + 1]++] = g.pred_[k];
  for (NodeId u = 0; u < n; ++u) {
    const auto first = g.succ_.begin() + so[u];
    const auto last = g.succ_.begin() + so[u + 1];
    // One pass finds an unsorted or repeated child; only then sort.
    if (std::adjacent_find(first, last, [](const Adj& a, const Adj& b) {
          return a.node >= b.node;
        }) != last) {
      std::sort(first, last,
                [](const Adj& a, const Adj& b) { return a.node < b.node; });
      if (std::adjacent_find(first, last, [](const Adj& a, const Adj& b) {
            return a.node == b.node;
          }) != last)
        throw std::invalid_argument("duplicate edge");
    }
    for (auto c = first; c != last; ++c)
      g.pred_[po[c->node + 1]++] = {u, c->cost};
  }
  g.num_edges_ = m;

  // The cost domain (util/types.h). add_node and add_edge summed the
  // costs, each total held at kMaxGraphCost + 1 once past it.
  if (weight_total + edge_total > kMaxGraphCost)
    throw std::invalid_argument(
        "graph cost out of domain: total weight + total edge cost "
        "exceeds 2^48");
  g.total_weight_ = weight_total;
  g.total_edge_cost_ = edge_total;

  // Kahn topological sort with a min-id heap: deterministic order, cycle
  // detection.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>> ready(
      std::greater<NodeId>(), g.entries_);
  g.topo_.reserve(n);
  while (!ready.empty()) {
    const NodeId u = ready.top();
    ready.pop();
    g.topo_.push_back(u);
    for (const Adj& a : g.children(u))
      if (--indeg[a.node] == 0) ready.push(a.node);
  }
  if (g.topo_.size() != n) throw std::invalid_argument("graph has a cycle");
  return g;
}

}  // namespace tgs
