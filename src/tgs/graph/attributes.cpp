#include "tgs/graph/attributes.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tgs {

void t_levels_into(const TaskGraph& g, std::vector<Time>& t) {
  t.assign(g.num_nodes(), 0);
  for (NodeId u : g.topological_order()) {
    Time best = 0;
    for (const Adj& p : g.parents(u))
      best = std::max(best, t[p.node] + g.weight(p.node) + p.cost);
    t[u] = best;
  }
}

std::vector<Time> t_levels(const TaskGraph& g) {
  std::vector<Time> t;
  t_levels_into(g, t);
  return t;
}

void b_levels_into(const TaskGraph& g, std::vector<Time>& b) {
  b.assign(g.num_nodes(), 0);
  const auto& topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    Time best = 0;
    for (const Adj& c : g.children(u))
      best = std::max(best, c.cost + b[c.node]);
    b[u] = g.weight(u) + best;
  }
}

std::vector<Time> b_levels(const TaskGraph& g) {
  std::vector<Time> b;
  b_levels_into(g, b);
  return b;
}

void static_levels_into(const TaskGraph& g, std::vector<Time>& b) {
  b.assign(g.num_nodes(), 0);
  const auto& topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId u = *it;
    Time best = 0;
    for (const Adj& c : g.children(u)) best = std::max(best, b[c.node]);
    b[u] = g.weight(u) + best;
  }
}

std::vector<Time> static_levels(const TaskGraph& g) {
  std::vector<Time> b;
  static_levels_into(g, b);
  return b;
}

Time critical_path_length(const TaskGraph& g) {
  return GraphAttributeCache(g).critical_path_length();
}

std::vector<Time> alap_times(const TaskGraph& g) {
  return GraphAttributeCache(g).alap_times();
}

std::vector<NodeId> blevel_order(const TaskGraph& g) {
  return GraphAttributeCache(g).blevel_order();
}

std::vector<NodeId> critical_path(const TaskGraph& g) {
  if (g.num_nodes() == 0) return {};
  const auto b = b_levels(g);
  // Start: entry with max b-level (min id on ties).
  NodeId cur = kNoNode;
  Time best = -1;
  for (NodeId e : g.entry_nodes()) {
    if (b[e] > best) {
      best = b[e];
      cur = e;
    }
  }
  std::vector<NodeId> path;
  path.push_back(cur);
  // Walk: child c with b[cur] == w(cur) + c.cost + b[c].
  while (g.num_children(cur) > 0) {
    NodeId next = kNoNode;
    for (const Adj& c : g.children(cur)) {
      if (b[cur] == g.weight(cur) + c.cost + b[c.node]) {
        next = c.node;
        break;  // children sorted by id => deterministic smallest id
      }
    }
    if (next == kNoNode) break;  // cur is effectively an exit on this path
    path.push_back(next);
    cur = next;
  }
  return path;
}

Cost path_computation_cost(const TaskGraph& g,
                           const std::vector<NodeId>& path) {
  Cost sum = 0;
  for (NodeId n : path) sum += g.weight(n);
  return sum;
}

Time computation_critical_path_length(const TaskGraph& g) {
  const std::vector<Time> sl = static_levels(g);
  return sl.empty() ? 0 : *std::max_element(sl.begin(), sl.end());
}

void GraphAttributeCache::bind(const TaskGraph& g) {
  graph_ = &g;
  have_sl_ = have_bl_ = have_tl_ = have_alap_ = have_cp_ = have_bl_order_ =
      false;
}

const TaskGraph& GraphAttributeCache::bound() const {
  if (graph_ == nullptr)
    throw std::logic_error("GraphAttributeCache used before bind()");
  return *graph_;
}

const std::vector<Time>& GraphAttributeCache::static_levels() {
  if (!have_sl_) {
    static_levels_into(bound(), sl_);
    have_sl_ = true;
  }
  return sl_;
}

const std::vector<Time>& GraphAttributeCache::b_levels() {
  if (!have_bl_) {
    b_levels_into(bound(), bl_);
    have_bl_ = true;
  }
  return bl_;
}

const std::vector<Time>& GraphAttributeCache::t_levels() {
  if (!have_tl_) {
    t_levels_into(bound(), tl_);
    have_tl_ = true;
  }
  return tl_;
}

Time GraphAttributeCache::critical_path_length() {
  if (!have_cp_) {
    const std::vector<Time>& b = b_levels();
    cp_len_ = 0;
    for (NodeId e : bound().entry_nodes()) cp_len_ = std::max(cp_len_, b[e]);
    have_cp_ = true;
  }
  return cp_len_;
}

const std::vector<Time>& GraphAttributeCache::alap_times() {
  if (!have_alap_) {
    const Time cp = critical_path_length();
    const std::vector<Time>& b = b_levels();
    const TaskGraph& g = bound();
    alap_.resize(g.num_nodes());
    for (NodeId i = 0; i < g.num_nodes(); ++i) alap_[i] = cp - b[i];
    have_alap_ = true;
  }
  return alap_;
}

const std::vector<NodeId>& GraphAttributeCache::blevel_order() {
  if (!have_bl_order_) {
    const std::vector<Time>& b = b_levels();
    bl_order_.resize(b.size());
    std::iota(bl_order_.begin(), bl_order_.end(), NodeId{0});
    std::stable_sort(bl_order_.begin(), bl_order_.end(),
                     [&](NodeId x, NodeId y) { return b[x] > b[y]; });
    have_bl_order_ = true;
  }
  return bl_order_;
}

std::size_t layered_width(const TaskGraph& g) {
  // Layer index = longest hop-count path from an entry.
  std::vector<std::size_t> depth(g.num_nodes(), 0);
  std::size_t max_depth = 0;
  for (NodeId u : g.topological_order()) {
    for (const Adj& p : g.parents(u))
      depth[u] = std::max(depth[u], depth[p.node] + 1);
    max_depth = std::max(max_depth, depth[u]);
  }
  std::vector<std::size_t> count(max_depth + 1, 0);
  for (NodeId i = 0; i < g.num_nodes(); ++i) ++count[depth[i]];
  return count.empty() ? 0 : *std::max_element(count.begin(), count.end());
}

}  // namespace tgs
