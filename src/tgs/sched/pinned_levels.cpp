#include "tgs/sched/pinned_levels.h"

#include <algorithm>
#include <cassert>

namespace tgs {

PinnedLevels::PinnedLevels(const TaskGraph& g, EdgeCosts costs)
    : graph_(&g),
      keep_costs_(costs == EdgeCosts::kKeep),
      t_(g.num_nodes(), 0),
      pos_(g.num_nodes()),
      placed_(g.num_nodes(), 0),
      dirty_(g.num_nodes(), 0) {
  const std::vector<NodeId>& topo = g.topological_order();
  for (std::size_t i = 0; i < topo.size(); ++i) {
    pos_[topo[i]] = static_cast<std::uint32_t>(i);
    t_[topo[i]] = recompute(topo[i]);
  }
}

Time PinnedLevels::recompute(NodeId u) const {
  const TaskGraph& g = *graph_;
  Time best = 0;
  for (const Adj& par : g.parents(u))
    best = std::max(best, t_[par.node] + g.weight(par.node) +
                              (keep_costs_ ? par.cost : 0));
  return best;
}

void PinnedLevels::mark_children(NodeId u) {
  for (const Adj& c : graph_->children(u)) {
    if (placed_[c.node] || dirty_[c.node]) continue;
    dirty_[c.node] = 1;
    ++pending_;
  }
}

void PinnedLevels::write(NodeId u, Time value) {
  log_node_.push_back(u);
  log_old_.push_back(t_[u]);
  t_[u] = value;
}

std::span<const NodeId> PinnedLevels::place(NodeId n, Time start) {
  assert(!placed_[n]);
  const std::size_t mark = log_node_.size();
  marks_.push_back(mark);
  placed_[n] = 1;
  const bool moved = t_[n] != start;
  write(n, start);
  if (moved) {
    // Every dirty task sits after n in the topological order, and a
    // task's children sit after it, so one forward sweep visits each
    // dirty task once, after all its parents are final.
    mark_children(n);
    const std::vector<NodeId>& topo = graph_->topological_order();
    for (std::size_t i = pos_[n] + 1; pending_ > 0; ++i) {
      const NodeId u = topo[i];
      if (!dirty_[u]) continue;
      dirty_[u] = 0;
      --pending_;
      const Time value = recompute(u);
      if (value == t_[u]) continue;
      write(u, value);
      mark_children(u);
    }
  }
  return std::span<const NodeId>(log_node_).subspan(mark);
}

void PinnedLevels::unplace(NodeId n) {
  assert(!marks_.empty() && log_node_[marks_.back()] == n);
  const std::size_t mark = marks_.back();
  marks_.pop_back();
  for (std::size_t k = log_node_.size(); k-- > mark;)
    t_[log_node_[k]] = log_old_[k];
  log_node_.resize(mark);
  log_old_.resize(mark);
  placed_[n] = 0;
}

void PinnedLevels::commit() {
  log_node_.clear();
  log_old_.clear();
  marks_.clear();
}

}  // namespace tgs
