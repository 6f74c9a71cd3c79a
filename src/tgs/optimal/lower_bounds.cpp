#include "tgs/optimal/lower_bounds.h"

#include "tgs/graph/attributes.h"

namespace tgs {

LowerBounds::LowerBounds(const TaskGraph& g, int num_procs)
    : graph_(&g),
      sl_nc_(static_levels(g)),
      load_bound_((g.total_weight() + num_procs - 1) /
                  static_cast<Time>(num_procs)) {}

Time LowerBounds::evaluate(const Schedule& s) const {
  const TaskGraph& g = *graph_;
  std::vector<Time> est(g.num_nodes());
  Time cp_bound = 0;
  for (NodeId u : g.topological_order()) {
    if (s.is_placed(u)) {
      est[u] = s.start(u);
    } else {
      Time t = 0;
      for (const Adj& par : g.parents(u)) {
        const Time avail = s.is_placed(par.node)
                               ? s.finish(par.node)
                               : est[par.node] + g.weight(par.node);
        t = std::max(t, avail);  // comm optimistically zero
      }
      est[u] = t;
    }
    cp_bound = std::max(cp_bound, est[u] + sl_nc_[u]);
  }
  return combine(cp_bound, s.makespan());
}

}  // namespace tgs
