#include "tgs/unc/cluster_schedule.h"

#include <algorithm>

#include "tgs/graph/attributes.h"
#include "tgs/list/priorities.h"

namespace tgs {

std::vector<NodeId> blevel_order(const TaskGraph& g) {
  return order_by_descending(b_levels(g));
}

Schedule schedule_with_assignment(const TaskGraph& g,
                                  const std::vector<ProcId>& assign) {
  Schedule sched(g);
  for (NodeId n : blevel_order(g)) {
    const ProcId p = assign[n];
    const Time ready = sched.data_ready(n, p);
    const Time start = sched.earliest_start_on(p, ready, g.weight(n), false);
    sched.place(n, p, start);
  }
  return sched;
}

ClusterEvaluator::ClusterEvaluator(const TaskGraph& g, std::size_t num_labels)
    : g_(g),
      order_(blevel_order(g)),
      sl_(static_levels(g)),
      start_(g.num_nodes(), 0),
      avail_(num_labels, 0) {}

Time ClusterEvaluator::makespan(const std::vector<ProcId>& assign, Time bound) {
  Time makespan = 0;
  std::size_t i = 0;
  for (; i < order_.size(); ++i) {
    const NodeId n = order_[i];
    const ProcId p = assign[n];
    Time ready = 0;
    for (const Adj& par : g_.parents(n)) {
      const Time ft = start_[par.node] + g_.weight(par.node);
      ready = std::max(ready, assign[par.node] == p ? ft : ft + par.cost);
    }
    const Time st = std::max(ready, avail_[p]);
    if (st + sl_[n] > bound) {
      makespan = st + sl_[n];
      break;
    }
    start_[n] = st;
    avail_[p] = st + g_.weight(n);
    makespan = std::max(makespan, avail_[p]);
  }
  // Every cluster starts the next evaluation idle. start_ needs no reset:
  // parents precede children in the order, so it is written before read.
  for (std::size_t j = 0; j < i; ++j) avail_[assign[order_[j]]] = 0;
  return makespan;
}

Time assignment_makespan(const TaskGraph& g, const std::vector<ProcId>& assign) {
  const ProcId top = assign.empty() ? 0 : *std::ranges::max_element(assign);
  return ClusterEvaluator(g, static_cast<std::size_t>(top) + 1).makespan(assign);
}

}  // namespace tgs
