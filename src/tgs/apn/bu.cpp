#include "tgs/apn/bu.h"

#include <algorithm>

namespace tgs {

NetSchedule BuScheduler::do_run(const TaskGraph& g, const RoutingTable& routes,
                                SchedWorkspace& ws) const {
  const Topology& topo = routes.topology();
  const int nprocs = topo.num_procs();

  // Phase 1: bottom-up assignment. Children are assigned before parents;
  // score(p) = sum over assigned children of c(n, child) * hops(p, child's
  // proc), ties by smaller accumulated load, then smaller processor id.
  std::vector<ProcId> assign(g.num_nodes(), 0);
  std::vector<Cost> load(nprocs, 0);
  const auto& topo_order = g.topological_order();
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    ws.deadline().poll();
    const NodeId n = *it;
    ProcId best_p = 0;
    Cost best_pull = -1;
    Cost best_load = 0;
    for (int p = 0; p < nprocs; ++p) {
      Cost pull = 0;
      for (const Adj& c : g.children(n))
        pull += c.cost * routes.distance(p, assign[c.node]);
      if (best_pull < 0 || pull < best_pull ||
          (pull == best_pull && load[p] < best_load)) {
        best_p = p;
        best_pull = pull;
        best_load = load[p];
      }
    }
    assign[n] = best_p;
    load[best_p] += g.weight(n);
  }

  // Phase 2: materialize with real message routing.
  NetSchedule ns(g, routes);
  apn_replay(ns, ApnBuildOrder(ws.attrs()), assign, 0, /*insertion=*/false);
  return ns;
}

}  // namespace tgs
