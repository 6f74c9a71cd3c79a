#include "tgs/apn/mh.h"

namespace tgs {

NetSchedule MhScheduler::do_run(const TaskGraph& g, const RoutingTable& routes,
                                SchedWorkspace& ws) const {
  NetSchedule ns(g, routes);
  const int nprocs = routes.topology().num_procs();
  ApnSweepScratch& scratch = ws.apn_scratch();
  // Descending b-level is a topological order, so parents are always placed
  // before their children.
  for (NodeId n : ws.attrs().blevel_order()) {
    ws.deadline().poll();
    // One one-to-all sweep replaces the per-processor probes: est[p] is
    // bit-identical to apn_probe_est(ns, n, p), so the strict < argmin
    // keeps the smallest-id tie-break.
    apn_probe_est_all(ns, n, /*insertion=*/false, scratch);
    int best_p = 0;
    Time best_t = kTimeInf;
    for (int p = 0; p < nprocs; ++p) {
      if (scratch.est[p] < best_t) {
        best_t = scratch.est[p];
        best_p = p;
      }
    }
    apn_commit_node(ns, n, best_p, /*insertion=*/false);
  }
  return ns;
}

}  // namespace tgs
