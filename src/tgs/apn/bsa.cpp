#include "tgs/apn/bsa.h"

#include <queue>
#include <utility>
#include <vector>

namespace tgs {

NetSchedule BsaScheduler::do_run(const TaskGraph& g, const RoutingTable& routes,
                                 SchedWorkspace& ws) const {
  const Topology& topo = routes.topology();
  const int pivot0 = topo.max_degree_proc();

  // Serial injection: everything on the first pivot. `ns` is always the
  // full build of `assign` in the b-level order `ord`.
  std::vector<ProcId> assign(g.num_nodes(), static_cast<ProcId>(pivot0));
  const ApnBuildOrder ord(ws.attrs());
  NetSchedule ns(g, routes);
  apn_replay(ns, ord, assign, 0, /*insertion=*/true);
  NetSchedule trial(g, routes);

  // Breadth-first pivot order from pivot0 (neighbours ascend by id).
  std::vector<int> pivots;
  {
    std::vector<bool> seen(topo.num_procs(), false);
    std::queue<int> q;
    q.push(pivot0);
    seen[pivot0] = true;
    while (!q.empty()) {
      const int p = q.front();
      q.pop();
      pivots.push_back(p);
      for (const Topology::Neighbor& nb : topo.neighbors(p)) {
        if (!seen[nb.proc]) {
          seen[nb.proc] = true;
          q.push(nb.proc);
        }
      }
    }
  }

  for (int pivot : pivots) {
    // Tasks currently on the pivot, in start-time order (a snapshot:
    // migrations mutate the timeline).
    std::vector<NodeId> on_pivot;
    for (const Interval& iv : ns.tasks().timeline(pivot).intervals())
      on_pivot.push_back(static_cast<NodeId>(iv.owner));

    for (NodeId n : on_pivot) {
      ws.deadline().poll();
      if (ns.tasks().proc(n) != pivot) continue;  // already bubbled away
      const Time cur_start = ns.tasks().start(n);

      // Best adjacent processor by probed start time: one one-to-all
      // arrival sweep, then ESTs for just the pivot's neighbours
      // (bit-identical to per-neighbour apn_probe_est).
      ApnSweepScratch& scratch = ws.apn_scratch();
      apn_probe_ready_all(ns, n, scratch);
      int best_p = -1;
      Time best_est = cur_start;
      for (const Topology::Neighbor& nb : topo.neighbors(pivot)) {
        const Time est = ns.tasks().earliest_start_on(
            nb.proc, scratch.ready[nb.proc], g.weight(n), /*insertion=*/true);
        if (est < best_est) {
          best_est = est;
          best_p = nb.proc;
        }
      }
      if (best_p < 0) continue;

      // Tentatively migrate: the build of the updated assignment agrees
      // with `ns` on every commit before n's position, so copy that prefix
      // and replay only the suffix; roll back if the overall schedule
      // suffers.
      //
      // Tie rule: an EQUAL-makespan migration is accepted (<=, not <).
      // The task still moves even though the schedule as a whole gained
      // nothing -- its own start improved (the probe gate above is
      // strict), which is what lets later tasks bubble through the freed
      // pivot slot. The goldens (test_apn.cpp mesh23, the JSONL
      // snapshots) and Bsa.EqualMakespanMigrationIsAccepted pin this;
      // changing <= to < is a behaviour change, not a cleanup.
      const Time before = ns.makespan();
      assign[n] = static_cast<ProcId>(best_p);
      trial.assign_prefix(ns, ord.pos, ord.pos[n]);
      apn_replay(trial, ord, assign, ord.pos[n], /*insertion=*/true);
      if (trial.makespan() <= before) {
        std::swap(ns, trial);
      } else {
        assign[n] = static_cast<ProcId>(pivot);
      }
    }
  }
  return ns;
}

}  // namespace tgs
