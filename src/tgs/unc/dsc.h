// DSC -- Dominant Sequence Clustering (Yang & Gerasoulis, 1994; paper ref
// [34]).
//
// Classification: UNC, CP-based, dynamic list, greedy. The dominant
// sequence (the critical path of the partially scheduled graph) is tracked
// through the priority tlevel(n) + blevel(n). Free nodes (all parents
// examined) are processed in descending priority; a free node tries to
// reduce its start time by merging into the cluster of one of its parents
// (zeroing the incoming edges from that cluster); the best strict
// improvement is accepted, otherwise the node opens its own cluster.
//
// Fidelity note (also in DESIGN.md): the full DSC uses constrained
// insertion inside clusters plus the DSRW partial-free-node rule; we
// implement append-only merging with strict-improvement acceptance. This
// keeps DSC's monotonicity (no node's start time ever increases) and its
// O((v + e) log v) flavour while simplifying cluster bookkeeping; the
// qualitative results of the paper (DSC close to DCP, far better than
// EZ/LC) are preserved.
//
// Bounded machine: when SchedOptions::num_procs is set and DSC opens more
// clusters than that, the clusters are folded onto the processors by
// fit_clusters (map/cluster_map.h) and list-scheduled in b-level order --
// the same result as param:bl/static/append/dsc. Clusters that fit keep
// DSC's own placements.
#pragma once

#include "tgs/sched/scheduler.h"

namespace tgs {

class DscScheduler final : public Scheduler {
 public:
  std::string name() const override { return "DSC"; }
  AlgoClass algo_class() const override { return AlgoClass::kUNC; }

 protected:
  Schedule do_run(const TaskGraph& g, const SchedOptions& opt,
                  SchedWorkspace& ws) const override;
};

}  // namespace tgs
