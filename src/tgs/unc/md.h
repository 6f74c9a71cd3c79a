// MD -- Mobility Directed scheduling (Wu & Gajski, 1990; paper ref [32]).
//
// Classification: UNC, CP-based, dynamic list, non-greedy. The relative
// mobility of an unscheduled node under the current partial schedule is
//     M(n) = (L - (tlevel'(n) + blevel'(n))) / w(n)
// where tlevel' pins already-placed nodes at their start times
// (PinnedLevels, kept current per placement), blevel' is the graph's
// b-level and L is the
// current critical-path length estimate. Critical-path nodes have
// zero mobility and are placed first. The selected node is placed on the
// FIRST processor (in index order) offering an idle slot inside the node's
// mobility window [tlevel'(n), L - blevel'(n)]; only when no processor can
// hold it inside the window is the minimum-EST processor used. Scanning
// used processors first is why the paper observes MD using relatively few
// processors. After every placement tlevel' is updated on the placed
// node's descendants whose value changes: O(v(v+e)) at worst.
//
// Fidelity note: the original MD may also displace ("push") already
// scheduled nodes when inserting; we restrict placement to existing idle
// gaps, and we only select among nodes whose parents are all placed so that
// data-ready times are exact (DESIGN.md, §3).
#pragma once

#include "tgs/sched/scheduler.h"

namespace tgs {

class MdScheduler final : public Scheduler {
 public:
  std::string name() const override { return "MD"; }
  AlgoClass algo_class() const override { return AlgoClass::kUNC; }

 protected:
  Schedule do_run(const TaskGraph& g, const SchedOptions& opt,
                  SchedWorkspace& ws) const override;
};

}  // namespace tgs
